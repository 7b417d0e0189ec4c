import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gdskit as gk
from gdskit._kernels import window_tradeoff_min, window_tradeoff_values
from gdskit.errors import EmptySet, InvalidRange
from gdskit.families import _lip1_cover, _tb_cover
from oracles import (
    clip_orbit_grid_oracle,
    clip_orbit_oracle,
    dyadic_gds,
    dyadic_masses,
    dyadic_measure,
    dyadic_values,
    exact_capacity_oracle,
    exact_cover_oracle,
    kf_oracle,
    lip1_orbit_oracle,
    random_clip,
    shiftclip_grid_oracle,
    sup_clip_orbit_enumeration,
    t_orbit_grid_oracle,
    tb_orbit_oracle,
)


class TestClipMap:
    def test_identity(self):
        assert gk.ClipMap.identity().apply([0.0, 3.0]).tolist() == [0.0, 3.0]

    def test_bound(self):
        assert gk.ClipMap.bound(1.0).apply([0.0, 3.0]).tolist() == [0.0, 1.0]

    def test_shift_then_floor(self):
        p = gk.ClipMap(c=-2.0, lo=0.0, hi=math.inf)
        assert p.apply([0.0, 3.0]).tolist() == [0.0, 1.0]

    def test_one_lipschitz_exact(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            p = random_clip(rng)
            x, y = dyadic_values(rng, 2)
            assert abs(p.apply([x])[0] - p.apply([y])[0]) <= abs(x - y)

    def test_spread_never_grows(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            p = random_clip(rng)
            vals = dyadic_values(rng, 6)
            out = p.apply(vals)
            assert out.max() - out.min() <= vals.max() - vals.min()

    _dyadic = st.integers(-256, 256).map(lambda k: k / 16.0)
    _clip = st.builds(
        lambda c, a, b: gk.ClipMap(c, min(a, b), max(a, b)),
        _dyadic,
        st.one_of(st.just(-math.inf), _dyadic),
        st.one_of(_dyadic, st.just(math.inf)),
    )

    @given(_clip, _clip, st.lists(_dyadic, min_size=1, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_monoid_closure_pointwise(self, outer, inner, vals):
        combined = gk.compose_clips(outer, inner)
        vals = np.array(vals)
        assert np.array_equal(combined.apply(vals), outer.apply(inner.apply(vals)))

    def test_json_round_trip(self):
        for p in (gk.ClipMap.identity(), gk.ClipMap.bound(2.0), gk.ClipMap(1.5, -0.5, math.inf)):
            assert gk.ClipMap.from_json(p.to_json()) == p

    def test_invalid_bounds(self):
        with pytest.raises(InvalidRange):
            gk.ClipMap(0.0, 1.0, 0.0)


class TestComposeFamily:
    def test_identity_keeps_points(self):
        rng = np.random.default_rng(11)
        X = dyadic_gds(rng)
        Y = gk.compose_family(X, gk.ClipMap.identity())
        assert Y.n_points == X.n_points
        assert np.array_equal(Y.generators, X.generators)

    def test_clip_keeps_distinct_points(self):
        X = gk.validate_gds([0, 1], [[0.0, 3.0]], gk.TB_FAMILY, [0.5, 0.5])
        Y = gk.compose_family(X, gk.ClipMap.bound(1.0))
        assert Y.n_points == 2
        assert Y.generators.tolist() == [[0.0, 1.0]]
        # infinite bounds stay legal: R = inf clips nothing
        assert gk.compose_family(X, gk.ClipMap.bound(math.inf)).generators.tolist() == [[0.0, 3.0]]

    def test_constant_collapses(self):
        X = gk.validate_gds([0, 1], [[0.0, 3.0]], gk.TB_FAMILY, [0.5, 0.5])
        Y = gk.compose_family(X, gk.ClipMap.constant(0.0))
        assert Y.n_points == 1
        assert Y.masses.tolist() == [1.0]

    def test_mass_preserved_and_od_never_grows(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            X = dyadic_gds(rng)
            p = random_clip(rng)
            Y = gk.compose_family(X, p)
            assert abs(float(Y.masses.sum()) - 1.0) <= 1e-12
            for kappa in (0.1, 0.35, 0.6):
                assert gk.observable_diameter(Y, kappa) <= gk.observable_diameter(X, kappa)


LIP1 = gk.FamilyTag("lip1")


class TestDistToOrbit:
    def test_same_feature_any_family(self):
        rng = np.random.default_rng(17)
        f = dyadic_values(rng, 5)
        pv = gk.ProbVector(dyadic_masses(rng, 5))
        for family in (gk.ID_FAMILY, gk.T_FAMILY, gk.B_FAMILY, gk.TB_FAMILY):
            res = gk.dist_to_orbit(f, f, family, pv)
            assert res.value == 0.0

    def test_exact_shift_alignment(self):
        pv = gk.ProbVector.uniform(3)
        res = gk.dist_to_orbit([5.0, 6.0, 7.0], [0.0, 1.0, 2.0], gk.T_FAMILY, pv)
        assert res.value == 0.0
        assert res.witness.c == 5.0
        assert res.certified

    def test_clip_alignment(self):
        pv = gk.ProbVector.uniform(3)
        g = np.array([-3.0, 0.5, 2.0])
        f = np.clip(g, -1.0, 1.0)
        res = gk.dist_to_orbit(f, g, gk.B_FAMILY, pv)
        assert res.value == 0.0
        assert res.witness.hi == 1.0

    def test_translation_matches_grid_oracle(self):
        rng = np.random.default_rng(19)
        for _ in range(15):
            n = int(rng.integers(2, 6))
            f, g = dyadic_values(rng, n, span=2), dyadic_values(rng, n, span=2)
            w = dyadic_masses(rng, n, denom_pow=4)
            exact = gk.dist_to_orbit(f, g, gk.T_FAMILY, gk.ProbVector(w)).value
            grid = t_orbit_grid_oracle(f, g, w)
            assert exact <= grid + 1e-12

    def test_clip_matches_grid_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            f, g = dyadic_values(rng, n, span=2), dyadic_values(rng, n, span=2)
            w = dyadic_masses(rng, n, denom_pow=4)
            exact = gk.dist_to_orbit(f, g, gk.B_FAMILY, gk.ProbVector(w)).value
            grid = clip_orbit_grid_oracle(f, g, w)
            assert exact <= grid + 1e-12

    def test_shiftclip_below_translation_and_grid(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            f, g = dyadic_values(rng, n, span=2), dyadic_values(rng, n, span=2)
            pv = gk.ProbVector(dyadic_masses(rng, n, denom_pow=4))
            tb = gk.dist_to_orbit(f, g, gk.TB_FAMILY, pv).value
            t = gk.dist_to_orbit(f, g, gk.T_FAMILY, pv).value
            ident = gk.dist_to_orbit(f, g, gk.ID_FAMILY, pv).value
            assert tb <= t <= ident
            grid_val, resolution = shiftclip_grid_oracle(f, g, pv.weights)
            assert tb <= grid_val + resolution + 1e-12

    def test_witness_reproduces_value(self):
        rng = np.random.default_rng(31)
        # None draws a small support
        for size in [None] * 25 + [13, 16, 17, 20]:
            n = size or int(rng.integers(2, 6))
            f, g = dyadic_values(rng, n), dyadic_values(rng, n)
            w = dyadic_masses(rng, n)
            pv = gk.ProbVector(w)
            for family in (gk.ID_FAMILY, gk.T_FAMILY, gk.B_FAMILY, gk.TB_FAMILY, LIP1):
                res = gk.dist_to_orbit(f, g, family, pv)
                achieved = kf_oracle(f, res.witness.apply(g), w)
                assert achieved <= res.value + 1e-9
        # the clip searches are exact and certified at any size
        for n in (13, 32, 64, 256):
            f, g = rng.normal(size=n), rng.normal(size=n)
            w = rng.dirichlet(np.ones(n))
            for family in (gk.B_FAMILY, gk.TB_FAMILY):
                res = gk.dist_to_orbit(f, g, family, gk.ProbVector(w))
                assert res.certified
                assert kf_oracle(f, res.witness.apply(g), w) <= res.value + 1e-15

    def test_shiftclip_tie_takes_first_candidate(self):
        # a constant map covers as much as any shift here, and the cover
        # takes the constant on a tie: the constant 11/16
        pv = gk.ProbVector.uniform(2)
        res = gk.dist_to_orbit([0.5, 0.875], [0.5, 0.0], gk.TB_FAMILY, pv)
        assert res.value == 0.1875
        assert res.witness == gk.ClipMap.constant(0.6875)
        # f is a translate of g: the optimal translation is scored first
        # and keeps the tie with the cover witness ClipMap(-5, 0, 1)
        res = gk.dist_to_orbit([0.0, 1.0], [5.0, 6.0], gk.TB_FAMILY, pv)
        assert res.value == 0.0
        assert res.witness == gk.ClipMap.translation(-5.0)

    def test_window_kernel_rows_match_single_row(self):
        rng = np.random.default_rng(61)
        for n in range(1, 21):
            deltas = rng.normal(size=(4, n))
            deltas[1] = np.round(deltas[1] * 4) / 4  # tied windows
            w = rng.dirichlet(np.ones(n))
            values, shifts = window_tradeoff_values(deltas, w)
            for r in range(4):
                assert window_tradeoff_min(deltas[r], w) == (values[r], shifts[r])

    def test_lip1_no_worse_than_shiftclip(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            f, g = dyadic_values(rng, n), dyadic_values(rng, n)
            pv = gk.ProbVector(dyadic_masses(rng, n))
            tb = gk.dist_to_orbit(f, g, gk.TB_FAMILY, pv).value
            lip = gk.dist_to_orbit(f, g, LIP1, pv)
            assert lip.value <= tb + 1e-12
            assert lip.certified


class TestSupOrbit:
    def test_translation_midrange(self):
        res = gk.dist_to_orbit_sup([0.0, 4.0], [0.0, 0.0], gk.T_FAMILY)
        assert res.value == 2.0

    def test_identity(self):
        res = gk.dist_to_orbit_sup([0.0, 4.0], [1.0, 1.0], gk.ID_FAMILY)
        assert res.value == 3.0

    def test_clip_reaches_zero(self):
        g = np.array([-5.0, 1.0, 6.0])
        f = np.clip(g, -2.0, 2.0)
        assert gk.dist_to_orbit_sup(f, g, gk.B_FAMILY).value == 0.0

    def test_witness_reproduces_value(self):
        rng = np.random.default_rng(41)
        for size in [None] * 25 + [13, 16, 17, 20]:
            n = size or int(rng.integers(2, 6))
            f, g = dyadic_values(rng, n), dyadic_values(rng, n)
            for family in (gk.ID_FAMILY, gk.T_FAMILY, gk.B_FAMILY, gk.TB_FAMILY):
                res = gk.dist_to_orbit_sup(f, g, family)
                achieved = float(np.max(np.abs(f - res.witness.apply(g))))
                assert achieved <= res.value + 1e-9
        for n in (13, 32, 64, 256):
            f, g = rng.normal(size=n), rng.normal(size=n)
            for family in (gk.B_FAMILY, gk.TB_FAMILY):
                res = gk.dist_to_orbit_sup(f, g, family)
                assert res.certified
                assert float(np.max(np.abs(f - res.witness.apply(g)))) == res.value


def _clip_case(rng, i, n):
    """A feature pair and masses for the clip-orbit tests: features
    dyadic, Gaussian or multiples of 1/11, masses Dirichlet, uniform or
    multiples of 1/11 (1/22 above 11 points); every other f is an exact
    or perturbed member of the orbit of g."""
    kind = i % 3

    def feature():
        if kind == 0:
            return rng.integers(-64, 65, size=n) / 16
        if kind == 1:
            return rng.normal(size=n)
        return rng.integers(-22, 23, size=n) / 11

    g = feature()
    if i % 2:
        R = float(np.abs(g)[rng.integers(n)])
        f = np.clip(g, -R, R) + feature() * (rng.random(n) < 0.3) * (i % 4 == 1)
    else:
        f = feature()
    mass_kind = (i // 3) % 3
    if mass_kind == 0:
        w = rng.dirichlet(np.ones(n))
    elif mass_kind == 1:
        w = np.full(n, 1.0 / n)
    else:
        denom = 11 * -(-n // 11)
        cuts = np.sort(rng.choice(np.arange(1, denom), size=n - 1, replace=False))
        w = np.diff(np.concatenate([[0], cuts, [denom]])) / denom
    return f, g, w


class TestClipOrbit:
    def test_minimal_case(self):
        # uncovered weight 1 - 1/3 rounds above the sum 1/3 + 1/3 here;
        # R = 0 reaches 2/3
        res = gk.dist_to_orbit([-1.0, -0.75, -0.5], [-0.75, 0.75, 0.75], gk.B_FAMILY,
                               gk.ProbVector.uniform(3))
        assert abs(res.value - 2.0 / 3.0) <= 1e-15
        assert res.certified

    def test_matches_exact_oracle(self):
        # float rounding in the scored tail masses can put the value an
        # ulp or two below the rational optimum, never more
        rng = np.random.default_rng(67)
        for i in range(240):
            n = int(rng.integers(2, 13 if i % 8 == 0 else 8))
            f, g, w = _clip_case(rng, i, n)
            res = gk.dist_to_orbit(f, g, gk.B_FAMILY, gk.ProbVector(w))
            exact = float(clip_orbit_oracle(f, g, w))
            assert exact - 1e-15 <= res.value <= exact + 1e-12
            assert res.certified

    def test_sup_matches_enumeration(self):
        rng = np.random.default_rng(71)
        for i in range(150):
            n = int(rng.integers(2, 41))
            f, g, _ = _clip_case(rng, i, n)
            res = gk.dist_to_orbit_sup(f, g, gk.B_FAMILY)
            value, _ = sup_clip_orbit_enumeration(f, g)
            if i % 3 == 0:
                assert res.value == value  # dyadic: exact arithmetic on both sides
            else:
                assert abs(res.value - value) <= 1e-15
            assert res.certified


def _tb_case(rng, i, n):
    """A feature pair and masses for the shift-then-clip oracle tests:
    features k/7 or k/11 (not dyadic, so float rounding shows), masses
    k/7 or k/11, and every other f an exact or perturbed member of the
    orbit of g."""
    denom = (7, 11)[i % 2]
    g = rng.integers(-2 * denom, 2 * denom + 1, size=n) / denom
    if i % 4 < 2:
        f = rng.integers(-2 * denom, 2 * denom + 1, size=n) / denom
    else:
        c, lo, hi = np.sort(rng.integers(-2 * denom, 2 * denom + 1, size=3)) / denom
        f = gk.ClipMap(float(rng.permutation([c, lo, hi])[0]), lo, hi).apply(g)
        f[rng.integers(n)] += (i % 8 == 6) / 7
    denom = (11, 7)[i // 2 % 2]
    cuts = np.sort(rng.choice(np.arange(1, denom), size=n - 1, replace=False))
    w = np.diff(np.concatenate([[0], cuts, [denom]])) / denom
    return f, g, w


class TestShiftClipOrbit:
    def test_matches_rational_oracle(self):
        rng = np.random.default_rng(73)
        for i in range(120):
            n = int(rng.integers(1, 5))
            f, g, w = _tb_case(rng, i, n)
            orbit = tb_orbit_oracle(f, g, w)
            res = gk.dist_to_orbit(f, g, gk.TB_FAMILY, gk.ProbVector(w))
            assert res.certified
            assert abs(res.value - float(orbit.kyfan)) <= 1e-12
            assert abs(kf_oracle(f, res.witness.apply(g), w) - res.value) <= 1e-15
            res = gk.dist_to_orbit_sup(f, g, gk.TB_FAMILY)
            assert res.certified
            assert abs(res.value - float(orbit.sup)) <= 1e-12
            assert float(np.max(np.abs(f - res.witness.apply(g)))) == res.value

    def test_uncovered_weight_steps_at_breakpoints(self):
        # m(eps) is constant from each breakpoint 0, |f_i - f_j| / 2,
        # |d_i - d_j| / 2 up to the next, and the cover oracle gives it
        # inside each interval wider than float rounding
        rng = np.random.default_rng(79)
        for i in range(60):
            n = int(rng.integers(1, 5))
            f, g, w = _tb_case(rng, i, n)
            orbit = tb_orbit_oracle(f, g, w)
            fr = [Fraction(v) for v in f.tolist()]
            d = [a - Fraction(b) for a, b in zip(fr, g.tolist())]
            breaks = sorted({Fraction(0)} | {abs(a - b) / 2 for pts in (fr, d) for a in pts for b in pts})
            order = np.argsort(f, kind="stable")
            for lo, hi in zip(breaks, breaks[1:] + [breaks[-1] + 1]):
                m = orbit.uncovered(lo)
                assert orbit.uncovered((lo + hi) / 2) == m
                assert orbit.uncovered(hi - (hi - lo) / 1000) == m
                if hi - lo > 1e-9:
                    uncovered, _ = _tb_cover(f[order], (f - g)[order], w[order])(float((lo + hi) / 2))
                    assert abs(uncovered - float(m)) <= 1e-12

    def test_exact_members_at_any_size(self):
        # the candidate grid of earlier versions missed most of these
        # above 16 points, by 0.02-0.05
        rng = np.random.default_rng(83)
        for n in (17, 20, 30):
            for _ in range(4):
                g = np.sort(rng.normal(size=n))
                lo, hi = np.sort(rng.normal(size=2))
                f = gk.ClipMap(float(rng.normal()), lo, hi).apply(g)
                w = rng.dirichlet(np.ones(n))
                assert gk.dist_to_orbit(f, g, gk.TB_FAMILY, gk.ProbVector(w)).value <= 1e-12
                assert gk.dist_to_orbit_sup(f, g, gk.TB_FAMILY).value <= 1e-12


def _lip1_case(rng, i, n):
    """A feature pair and masses for the lip1 oracle tests: features k/7
    or k/11 with some g values tied, masses k/7, k/11 or Dirichlet, and
    every other f a 1-Lipschitz image of g, perturbed at one point in
    one case of eight."""
    denom = (7, 11)[i % 2]
    g = rng.integers(-2 * denom, 2 * denom + 1, size=n) / denom
    if i % 3 == 0:
        g[rng.integers(n, size=2)] = g[0]
    if i % 4 < 2:
        f = rng.integers(-2 * denom, 2 * denom + 1, size=n) / denom
    else:
        c = rng.integers(-2 * denom, 2 * denom + 1) / denom
        f = np.abs(g - c) if i % 8 < 4 else np.clip(g, -1.0, c)
        f[rng.integers(n)] += (i % 8 == 6) / 7
    kind = i // 4 % 3
    if kind == 2:
        return f, g, rng.dirichlet(np.ones(n))
    denom = (7, 11)[kind]
    cuts = np.sort(rng.choice(np.arange(1, denom), size=n - 1, replace=False))
    return f, g, np.diff(np.concatenate([[0], cuts, [denom]])) / denom


class TestLip1Orbit:
    def test_matches_rational_oracle(self):
        rng = np.random.default_rng(89)
        for i in range(240):
            n = int(rng.integers(1, 8))
            f, g, w = _lip1_case(rng, i, n)
            orbit = lip1_orbit_oracle(f, g, w)
            pv = gk.ProbVector(w)
            res = gk.dist_to_orbit(f, g, LIP1, pv)
            assert res.certified
            assert abs(res.value - float(orbit.kyfan)) <= 1e-12
            assert abs(kf_oracle(f, res.witness.apply(g), w) - res.value) <= 1e-15
            assert res.value <= gk.dist_to_orbit(f, g, gk.TB_FAMILY, pv).value + 1e-12
            res = gk.dist_to_orbit_sup(f, g, LIP1)
            assert res.certified
            assert abs(res.value - float(orbit.sup)) <= 1e-12
            assert float(np.max(np.abs(f - res.witness.apply(g)))) == res.value
            assert res.value <= gk.dist_to_orbit_sup(f, g, gk.TB_FAMILY).value + 1e-12

    def test_self_distance_is_zero(self):
        # the McShane extension of f from f must give f back exactly at its
        # knots, or a map sits 1.1e-16 from its own orbit
        rng = np.random.default_rng(103)
        for _ in range(200):
            n = int(rng.integers(2, 5))
            k = rng.integers(1, 12, size=n)
            f = rng.integers(-20, 21, size=n) / 7.0
            assert gk.dist_to_orbit(f, f, LIP1, gk.ProbVector(k / k.sum())).value == 0.0
            assert gk.dist_to_orbit_sup(f, f, LIP1).value == 0.0

    def test_uncovered_weight_steps_at_breakpoints(self):
        # m(eps) is constant from each breakpoint 0, (|f_i - f_j| -
        # |g_i - g_j|) / 2 up to the next; the cover oracle gives it
        # inside each interval wider than float rounding, and its
        # witness leaves no more out
        rng = np.random.default_rng(97)
        for i in range(60):
            n = int(rng.integers(1, 7))
            f, g, w = _lip1_case(rng, i, n)
            orbit = lip1_orbit_oracle(f, g, w)
            fr, gr = [Fraction(v) for v in f.tolist()], [Fraction(v) for v in g.tolist()]
            breaks = sorted({Fraction(0)} | {
                max(Fraction(0), (abs(fr[a] - fr[b]) - abs(gr[a] - gr[b])) / 2)
                for a in range(n) for b in range(n)
            })
            stretch = np.abs(f[:, None] - f[None, :]) - np.abs(g[:, None] - g[None, :])
            cover = _lip1_cover(f, g, stretch, w)
            for lo, hi in zip(breaks, breaks[1:] + [breaks[-1] + 1]):
                m = orbit.uncovered(lo)
                assert orbit.uncovered((lo + hi) / 2) == m
                if hi - lo <= 1e-9:
                    continue  # floats of k/11 split one breakpoint in two
                eps = float((lo + hi) / 2)
                uncovered, build = cover(eps)
                assert abs(uncovered - float(m)) <= 1e-12
                left_out = np.abs(f - build().apply(g)) > eps
                assert float(np.sum(w[left_out])) <= uncovered + 1e-12

    def test_certified_at_any_size(self):
        rng = np.random.default_rng(101)
        for n in (13, 32, 64, 256):
            f, g = rng.normal(size=n), rng.normal(size=n)
            g[: n // 4] = g[0]
            res = gk.dist_to_orbit_sup(f, g, LIP1)
            assert res.certified
            assert float(np.max(np.abs(f - res.witness.apply(g)))) == res.value
            stretch = np.abs(f[:, None] - f[None, :]) - np.abs(g[:, None] - g[None, :])
            assert abs(res.value - max(0.0, stretch.max() / 2.0)) <= 1e-12
            if n > 64:
                continue  # the Ky Fan search takes O(n^3) per breakpoint
            w = rng.dirichlet(np.ones(n))
            res = gk.dist_to_orbit(f, g, LIP1, gk.ProbVector(w))
            assert res.certified
            assert abs(kf_oracle(f, res.witness.apply(g), w) - res.value) <= 1e-15
            assert res.value <= gk.dist_to_orbit(f, g, gk.TB_FAMILY, gk.ProbVector(w)).value + 1e-12

    def test_witness_with_knot_gaps_below_value_rounding(self):
        # knots 1e-4 apart under values near 100: the witness's slopes of
        # exactly 1 round to 1 + 1e-9, which a PLMap must take
        rng = np.random.default_rng(107)
        for _ in range(20):
            g = np.sort(rng.normal(size=10)) * 1e-3
            f, w = 100.0 + rng.normal(size=10), rng.dirichlet(np.ones(10))
            res = gk.dist_to_orbit(f, g, LIP1, gk.ProbVector(w))
            assert abs(kf_oracle(f, res.witness.apply(g), w) - res.value) <= 1e-15
            stretch = np.abs(f[:, None] - f[None, :]) - np.abs(g[:, None] - g[None, :])
            assert abs(gk.dist_to_orbit_sup(f, g, LIP1).value - stretch.max() / 2.0) <= 1e-12

    def test_exact_members_at_any_size(self):
        # a seeded sample of piecewise linear maps missed these
        rng = np.random.default_rng(103)
        for n in (17, 30, 64):
            g = np.sort(rng.normal(size=n))
            f = np.concatenate([[0.0], np.cumsum(rng.uniform(-1.0, 1.0, size=n - 1) * np.diff(g))])
            w = rng.dirichlet(np.ones(n))
            assert gk.dist_to_orbit(f, g, LIP1, gk.ProbVector(w)).value <= 1e-12
            assert gk.dist_to_orbit_sup(f, g, LIP1).value <= 1e-12


class TestCovering:
    def test_single_orbit_is_one(self):
        # generators all translates of one feature
        base = np.array([0.0, 1.0, 2.5])
        gens = np.vstack([base, base + 2.0, base - 1.5])
        X = gk.validate_gds([0, 1, 2], gens, gk.T_FAMILY, [0.25, 0.25, 0.5])
        res = gk.covering_number(X, 0.05)
        assert res.value == 1 and res.exact

    def test_one_point_constants_under_translations(self):
        X = gk.validate_gds(["p"], [[3.0], [5.0], [-2.0]], gk.T_FAMILY, [1.0])
        for eps in (0.01, 0.1, 1.0):
            res = gk.covering_number(X, eps)
            assert res.value == 1 and res.exact

    def test_two_inequivalent_generators(self):
        # a spread feature and a non-monotone shuffle of it sit at
        # positive shift-clip orbit distance in both directions
        gens = np.array([[0.0, 1.0, 2.0, 3.0], [2.0, 3.0, 0.0, 1.0]])
        X = gk.validate_gds(range(4), gens, gk.TB_FAMILY, [0.25] * 4)
        from gdskit.families import directed_orbit_matrix

        d = directed_orbit_matrix(X.generators, X.family, X.mu)
        assert d[0, 1] > 0.1 and d[1, 0] > 0.1
        res = gk.covering_number(X, 0.1)
        assert res.exact
        assert res.value == exact_cover_oracle(d < 0.1)
        assert res.value == 2

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            X = dyadic_gds(rng, max_n=5, max_gens=4)
            eps = 0.37
            from gdskit.families import directed_orbit_matrix

            d = directed_orbit_matrix(X.generators, X.family, X.mu)
            res = gk.covering_number(X, eps)
            assert res.exact
            assert res.value == exact_cover_oracle(d < eps)

    def test_shiftclip_member_is_one_orbit(self):
        # the second generator is a shift-then-clip image of the first
        g = np.arange(17.0)
        gens = [g, gk.ClipMap(0, 0.25, 0.5).apply(g)]
        X = gk.validate_gds(range(17), gens, gk.TB_FAMILY, (np.arange(17) + 1) / 153)
        res = gk.covering_number(X, 0.005)
        assert (res.value, res.exact) == (1, True)

    def test_lip1_count_is_exact(self):
        # |g - 2| is 1-Lipschitz in g, so one orbit covers both rows; no
        # 1-Lipschitz map takes |g - 2| back to g, so the rows stay apart
        g = np.arange(5.0)
        X = gk.validate_gds(range(5), [g, np.abs(g - 2.0)], LIP1, [0.2] * 5)
        assert gk.covering_number(X, 0.1) == gk.CoveringResult(1, True)
        assert gk.capacity(X.generators, 0.1, X.family, X.mu) == gk.CapacityResult(2, True)

    def test_covering_transfer_under_small_dconc(self):
        # cov(X, eps) <= cov(Y, eps - 2 delta) when dconc(X, Y) < delta
        rng = np.random.default_rng(47)
        for _ in range(8):
            X = dyadic_gds(rng, max_n=4, max_gens=3, family=gk.T_FAMILY)
            shift = 1.0 / 64.0
            gens = X.generators.copy()
            gens[0] = gens[0] + shift  # a translate: stays in the T orbit
            Y = gk.FiniteGDS(X.point_ids, gens, X.family, X.mu)
            delta = gk.dconc_bracket(X, Y).upper + 1e-9
            for eps in (0.4, 0.6):
                if eps - 2 * delta <= 0:
                    continue
                cx = gk.covering_number(X, eps)
                cy = gk.covering_number(Y, eps - 2 * delta)
                assert cx.exact and cy.exact
                assert cx.value <= cy.value

    def test_greedy_cover_above_twelve_generators(self):
        # above 12 generators the count is a greedy set cover: at least the
        # least cover, and within the greedy factor H(largest set) of it
        from gdskit.families import directed_orbit_matrix

        rng = np.random.default_rng(59)
        for m in (13, 14, 15, 16):
            gens = rng.integers(0, 8, size=(m, 5)) / 4.0
            X = gk.FiniteGDS(tuple(range(5)), gens, gk.TB_FAMILY, gk.ProbVector(dyadic_masses(rng, 5)))
            d = directed_orbit_matrix(X.generators, X.family, X.mu)
            for eps in np.quantile(d[d > 0], [0.2, 0.5]):
                covers = d < eps
                res = gk.covering_number(X, eps)
                least = exact_cover_oracle(covers)
                largest = int(covers.sum(axis=0).max())
                assert not res.exact
                assert least <= res.value <= min(m, least * sum(1.0 / k for k in range(1, largest + 1)))

    def test_greedy_cover_finds_separated_orbits(self):
        # 15 generators, three translates each of five features whose
        # orbits lie far apart: the greedy cover takes one per orbit
        base = np.array([[0.0, 1.0, 2.0, 3.0], [3.0, 2.0, 1.0, 0.0], [0.0, 3.0, 0.0, 3.0], [3.0, 0.0, 3.0, 0.0], [0.0, 0.0, 3.0, 3.0]])
        gens = np.vstack([row + shift for row in base for shift in (0.0, 1.0, -2.0)])
        X = gk.validate_gds(range(4), gens, gk.T_FAMILY, [0.25] * 4)
        assert gk.covering_number(X, 0.1) == gk.CoveringResult(5, False)
        assert gk.capacity(X.generators, 0.1, X.family, X.mu) == gk.CapacityResult(5, False)


class TestCapacity:
    def test_single_rep(self):
        res = gk.capacity([[0.0, 1.0]], 0.1, gk.TB_FAMILY, gk.ProbVector.uniform(2))
        assert res.value == 1

    def test_same_orbit_collapses(self):
        base = np.array([0.0, 1.0, 2.5])
        reps = np.vstack([base, base + 2.0, base - 1.0])
        res = gk.capacity(reps, 0.05, gk.T_FAMILY, gk.ProbVector.uniform(3))
        assert res.value == 1 and res.exact

    def test_constructed_discrete_family(self):
        # features with pairwise symmetric orbit distance 0.5 under TB
        reps = np.array([
            [0.0, 1.0, 2.0, 3.0],
            [2.0, 3.0, 0.0, 1.0],
            [1.0, 0.0, 3.0, 2.0],
        ])
        mu = gk.ProbVector.uniform(4)
        from gdskit.families import symmetric_orbit_matrix

        s = symmetric_orbit_matrix(reps, gk.TB_FAMILY, mu)
        eps = 0.9 * s[np.triu_indices(3, 1)].min()
        res = gk.capacity(reps, eps, gk.TB_FAMILY, mu)
        assert res.exact
        assert res.value == 3

    def test_cov_le_capa_when_both_exact(self):
        rng = np.random.default_rng(53)
        for _ in range(10):
            X = dyadic_gds(rng, max_n=5, max_gens=4)
            eps = 0.23
            cov = gk.covering_number(X, eps)
            capa = gk.capacity(X.generators, eps, X.family, X.mu)
            assert cov.exact and capa.exact
            assert cov.value <= capa.value
            from gdskit.families import symmetric_orbit_matrix

            s = symmetric_orbit_matrix(X.generators, X.family, X.mu)
            assert capa.value == exact_capacity_oracle(s, eps)

    def test_greedy_capacity_above_twelve_representatives(self):
        # above 12 representatives the count is a greedy scan: an
        # eps-discrete set, so at most the largest one, and a maximal one,
        # so at least m / (1 + the most representatives near one)
        from gdskit.families import symmetric_orbit_matrix

        rng = np.random.default_rng(61)
        mu = gk.ProbVector(dyadic_masses(rng, 5))
        for m in (13, 14, 15, 16):
            reps = rng.integers(0, 8, size=(m, 5)) / 4.0
            s = symmetric_orbit_matrix(reps, gk.TB_FAMILY, mu)
            for eps in np.quantile(s[s > 0], [0.2, 0.5]):
                res = gk.capacity(reps, eps, gk.TB_FAMILY, mu)
                near = int(((s <= eps).sum(axis=1) - 1).max())
                assert not res.exact
                assert m / (1 + near) <= res.value <= exact_capacity_oracle(s, eps)

    def test_empty_rejected(self):
        with pytest.raises(EmptySet):
            gk.capacity(np.zeros((0, 3)), 0.1, gk.TB_FAMILY, gk.ProbVector.uniform(3))


class TestExtractBounded:
    def test_point_mass(self):
        g, achieved = gk.extract_bounded(gk.DiscreteMeasureR.point_mass(4.0), 0.3, 0.1, 2.0)
        assert g.c == -4.0
        assert achieved == 0.0

    def test_two_atoms_clip_inactive(self):
        mu = gk.DiscreteMeasureR(np.array([0.0, 7.0]), np.array([0.5, 0.5]))
        g, achieved = gk.extract_bounded(mu, 1 / 3, 0.1, 10.0)
        assert achieved == 7.0

    def test_two_atoms_clip_active(self):
        mu = gk.DiscreteMeasureR(np.array([0.0, 7.0]), np.array([0.5, 0.5]))
        g, achieved = gk.extract_bounded(mu, 1 / 3, 0.1, 1.0)
        assert achieved == 1.0
        assert np.all(np.abs(g.apply(mu.values)) <= 1.0)

    def test_guarantee_on_random_measures(self):
        rng = np.random.default_rng(59)
        for _ in range(200):
            mu = dyadic_measure(rng)
            kappa = float(rng.uniform(0.02, 0.46))
            eps = float(rng.uniform(0.01, 0.49 - kappa))
            r = float(rng.uniform(0.25, 10.0))
            g, achieved = gk.extract_bounded(mu, kappa, eps, r)
            target = min(r, gk.partial_diameter(mu, 1 - (kappa + eps)))
            assert target <= achieved + 2 * eps + 1e-12
            assert np.all(np.abs(g.apply(mu.values)) <= r)

    def test_invalid_ranges(self):
        mu = gk.DiscreteMeasureR.point_mass(0.0)
        with pytest.raises(InvalidRange):
            gk.extract_bounded(mu, 0.6, 0.1, 1.0)
        with pytest.raises(InvalidRange):
            gk.extract_bounded(mu, 0.3, 0.25, 1.0)
        with pytest.raises(InvalidRange):
            gk.extract_bounded(mu, 0.3, 0.1, 0.0)
