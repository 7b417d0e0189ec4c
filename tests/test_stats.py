import os
import pathlib
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gdskit as gk
from gdskit._kernels import MASS_GUARD, pd_rows
from gdskit.errors import DimensionMismatch, EmptySet, InvalidAlpha
from oracles import (
    KyFanConfig,
    binomial_profile,
    dyadic_masses,
    dyadic_measure,
    dyadic_values,
    kf_oracle,
    ky_fan_grid_oracle,
    pd_oracle,
    prohorov_listing,
    prohorov_oracle,
    random_clip,
)


def measure(values, masses):
    return gk.DiscreteMeasureR(np.asarray(values, float), np.asarray(masses, float))


def rational_measure(rng, max_atoms):
    """At most max_atoms atoms of values k/8 or k/7 in [-3, 3], with
    masses k/7 or k/11."""
    denom = int(rng.choice([7, 11]))
    n = int(rng.integers(1, min(max_atoms, denom - 1) + 1))
    step = int(rng.choice([7, 8]))
    values = np.sort(rng.choice(np.arange(-3 * step, 3 * step + 1), size=n, replace=False)) / step
    cuts = np.sort(rng.choice(np.arange(1, denom), size=n - 1, replace=False))
    return measure(values, np.diff(np.concatenate([[0], cuts, [denom]])) / denom)


class TestPartialDiameter:
    def test_two_atoms_half_mass(self):
        assert gk.partial_diameter(measure([0, 1], [0.5, 0.5]), 0.5) == 0.0

    def test_point_mass(self):
        for alpha in (0.1, 0.5, 1.0):
            assert gk.partial_diameter(gk.DiscreteMeasureR.point_mass(3.0), alpha) == 0.0

    def test_binomial_8_alpha_09(self):
        vals, masses = binomial_profile(8)
        expected = pd_oracle(vals, masses, 0.9)
        assert expected == 0.5
        assert gk.partial_diameter(measure(vals, masses), 0.9) == expected

    def test_two_atoms_above_half(self):
        for n in (1.0, 4.0, 32.0):
            assert gk.partial_diameter(measure([0, n], [0.5, 0.5]), 0.6) == n

    def test_matches_oracle_on_random_measures(self):
        rng = np.random.default_rng(21)
        for _ in range(120):
            mu = dyadic_measure(rng)
            alpha = float(rng.integers(1, 1024)) / 1024.0
            assert gk.partial_diameter(mu, alpha) == pd_oracle(mu.values, mu.masses, alpha)

    @given(
        st.integers(0, 2**32 - 1),
        st.lists(st.integers(1, 1024), min_size=2, max_size=5, unique=True),
    )
    @settings(max_examples=120, deadline=None)
    def test_monotone_in_alpha(self, seed, alpha_nums):
        mu = dyadic_measure(np.random.default_rng(seed))
        alphas = sorted(a / 1025.0 for a in alpha_nums)
        vals = [gk.partial_diameter(mu, a) for a in alphas]
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_right_continuity_stabilizes(self):
        # pd(mu; 1-(kappa+1/n)) reaches pd(mu; 1-kappa) once 1/n drops
        # below the gap separating 1-kappa from the mass breakpoints
        rng = np.random.default_rng(9)
        for _ in range(30):
            mu = dyadic_measure(rng, max_atoms=5)
            kappa = 0.3
            target = gk.partial_diameter(mu, 1 - kappa)
            seq = [gk.partial_diameter(mu, 1 - (kappa + 1.0 / n)) for n in (4, 16, 4096, 2**20)]
            assert seq[-1] == target

    def test_non_dyadic_masses_match_exact_windows(self):
        # masses k/7, k/11 or Dirichlet draws, which floats only
        # approximate, and alphas at window masses: the least support
        # window with exact mass >= alpha - MASS_GUARD, and bit for bit
        # the row kernel's value for each row
        def exact_window(row, masses, alpha):
            atoms = sorted(zip(row.tolist(), masses))
            need = Fraction(alpha) - Fraction(MASS_GUARD)
            return min(
                atoms[j][0] - atoms[i][0]
                for i in range(len(atoms))
                for j in range(i, len(atoms))
                if sum(m for _, m in atoms[i : j + 1]) >= need
            )

        rng = np.random.default_rng(67)
        for trial in range(300):
            if trial % 3 == 2:
                n = int(rng.integers(1, 12))
                w = rng.dirichlet(np.ones(n))
                exact = [Fraction(float(m)) for m in w]
                alphas = np.cumsum(w)[:-1].tolist() + rng.uniform(0, 1, 3).tolist() + [1.0]
            else:
                denom = (7, 11)[trial % 3]
                n = int(rng.integers(1, denom + 1))
                counts = rng.multinomial(denom - n, np.full(n, 1.0 / n)) + 1
                w = counts / denom
                exact = [Fraction(int(k), denom) for k in counts]
                alphas = [k / denom for k in range(1, denom + 1)]
            scale = float(rng.choice([3.0, 7.0, 10.0]))
            rows = np.vstack([rng.choice(np.arange(-40, 41), size=n, replace=False) / scale for _ in range(3)])
            mu = gk.ProbVector(w)
            for alpha in alphas:
                if not 0.0 < alpha <= 1.0:
                    continue
                for row, width in zip(rows, pd_rows(rows, w, alpha)):
                    value = gk.partial_diameter(gk.pushforward(row, mu), alpha)
                    assert value == exact_window(row, exact, alpha)
                    assert value.hex() == float(width).hex()

    def test_batched_rows_match_scalar_at_scale(self):
        # the row search must not lose MASS_GUARD-sized differences to the
        # row count: row 0 needs its second atom once mass 0.6 - 5e-12 is short
        masses = np.array([0.6 - 5e-12, 0.4 + 5e-12])
        assert gk.partial_diameter(measure([0.0, 1.0], masses), 0.6) == 1.0
        widths = pd_rows(np.tile([0.0, 1.0], (100_000, 1)), masses, 0.6)
        assert np.all(widths == 1.0)

    def test_invalid_alpha(self):
        with pytest.raises(InvalidAlpha):
            gk.partial_diameter(measure([0.0], [1.0]), 0.0)
        with pytest.raises(InvalidAlpha):
            gk.partial_diameter(measure([0.0], [1.0]), 1.5)


class TestLevyMean:
    def test_point_mass(self):
        assert gk.levy_mean(gk.DiscreteMeasureR.point_mass(2.5)) == 2.5

    def test_half_mass_at_first_atom(self):
        assert gk.levy_mean(measure([0, 1], [0.5, 0.5])) == 0.0

    def test_first_atom_below_half(self):
        assert gk.levy_mean(measure([0, 1], [0.25, 0.75])) == 1.0


class TestKyFan:
    def test_equal_features(self):
        pv = gk.ProbVector.uniform(3)
        assert gk.ky_fan([1, 2, 3], [1, 2, 3], pv) == 0.0

    def test_constant_difference(self):
        pv = gk.ProbVector.uniform(2)
        assert gk.ky_fan([0.3, 0.3], [0.0, 0.0], pv) == 0.3
        assert gk.ky_fan([5.0, 5.0], [0.0, 0.0], pv) == 1.0

    def test_half_mass_difference(self):
        pv = gk.ProbVector.uniform(2)
        assert gk.ky_fan([0.9, 0.0], [0.0, 0.0], pv) == 0.5

    def test_matches_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(120):
            n = int(rng.integers(1, 8))
            f = dyadic_values(rng, n)
            g = dyadic_values(rng, n)
            w = dyadic_masses(rng, n)
            assert gk.ky_fan(f, g, gk.ProbVector(w)) == kf_oracle(f, g, w)

    def test_triangle_inequality_exact(self):
        rng = np.random.default_rng(17)
        for _ in range(150):
            n = int(rng.integers(1, 8))
            f, g, h = (dyadic_values(rng, n) for _ in range(3))
            pv = gk.ProbVector(dyadic_masses(rng, n))
            assert gk.ky_fan(f, h, pv) <= gk.ky_fan(f, g, pv) + gk.ky_fan(g, h, pv)

    def test_pullback_contraction_exact(self):
        rng = np.random.default_rng(23)
        for _ in range(150):
            n = int(rng.integers(1, 8))
            f, g = dyadic_values(rng, n), dyadic_values(rng, n)
            pv = gk.ProbVector(dyadic_masses(rng, n))
            p = random_clip(rng)
            assert gk.ky_fan(p.apply(f), p.apply(g), pv) <= gk.ky_fan(f, g, pv)

    def test_symmetry_and_identity(self):
        rng = np.random.default_rng(37)
        for _ in range(60):
            n = int(rng.integers(1, 6))
            f, g = dyadic_values(rng, n), dyadic_values(rng, n)
            pv = gk.ProbVector(dyadic_masses(rng, n))
            assert gk.ky_fan(f, g, pv) == gk.ky_fan(g, f, pv)
            assert gk.ky_fan(f, f, pv) == 0.0
            if np.any(f != g):
                assert gk.ky_fan(f, g, pv) > 0.0

    def test_bounded_by_one(self):
        pv = gk.ProbVector.uniform(2)
        assert gk.ky_fan([1e9, -1e9], [0.0, 0.0], pv) == 1.0

    def test_grid_oracle_within_resolution(self):
        rng = np.random.default_rng(41)
        cfg = KyFanConfig(candidate_refinement=2000)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            f, g = dyadic_values(rng, n, span=1), dyadic_values(rng, n, span=1)
            pv = gk.ProbVector(dyadic_masses(rng, n))
            exact = gk.ky_fan(f, g, pv)
            approx = ky_fan_grid_oracle(f, g, pv, cfg)
            assert exact <= approx <= exact + 1.0 / cfg.candidate_refinement + 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            gk.ky_fan([0.0], [0.0, 1.0], gk.ProbVector.uniform(2))


class TestProhorov:
    def test_identical(self):
        mu = measure([0, 10], [0.5, 0.5])
        assert gk.prohorov(mu, mu) == 0.0

    def test_point_masses(self):
        d0 = gk.DiscreteMeasureR.point_mass(0.0)
        assert gk.prohorov(d0, gk.DiscreteMeasureR.point_mass(0.4)) == 0.4
        assert gk.prohorov(d0, gk.DiscreteMeasureR.point_mass(7.0)) == 1.0

    def test_point_vs_split(self):
        d0 = gk.DiscreteMeasureR.point_mass(0.0)
        nu = measure([0, 10], [0.5, 0.5])
        assert gk.prohorov(d0, nu) == 0.5

    def test_matches_subset_oracle(self):
        rng = np.random.default_rng(43)
        for atoms in [3] * 60 + [6] * 20:
            mu = dyadic_measure(rng, max_atoms=atoms)
            nu = dyadic_measure(rng, max_atoms=atoms)
            assert gk.prohorov(mu, nu) == prohorov_oracle(mu, nu)

    def test_matches_listing_form(self):
        # values k/8 or k/7 and masses k/7 or k/11, which floats only
        # approximate; the bisection over the pooled differences returns
        # the listed atom distances' value bit for bit
        rng = np.random.default_rng(59)
        for _ in range(400):
            mu, nu = (rational_measure(rng, int(rng.integers(1, 11))) for _ in range(2))
            assert gk.prohorov(mu, nu) == prohorov_listing(mu, nu)

    def test_4096_atoms_in_linear_memory(self):
        # the listed form holds 4096^2 distances and a sorted copy, about
        # 550 MB at their peak
        rng = np.random.default_rng(61)
        mu, nu = (measure(np.sort(rng.normal(size=4096)), np.full(4096, 1 / 4096)) for _ in range(2))
        tracemalloc.start()
        try:
            value = gk.prohorov(mu, nu)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0.0 < value < 1.0
        assert peak <= 4 << 20

    def test_import_needs_no_graph_library(self):
        # brackets on equal-size data sets also solve the assignment
        # candidate; numpy.ma is loaded by np.unique asked for values only
        env = {**os.environ, "PYTHONPATH": str(pathlib.Path(gk.__file__).parents[1])}
        code = (
            "import sys, gdskit as gk, gdskit.cli\n"
            "cfg = gk.SearchConfig()\n"
            "for family in ('B', 'TB', 'lip1:4'):\n"
            "    tag = gk.FamilyTag.parse(family)\n"
            "    X = gk.validate_gds([0, 1, 2], [[0.0, 1.0, 3.0]], tag, [0.25, 0.25, 0.5])\n"
            "    Y = gk.validate_gds([0, 1, 2], [[0.0, 2.0, 3.0]], tag, [0.5, 0.25, 0.25])\n"
            "    gk.dconc_bracket(X, Y, cfg), gk.box_bracket(X, Y, cfg)\n"
            "mu = gk.DiscreteMeasureR([0.0, 1.0], [0.5, 0.5])\n"
            "nu = gk.DiscreteMeasureR([0.0, 0.5, 2.0], [0.25, 0.25, 0.5])\n"
            "gk.prohorov(mu, nu), gk.od_profile(X, (0.1, 0.3)), gk.dconc_lower_via_od(X, Y, (0.1, 0.3))\n"
            "loaded = ('networkx', 'scipy', 'numpy.ma')\n"
            "sys.exit(' '.join(m for m in loaded if m in sys.modules) or None)"
        )
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert run.returncode == 0, run.stderr

    def test_empirical_symmetry(self):
        rng = np.random.default_rng(47)
        for _ in range(60):
            mu = dyadic_measure(rng, max_atoms=4)
            nu = dyadic_measure(rng, max_atoms=4)
            assert gk.prohorov(mu, nu) == gk.prohorov(nu, mu)

    def test_pd_bridge(self):
        # eps above the Prohorov distance transfers partial diameters
        rng = np.random.default_rng(53)
        for _ in range(40):
            mu = dyadic_measure(rng, max_atoms=4)
            nu = dyadic_measure(rng, max_atoms=4)
            dp = gk.prohorov(mu, nu)
            for eps in (dp + 0.01, dp + 0.1, dp + 0.3):
                for kappa in (0.05, 0.2, 0.4, 0.6):
                    if kappa + eps >= 1:
                        continue
                    lhs = gk.partial_diameter(mu, 1 - (kappa + eps))
                    rhs = gk.partial_diameter(nu, 1 - kappa) + 2 * eps
                    assert lhs <= rhs + 1e-12


class TestHausdorff:
    def test_equal_sets(self):
        d = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert gk.hausdorff([0, 1], [0, 1], d) == 0.0

    def test_singletons(self):
        d = np.array([[0.0, 3.0], [3.0, 0.0]])
        assert gk.hausdorff([0], [1], d) == 3.0

    def test_two_against_one(self):
        d = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 2.0], [1.0, 2.0, 0.0]])
        assert gk.hausdorff([0, 1], [2], d) == 2.0

    def test_empty_rejected(self):
        with pytest.raises(EmptySet):
            gk.hausdorff([], [0], np.zeros((1, 1)))

    def test_table_scan_matches_whole_table_minima(self):
        # the one Hausdorff scan, on a table, is bit for bit the maximum
        # of the row and column minima, ties and repeated indices included
        rng = np.random.default_rng(71)
        for _ in range(200):
            d = rng.integers(0, 6, size=(7, 7)) / rng.choice([1.0, 3.0, 7.0])
            A = rng.integers(0, 7, size=int(rng.integers(1, 6))).tolist()
            B = rng.integers(0, 7, size=int(rng.integers(1, 6))).tolist()
            sub = d[np.ix_(A, B)]
            assert gk.hausdorff(A, B, d) == max(sub.min(axis=1).max(), sub.min(axis=0).max())
