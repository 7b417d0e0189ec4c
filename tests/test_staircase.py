import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

import gdskit as gk
from gdskit.distances import SearchConfig
from gdskit.errors import LevelMismatch
from gdskit.staircase import (
    level_hausdorff,
    series_tail,
    series_weight,
    staircase_distance,
    staircase_level,
)
from gdskit.transforms import enumerate_measurements
from oracles import canonical_form, dyadic_gds

CFG = SearchConfig(level_budget=8)


def two_point(n, family=gk.TB_FAMILY):
    return gk.validate_gds([0, 1], [[0.0, float(n)]], family, [0.5, 0.5])


class TestSeries:
    def test_weights(self):
        assert series_weight(1) == 0.25
        assert series_weight(2) == 1 / 16
        assert series_weight(3) == 1 / 48

    def test_weight_past_two_to_the_1023(self):
        # 2.0**N overflowed from N = 1 024 on; below the subnormal range
        # the weight is the quotient it always was
        for N in range(1, 1014):
            assert series_weight(N) == 1.0 / (2.0 * N * 2.0**N)
        for N in (1024, 1100):
            assert math.isfinite(series_weight(N)) and series_weight(N) >= 0.0

    def test_weight_sum_identity(self):
        # sum over N of weight(N) * 2N = sum 2^-N = 1
        total = sum(series_weight(N) * 2 * N for N in range(1, 200))
        assert total == pytest.approx(1.0, abs=1e-15)

    def test_tail_closed_form(self):
        for L in (1, 2, 3, 5, 10, 20):
            direct = sum(series_weight(N) for N in range(L + 1, L + 400))
            assert series_tail(L) == pytest.approx(direct, abs=1e-15)

    def test_tail_after_two_levels_bound(self):
        assert series_tail(2) < 2.0**-3

    def test_tail_never_below_exact(self, monkeypatch):
        # the closed form (log 2 - sum_{N <= L} 2^-N / N) / 2 read
        # 0.03407359027997264 at L = 2, 1.7 ulps below the exact
        # 0.0340735902799726547, and 1.1e-16 from L = 50 on, against an
        # exact 8.5e-18 there
        with localcontext() as ctx:
            ctx.prec = 60
            ln2 = Decimal(2).ln()

        def exact_tail(K):
            # sum_{N > K} 1 / (2 N 2^N) to 50 digits
            with localcontext() as ctx:
                ctx.prec = 60
                head = sum(Decimal(1) / (N * Decimal(2) ** N) for N in range(1, K + 1))
                return Fraction((ln2 - head) / 2)

        def gds(family, top):
            return gk.validate_gds([0, 1], [[0.0, top]], family, [0.5, 0.5])

        pairs = {
            "T": (gds(gk.T_FAMILY, 3.0), gds(gk.TB_FAMILY, 0.5)),
            "id": (gds(gk.ID_FAMILY, 2.5), gds(gk.ID_FAMILY, 0.3)),
            "B": (gds(gk.B_FAMILY, 4.25), gds(gk.TB_FAMILY, 0.1)),
            "mixed": (gds(gk.T_FAMILY, 0.7), gds(gk.B_FAMILY, 3.3)),
        }
        from gdskit import staircase

        # the tail alone: the levels' brackets are not needed
        monkeypatch.setattr(staircase, "level_hausdorff", lambda a, b, c: gk.Bracket(0.0, 0.0))
        for kind, (X, Y) in pairs.items():
            mx, my = (Fraction(float(np.max(np.abs(Z.generators)))) for Z in (X, Y))

            def cap(N):
                # the caps in exact arithmetic: constant from N = 5 on
                if kind == "T":
                    return Fraction(1)
                if kind == "B":
                    return 2 * max(min(N, mx), min(N, my))
                return 2 * (min(N, mx) + min(N, my))

            for L in range(1, 61):
                K = max(L, 5)
                exact = sum(cap(N) / (2 * N * 2**N) for N in range(L + 1, K + 1)) + cap(K) * exact_tail(K)
                tail = staircase_distance(X, Y, L, CFG).tail_bound
                assert exact <= Fraction(tail) <= exact * (1 + Fraction(1, 2**47)), (kind, L)
                if kind == "T":
                    assert tail == series_tail(L)


class TestStaircaseLevel:
    def test_two_generator_level_one(self):
        gens = np.array([[0.0, 1.0, 2.0], [2.0, 0.0, 1.0]])
        X = gk.validate_gds(range(3), gens, gk.TB_FAMILY, [0.25, 0.25, 0.5])
        level = staircase_level(X, 1, SearchConfig(level_budget=16))
        assert level.exhaustive
        assert len(level.members) == 2

    def test_level_at_or_above_generator_count(self):
        rng = np.random.default_rng(3)
        X = dyadic_gds(rng, max_gens=2)
        level = staircase_level(X, 5, SearchConfig(level_budget=16))
        assert level.exhaustive
        assert len(level.members) == 1

    def test_budget_limited(self):
        rng = np.random.default_rng(5)
        gens = np.vstack([np.arange(5.0) + rng.uniform(-0.2, 0.2, 5) for _ in range(12)])
        X = gk.validate_gds(range(5), gens, gk.TB_FAMILY, np.full(5, 0.2))
        level = staircase_level(X, 3, SearchConfig(level_budget=7))
        assert not level.exhaustive
        assert len(level.members) == 7

    def test_series_levels_are_the_configured_ones(self, monkeypatch):
        # a level built from a config is the one staircase_distance
        # compares, sampled levels included: one budget, one seed rule
        from gdskit import staircase

        rng = np.random.default_rng(11)
        gens = np.vstack([np.arange(5.0) + rng.uniform(-0.2, 0.2, 5) for _ in range(12)])
        X = gk.validate_gds(range(5), gens, gk.TB_FAMILY, np.full(5, 0.2))
        cfg = SearchConfig(level_budget=2, seed=4)
        seen = []
        monkeypatch.setattr(staircase, "level_hausdorff", lambda a, b, c: seen.append(a) or gk.Bracket(0.0, 0.0))
        staircase_distance(X, X, 2, cfg)
        assert [level.N for level in seen] == [1, 2]
        for level in seen:
            built = staircase_level(X, level.N, cfg)
            assert not built.exhaustive and len(built.members) == 2
            assert [m.generators.tobytes() for m in level.members] == [m.generators.tobytes() for m in built.members]

    def test_members_are_bounded(self):
        rng = np.random.default_rng(7)
        X = dyadic_gds(rng, max_gens=3, span=6)
        for N in (1, 2):
            level = staircase_level(X, N, SearchConfig(level_budget=16))
            for member in level.members:
                assert member.n_generators <= N
                assert np.all(np.abs(member.generators) <= N)


class TestLevelHausdorff:
    def test_identical_levels(self):
        X = two_point(1.0)
        a = staircase_level(X, 1, CFG)
        br = level_hausdorff(a, a, CFG)
        assert br.lower == 0.0 and br.upper == 0.0

    def test_clip_identifies_two_point_pair_at_level_one(self):
        a = staircase_level(two_point(1.0), 1, CFG)
        b = staircase_level(two_point(2.0), 1, CFG)
        br = level_hausdorff(a, b, CFG)
        assert br.upper == 0.0  # b_1 clips (0, 2) to (0, 1)

    def test_sampled_levels_are_estimates(self):
        rng = np.random.default_rng(9)
        gens = np.vstack([np.arange(4.0) * (1 + 0.1 * i) for i in range(9)])
        X = gk.validate_gds(range(4), gens, gk.TB_FAMILY, np.full(4, 0.25))
        full = staircase_level(X, 2, SearchConfig(level_budget=1000))
        sampled = staircase_level(X, 2, SearchConfig(level_budget=3))
        assert full.exhaustive and not sampled.exhaustive
        br = level_hausdorff(full, sampled, CFG)
        assert br.estimate
        assert br.lower == 0.0

    def test_level_mismatch(self):
        X = two_point(1.0)
        with pytest.raises(LevelMismatch):
            level_hausdorff(staircase_level(X, 1), staircase_level(X, 2), CFG)


class TestStaircaseDistance:
    def test_self_interval_contains_zero(self):
        X = two_point(1.0)
        sb = staircase_distance(X, X, 2, CFG)
        lo, hi = sb.interval
        assert lo == 0.0
        assert hi - lo <= sb.tail_bound + 1e-15

    def test_symmetry(self):
        X, Y = two_point(1.0), two_point(2.0)
        a = staircase_distance(X, Y, 2, CFG)
        b = staircase_distance(Y, X, 2, CFG)
        assert a.partial == b.partial and a.lower_partial == b.lower_partial

    def test_transfer_bound_small_pairs(self):
        rng = np.random.default_rng(11)
        for _ in range(6):
            X = dyadic_gds(rng, max_n=3, max_gens=2, span=2)
            Y = dyadic_gds(rng, max_n=3, max_gens=2, span=2)
            sb = staircase_distance(X, Y, 2, CFG)
            dc = gk.dconc_bracket(X, Y, CFG)
            assert sb.partial + sb.tail_bound <= dc.upper + sb.tail_bound + 1e-9

    def test_identity_family_tail_uses_magnitudes(self):
        X = gk.validate_gds([0, 1], [[0.0, 0.5]], gk.ID_FAMILY, [0.5, 0.5])
        sb = staircase_distance(X, X, 1, CFG)
        assert sb.tail_bound > 0
        # per-level cap is 2 * (mx + my) <= 2 at level N with magnitudes 0.5
        assert sb.tail_bound <= sum(series_weight(N) * 2.0 for N in range(2, 200)) + 1e-12


class TestMeasurementCoherence:
    def test_measurements_of_measurements(self):
        # level-M members of level-N members coincide with direct level-M
        # members, up to isomorphism (exhaustive, exact arithmetic)
        gens = np.array(
            [[0.0, 1.0, 2.0], [2.0, 0.0, 1.0], [0.5, 1.5, 0.0]]
        )
        X = gk.validate_gds(range(3), gens, gk.TB_FAMILY, [0.25, 0.25, 0.5])
        for M, N in ((1, 2), (1, 3), (2, 3)):
            direct = {
                canonical_form(m)
                for m in enumerate_measurements(X, M, float(M), 1000).members
            }
            via_n = set()
            for member in enumerate_measurements(X, N, float(N), 1000).members:
                for m2 in enumerate_measurements(member, M, float(M), 1000).members:
                    via_n.add(canonical_form(m2))
            assert direct == via_n


class TestLimitFormulaDeskScale:
    def test_od_bound_through_measurement_sets(self):
        # For a sequence X_n converging to X (certified by the coupling
        # upper bound), once the level-N measurement sets of X sit
        # within eps of those of X_n in box distance, the observable
        # diameter transfers with a 5 eps allowance. N is chosen from
        # the extraction estimate r / (1 - kappa).
        import math

        rng = np.random.default_rng(17)
        base = dyadic_gds(rng, max_n=3, max_gens=2, span=2)
        for step in (1, 2, 3):
            noise = rng.integers(-1, 2, size=base.generators.shape) / (64.0 * 2**step)
            Xn = gk.FiniteGDS(base.point_ids, base.generators + noise, base.family, base.mu)
            delta = gk.dconc_bracket(base, Xn, CFG).upper
            for kappa in (0.1, 0.25):
                for eps in (max(0.05, 2 * delta), 0.2):
                    if kappa + 2 * eps >= 1:
                        continue
                    r = gk.observable_diameter(Xn, kappa) + 5 * eps
                    N = math.ceil(r / (1 - (kappa + eps)) + eps)
                    a = staircase_level(base, N, SearchConfig(level_budget=64))
                    b = staircase_level(Xn, N, SearchConfig(level_budget=64))
                    assert a.exhaustive and b.exhaustive
                    br = level_hausdorff(a, b, CFG)
                    if br.upper <= eps:  # hypothesis numerically certified
                        lhs = gk.observable_diameter(base, kappa + 2 * eps)
                        rhs = gk.observable_diameter(Xn, kappa) + 5 * eps
                        assert lhs < rhs + 1e-12


class TestRho:
    # the paper's pyramid metric rho is estimated by the staircase series
    def test_rho_upper_vs_dconc_transfer(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            X = dyadic_gds(rng, max_n=3, max_gens=2, span=2)
            Y = dyadic_gds(rng, max_n=3, max_gens=2, span=2)
            sb = staircase_distance(X, Y, 2, CFG)
            dc = gk.dconc_bracket(X, Y, CFG)
            assert sb.partial <= dc.upper + sb.tail_bound + 1e-9
