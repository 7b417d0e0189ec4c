import warnings

import numpy as np
import pytest

import gdskit as gk
from gdskit.errors import EmptyG, InvalidSpec
from gdskit.transforms import (
    MeasurementSpec,
    check_domination,
    enumerate_measurements,
    measurement,
    quotient,
    rounded,
)
from oracles import dyadic_gds


def two_point(n, family=gk.TB_FAMILY):
    return gk.validate_gds([0, 1], [[0.0, float(n)]], family, [0.5, 0.5])


class TestQuotient:
    def test_by_all_generators_is_identity(self):
        rng = np.random.default_rng(3)
        X = dyadic_gds(rng)
        Y, qmap = quotient(X, X.generators)
        assert Y.n_points == X.n_points
        assert np.array_equal(Y.generators, X.generators)
        assert np.array_equal(qmap, np.arange(X.n_points))

    def test_constant_row_collapses(self):
        rng = np.random.default_rng(5)
        X = dyadic_gds(rng)
        Y, qmap = quotient(X, np.ones((1, X.n_points)))
        assert Y.n_points == 1
        assert Y.masses.tolist() == [1.0]
        assert np.all(qmap == 0)

    def test_clipped_feature(self):
        X = two_point(3.0)
        Y, _ = quotient(X, gk.ClipMap.bound(1.0).apply(X.generators[0])[None, :])
        assert Y.generators.tolist() == [[0.0, 1.0]]

    def test_mass_pushforward_exact(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            X = dyadic_gds(rng)
            rows = X.generators[:1].round(0)  # coarse rounding forces merges
            try:
                Y, qmap = quotient(X, rows)
            except Exception:
                continue
            for cls in range(Y.n_points):
                assert float(X.masses[qmap == cls].sum()) == float(Y.masses[cls])

    def test_quotient_map_is_domination(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            X = dyadic_gds(rng, max_n=4, max_gens=2)
            p = gk.ClipMap.bound(1.0)
            rows = np.vstack([p.apply(r)[None, :] for r in X.generators])
            if np.unique(rows, axis=1).shape[1] < 2:
                continue
            Y, _ = quotient(X, rows)
            assert check_domination(X, Y).status == "Dominates"

    def test_empty_rows_rejected(self):
        with pytest.raises(EmptyG):
            quotient(two_point(1.0), np.zeros((0, 2)))


class TestMeasurement:
    def test_inactive_clip_is_identity(self):
        rng = np.random.default_rng(11)
        X = dyadic_gds(rng)
        big = float(np.abs(X.generators).max()) + 1.0
        spec = MeasurementSpec(tuple(range(X.n_generators)), big)
        Y = measurement(X, spec)
        assert np.array_equal(Y.generators, X.generators)
        assert np.array_equal(Y.masses, X.masses)

    def test_clip_compresses(self):
        Y = measurement(two_point(3.0), MeasurementSpec((0,), 1.0))
        assert Y.generators.tolist() == [[0.0, 1.0]]
        assert Y.diameter == 1.0

    def test_constant_after_clip_collapses(self):
        X = gk.validate_gds([0, 1], [[2.0, 3.0]], gk.TB_FAMILY, [0.5, 0.5])
        Y = measurement(X, MeasurementSpec((0,), 1.0))
        assert Y.n_points == 1

    def test_clip_idempotence(self):
        # measuring at R then S >= R equals measuring at R, bit for bit
        rng = np.random.default_rng(13)
        for _ in range(20):
            X = dyadic_gds(rng)
            spec_r = MeasurementSpec(tuple(range(X.n_generators)), 1.0)
            once = measurement(X, spec_r)
            spec_s = MeasurementSpec(tuple(range(once.n_generators)), 2.5)
            twice = measurement(once, spec_s)
            assert np.array_equal(once.generators, twice.generators)
            assert np.array_equal(once.masses, twice.masses)

    def test_bad_spec(self):
        with pytest.raises(InvalidSpec):
            MeasurementSpec((), 1.0)
        with pytest.raises(InvalidSpec):
            MeasurementSpec((0, 0), 1.0)
        with pytest.raises(InvalidSpec):
            measurement(two_point(1.0), MeasurementSpec((5,), 1.0))


class TestEnumerateMeasurements:
    def _three_gen(self):
        gens = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 2.0], [0.0, 2.0, 1.0]])
        return gk.validate_gds(range(3), gens, gk.TB_FAMILY, [0.25, 0.25, 0.5])

    def test_exhaustive_singletons(self):
        sample = enumerate_measurements(self._three_gen(), 1, 2.0, budget=10)
        assert sample.exhaustive
        assert len(sample.members) == 3

    def test_full_subset_when_n_large(self):
        X = self._three_gen()
        sample = enumerate_measurements(X, 5, 2.0, budget=10)
        assert sample.exhaustive
        assert len(sample.members) == 1
        expected = measurement(X, MeasurementSpec((0, 1, 2), 2.0))
        assert np.array_equal(sample.members[0].generators, expected.generators)

    def test_budget_limited_sampling_deterministic(self):
        rng = np.random.default_rng(17)
        gens = np.vstack([np.sort(rng.uniform(-2, 2, 6)) for _ in range(20)])
        gens[:, -1] = gens[:, -1] + np.arange(20) * 0.01  # keep points distinct
        X = gk.validate_gds(range(6), gens, gk.TB_FAMILY, np.full(6, 1 / 6))
        a = enumerate_measurements(X, 3, 3.0, budget=25, seed=99)
        b = enumerate_measurements(X, 3, 3.0, budget=25, seed=99)
        assert not a.exhaustive
        assert len(a.members) == 25
        assert a.specs == b.specs
        c = enumerate_measurements(X, 3, 3.0, budget=25, seed=100)
        assert a.specs != c.specs


class TestCheckDomination:
    def test_quotient_dominates(self):
        X = two_point(3.0)
        Y = measurement(X, MeasurementSpec((0,), 1.0))
        verdict = check_domination(X, Y)
        assert verdict.status == "Dominates"
        assert verdict.witness_map == (0, 1)

    def test_one_point_constants_dominated(self):
        rng = np.random.default_rng(19)
        X = dyadic_gds(rng, family=gk.TB_FAMILY)
        Y = gk.validate_gds(["c"], [[1.5]], gk.TB_FAMILY, [1.0])
        assert check_domination(X, Y).status == "Dominates"

    def test_spread_cannot_grow(self):
        X = two_point(1.0)
        Y = two_point(2.0)
        verdict = check_domination(X, Y)
        assert verdict.status == "NotDominated"
        assert verdict.certificate is not None

    def test_budget_exhaustion_unknown(self):
        rng = np.random.default_rng(23)
        X = dyadic_gds(rng, max_n=6, max_gens=2)
        Y = dyadic_gds(rng, max_n=4, max_gens=2)
        # force uniform masses so many maps are mass-compatible
        Xu = gk.FiniteGDS(X.point_ids, X.generators, X.family, gk.ProbVector.uniform(X.n_points))
        gens = np.vstack([Xu.generators[0][:4][None, :], (Xu.generators[0][:4] * 0.5)[None, :]])
        try:
            Yu = gk.validate_gds(range(4), gens, gk.TB_FAMILY, [0.25] * 4)
        except Exception:
            Yu = two_point(1.0)
        verdict = check_domination(Xu, Yu, budget=1)
        assert verdict.status in ("Unknown", "Dominates")
        if verdict.status == "Unknown":
            assert "budget" in verdict.certificate

    def test_shiftclip_quotient_dominated_above_16_points(self):
        # the clip quotient of a 17-point space: the candidate grid of
        # earlier versions missed the orbit member and said Unknown
        g = np.arange(17.0)
        X = gk.validate_gds(range(17), [g], gk.TB_FAMILY, (np.arange(17) + 1) / 153)
        Y, qmap = quotient(X, [gk.ClipMap(0, 0.25, 0.5).apply(g)])
        verdict = check_domination(X, Y, budget=200)
        assert verdict.status == "Dominates"
        assert verdict.witness_map == tuple(qmap.tolist())

    def test_dominates_stops_at_its_witness(self):
        # the quotient map is the first mass-compatible map: one step per point
        g = np.arange(12.0)
        X = gk.validate_gds(range(12), [g], gk.B_FAMILY, np.full(12, 1 / 12))
        Y, qmap = quotient(X, [gk.ClipMap.bound(4.0).apply(g)])
        verdict = check_domination(X, Y, budget=12)
        assert verdict.status == "Dominates"
        assert verdict.witness_map == tuple(qmap.tolist())
        assert verdict.steps == 12

    def test_budget_bounds_the_search_steps(self):
        # no subset of sixteenths weighs 17/32, so the search can only
        # run out; it stops after exactly `budget` partial maps
        X = gk.validate_gds(range(16), [np.arange(16.0)], gk.TB_FAMILY, np.full(16, 1 / 16))
        Y = gk.validate_gds(range(2), [[0.0, 1.0]], gk.TB_FAMILY, [17 / 32, 15 / 32])
        for budget in (0, 1, 1000):
            verdict = check_domination(X, Y, budget=budget)
            assert verdict.status == "Unknown"
            assert verdict.steps == budget
            assert f"budget of {budget} search steps" in verdict.certificate
        assert check_domination(X, Y, budget=10**6).status == "NotDominated"
        # the search stops at steps == budget, which a negative budget
        # never meets: -3 searched without a limit
        with pytest.raises(InvalidSpec):
            check_domination(X, Y, budget=-3)

    def test_lip1_verdicts_are_noted(self):
        # a lip1 Dominates names its witness map, a NotDominated its
        # best candidate and how far that candidate misses
        X = gk.validate_gds([0, 1], [[0.0, 1.0]], gk.FamilyTag("lip1"), [0.5, 0.5])
        Y = gk.validate_gds([0, 1], [[0.0, 0.5]], gk.FamilyTag("lip1"), [0.5, 0.5])
        verdict = check_domination(X, Y)
        assert verdict.status == "Dominates"
        assert verdict.witness_map == (0, 1)
        verdict = check_domination(Y, X)
        assert verdict.status == "NotDominated"
        assert "best candidate (0, 1)" in verdict.certificate

    def test_lip1_miss_is_unknown(self):
        # doubling the spread of g is no 1-Lipschitz map, but a search cut
        # short by its budget proves nothing: the miss is Unknown, with the
        # best candidate seen so far recorded
        g = np.arange(4.0)
        X = gk.validate_gds(range(4), [g], gk.FamilyTag("lip1"), [0.25] * 4)
        Y, _ = quotient(X, 2.0 * g[None, :])
        verdict = check_domination(X, Y, budget=10)
        assert verdict.status == "Unknown"
        assert "budget of 10 search steps" in verdict.certificate
        assert "best candidate (0, 1, 2, 3)" in verdict.certificate

    def test_lip1_miss_is_not_dominated(self):
        # |x - 2| is 1-Lipschitz, so X dominates its quotient by it ...
        g = np.arange(4.0)
        X = gk.validate_gds(range(4), [g], gk.FamilyTag("lip1"), [0.25] * 4)
        Y, _ = quotient(X, np.abs(g - 2.0)[None, :])
        assert check_domination(X, Y).status == "Dominates"
        # ... but no 1-Lipschitz map doubles the spread of g, and the
        # exact orbit search proves every candidate map a miss
        Y, _ = quotient(X, 2.0 * g[None, :])
        verdict = check_domination(X, Y)
        assert verdict.status == "NotDominated"
        assert "best candidate" in verdict.certificate

    def test_clip_quotients_are_never_rejected(self):
        # the quotient map by clipped generators is a domination, so a
        # certified B orbit search must never report NotDominated
        rng = np.random.default_rng(29)
        for _ in range(200):
            n = int(rng.integers(3, 8))
            gens = rng.normal(size=(int(rng.integers(1, 3)), n))
            X = gk.validate_gds(range(n), gens, gk.B_FAMILY, rng.dirichlet(np.ones(n)))
            R = float(rng.uniform(0.0, np.abs(gens).max()))
            Y, _ = quotient(X, gk.ClipMap.bound(R).apply(gens))
            assert check_domination(X, Y).status != "NotDominated"


class TestRounded:
    def test_rounding_merges(self):
        X = gk.validate_gds([0, 1, 2], [[0.0, 0.001, 1.0]], gk.TB_FAMILY, [0.25, 0.25, 0.5])
        Y, qmap = rounded(X, 1)
        assert Y.n_points == 2
        assert qmap.tolist() == [0, 0, 1]
        assert Y.masses.tolist() == [0.5, 0.5]

    # np.round scales by 10^decimals, so these turned finite values into
    # inf or nan, with RuntimeWarnings, and the data set was refused
    def test_large_value_survives(self):
        X = gk.validate_gds([0, 1], [[0.0, 1e300]], gk.TB_FAMILY, [0.5, 0.5])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            Y, _ = rounded(X, 10)
        assert Y.generators.tolist() == [[0.0, 1e300]]

    @pytest.mark.parametrize("decimals", [400, 10**20])
    def test_decimals_past_every_double(self, decimals):
        # 10^20 decimals do not fit np.round's C long: OverflowError
        X = gk.validate_gds([0, 1, 2], [[-5.0, 0.25, 3e-300]], gk.TB_FAMILY, [0.25, 0.25, 0.5])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.array_equal(rounded(X, decimals)[0].generators, X.generators)
            Y, qmap = rounded(X, -decimals)
        assert Y.n_points == 1
        assert qmap.tolist() == [0, 0, 0]

    def test_rounding_past_the_largest_float_rejected(self):
        # 1.7e308 to -308 decimals is 2e308, which no float holds
        X = gk.validate_gds([0, 1], [[0.0, 1.7e308]], gk.TB_FAMILY, [0.5, 0.5])
        with pytest.raises(InvalidSpec):
            rounded(X, -308)

    def test_finite_results_are_np_round(self):
        rng = np.random.default_rng(41)
        for decimals in range(-3, 6):
            gens = rng.normal(size=(2, 12)) * 10.0 ** rng.integers(-4, 5, size=(2, 1))
            gens[0] = np.arange(12)  # points stay distinct
            X = gk.validate_gds(range(12), gens, gk.TB_FAMILY, np.full(12, 1 / 12))
            Y, _ = rounded(X, decimals)
            assert np.array_equal(Y.generators, quotient(X, np.round(gens, decimals))[0].generators)
