import numpy as np
import pytest

import gdskit as gk
from gdskit.errors import InvalidKappa, NotAMetric, ValidationError
from gdskit.spaces import hamming_cube_matrix
from oracles import binomial_profile, dyadic_gds, dyadic_metric, pd_oracle, random_clip


def two_point(n, family=gk.TB_FAMILY):
    return gk.validate_gds([0, 1], [[0.0, float(n)]], family, [0.5, 0.5])


class TestObservableDiameter:
    def test_two_point_low_kappa(self):
        for n in (1.0, 2.0, 8.0):
            assert gk.observable_diameter(two_point(n), 1 / 3) == n

    def test_two_point_high_kappa(self):
        assert gk.observable_diameter(two_point(5.0), 0.6) == 0.0

    def test_cube8_kappa_01(self):
        D = hamming_cube_matrix(8, True)
        X = gk.embed_mm_space(D, gk.ProbVector.uniform(256))
        assert gk.observable_diameter(X, 0.1) == 0.5

    def test_equals_max_pd_of_pushforwards(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            X = dyadic_gds(rng)
            kappa = float(rng.integers(1, 1024)) / 1024.0
            expected = max(
                gk.partial_diameter(gk.pushforward(row, X.mu), 1 - kappa)
                for row in X.generators
            )
            assert gk.observable_diameter(X, kappa) == expected

    def test_invalid_kappa(self):
        with pytest.raises(InvalidKappa):
            gk.observable_diameter(two_point(1.0), 0.0)
        with pytest.raises(InvalidKappa):
            gk.observable_diameter(two_point(1.0), 1.0)


class TestHssPath:
    def test_two_point(self):
        D = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert gk.observable_diameter_hss(D, gk.ProbVector.uniform(2), 0.25) == 1.0

    def test_single_point(self):
        assert gk.observable_diameter_hss(np.zeros((1, 1)), gk.ProbVector.uniform(1), 0.3) == 0.0

    def test_cube8_cross_check(self):
        D = hamming_cube_matrix(8, True)
        mu = gk.ProbVector.uniform(256)
        fast = gk.observable_diameter_hss(D, mu, 0.1)
        slow = gk.observable_diameter(gk.embed_mm_space(D, mu), 0.1)
        assert fast == slow == 0.5

    def test_bit_exact_agreement_random(self):
        rng = np.random.default_rng(71)
        for _ in range(20):
            n = int(rng.integers(2, 16))
            D = dyadic_metric(rng, n)
            mu = gk.ProbVector.uniform(n)
            kappa = float(rng.uniform(0.05, 0.9))
            assert gk.observable_diameter_hss(D, mu, kappa) == gk.observable_diameter(
                gk.embed_mm_space(D, mu), kappa
            )

    def test_not_a_metric(self):
        D = np.array([[0.0, 1.0, 3.0], [1.0, 0.0, 1.0], [3.0, 1.0, 0.0]])
        with pytest.raises(NotAMetric):
            gk.observable_diameter_hss(D, gk.ProbVector.uniform(3), 0.1)

    def test_rejects_bad_weights(self):
        # weights that are no probability vector, given as a sequence
        D = np.array([[0.0, 1.0], [1.0, 0.0]])
        for weights in ([2.0, -1.0], [np.nan, 0.5], [0.3, 0.3]):
            with pytest.raises(ValidationError):
                gk.observable_diameter_hss(D, weights, 0.25)


class TestOdProfile:
    def test_two_point_profile(self):
        profile = gk.od_profile(two_point(1.0), [0.1, 0.4, 0.6])
        assert profile.values == [1.0, 1.0, 0.0]

    def test_single_point_all_zero(self):
        X = gk.validate_gds(["p"], [[2.0]], gk.TB_FAMILY, [1.0])
        profile = gk.od_profile(X, [0.1, 0.5, 0.9])
        assert profile.values == [0.0, 0.0, 0.0]

    def test_cube4_matches_window_oracle(self):
        D = hamming_cube_matrix(4, True)
        X = gk.embed_mm_space(D, gk.ProbVector.uniform(16))
        vals, masses = binomial_profile(4)
        grid = [0.05, 0.1, 0.2]
        profile = gk.od_profile(X, grid)
        expected = [pd_oracle(vals, masses, 1 - k) for k in grid]
        assert profile.values == expected
        assert all(a >= b for a, b in zip(profile.values, profile.values[1:]))

    def test_grid_validation(self):
        with pytest.raises(InvalidKappa):
            gk.od_profile(two_point(1.0), [0.4, 0.2])


class TestOdInvariants:
    def test_monotone_under_quotient(self):
        from gdskit.transforms import quotient

        rng = np.random.default_rng(19)
        for _ in range(20):
            X = dyadic_gds(rng, max_gens=3)
            keep = rng.integers(1, X.n_generators + 1)
            rows = X.generators[: int(keep)]
            p = random_clip(rng)
            Y, _ = quotient(X, np.vstack([p.apply(r)[None, :] for r in rows]))
            for kappa in (0.1, 0.3, 0.5, 0.7):
                assert gk.observable_diameter(Y, kappa) <= gk.observable_diameter(X, kappa)

    def test_composition_invariance(self):
        # adding clipped generator copies never moves the observable diameter
        rng = np.random.default_rng(29)
        for _ in range(20):
            X = dyadic_gds(rng)
            p = random_clip(rng)
            extra = np.vstack([X.generators] + [p.apply(r)[None, :] for r in X.generators])
            Y = gk.FiniteGDS(X.point_ids, extra, X.family, X.mu)
            for kappa in (0.15, 0.45, 0.8):
                assert gk.observable_diameter(Y, kappa) == gk.observable_diameter(X, kappa)

    def test_continuity_transfer_with_certified_upper(self):
        X = gk.validate_gds([0, 1], [[0.0, 1.0]], gk.TB_FAMILY, [0.5, 0.5])
        Y = gk.validate_gds([0, 1], [[0.0, 2.0]], gk.TB_FAMILY, [0.5, 0.5])
        delta = gk.dconc_bracket(X, Y).upper + 1e-9
        for kappa in (0.05, 0.2, 0.4):
            assert gk.observable_diameter(X, kappa + delta) <= gk.observable_diameter(Y, kappa) + 2 * delta
            assert gk.observable_diameter(Y, kappa + delta) <= gk.observable_diameter(X, kappa) + 2 * delta
