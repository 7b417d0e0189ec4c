import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gdskit as gk
from gdskit.core import check_metric
from gdskit.errors import (
    DimensionMismatch,
    IndistinctPoints,
    InvalidWeights,
    NotAMetric,
    ValidationError,
    ZeroWeight,
)
from oracles import binomial_profile, dyadic_gds, dyadic_metric, random_clip


class TestValidateGds:
    def test_two_point_single_generator(self):
        X = gk.validate_gds(["a", "b"], [[0.0, 1.0]], gk.TB_FAMILY, [0.5, 0.5])
        assert X.metric[0, 1] == 1.0
        assert X.diameter == 1.0

    def test_constant_generator_rejected(self):
        with pytest.raises(IndistinctPoints):
            gk.validate_gds([0, 1], [[5.0, 5.0]], gk.TB_FAMILY, [0.5, 0.5])

    def test_zero_weight_rejected(self):
        with pytest.raises(ZeroWeight):
            gk.validate_gds([0, 1, 2], [[0.0, 1.0, 2.0]], gk.TB_FAMILY, [0.5, 0.5, 0.0])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            gk.validate_gds([0, 1], [[0.0, 1.0, 2.0]], gk.TB_FAMILY, [0.5, 0.5])
        with pytest.raises(DimensionMismatch):
            gk.validate_gds([0, 1], [[0.0, 1.0]], gk.TB_FAMILY, [0.25, 0.25, 0.5])

    def test_weights_must_sum_to_one(self):
        with pytest.raises(InvalidWeights):
            gk.validate_gds([0, 1], [[0.0, 1.0]], gk.TB_FAMILY, [0.6, 0.6])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        # NaN passes every comparison test and inf minus inf is NaN, so
        # each kind of value gets its own finiteness check
        with pytest.raises(InvalidWeights):
            gk.ProbVector([bad, 0.5, 0.5])
        with pytest.raises(ValidationError):
            gk.validate_gds([0, 1, 2], [[0.0, 1.0, 2.0], [0.0, bad, 1.0]], gk.TB_FAMILY, [0.25] * 2 + [0.5])
        with pytest.raises(ValidationError):
            gk.DiscreteMeasureR([0.0, bad], [0.5, 0.5])
        with pytest.raises(InvalidWeights):
            gk.DiscreteMeasureR([0.0, 1.0, 2.0], [bad, 0.5, 0.5])
        D = np.array([[0.0, bad], [bad, 0.0]])
        with pytest.raises(ValidationError, match=r"non-finite distance at \(0, 1\)"):
            check_metric(D)
        with pytest.raises(ValidationError):
            gk.embed_mm_space(D, [0.5, 0.5])


class TestInducedMetric:
    def test_max_over_rows(self):
        X = gk.validate_gds([0, 1], [[0.0, 1.0], [0.0, 0.5]], gk.TB_FAMILY, [0.5, 0.5])
        assert X.metric[0, 1] == 1.0

    def test_two_point_separation(self):
        for n in (1.0, 2.0, 8.0):
            X = gk.validate_gds([0, 1], [[0.0, n]], gk.T_FAMILY, [0.5, 0.5])
            assert X.metric[0, 1] == n

    def test_metric_axioms_on_random_instances(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            X = dyadic_gds(rng)
            d = X.metric
            assert np.array_equal(d, d.T)
            assert np.all(np.diag(d) == 0.0)
            n = X.n_points
            for k in range(n):
                assert np.all(d <= d[:, k][:, None] + d[k, :][None, :])

    def test_family_composition_invariance(self):
        # adding clipped copies of the generators never changes the metric
        rng = np.random.default_rng(11)
        for _ in range(20):
            X = dyadic_gds(rng)
            p = random_clip(rng)
            extra = np.vstack([X.generators] + [p.apply(row)[None, :] for row in X.generators])
            Y = gk.FiniteGDS(X.point_ids, extra, X.family, X.mu)
            assert np.array_equal(gk.induced_metric(Y), X.metric)

    def test_matches_broadcast_maximum_bit_for_bit(self):
        rng = np.random.default_rng(17)
        shapes = [(1, 1), (1, 5), (6, 1)] + [tuple(rng.integers(1, 25, 2)) for _ in range(60)]
        for g, n in shapes:
            gens = rng.normal(size=(g, n))
            gens[rng.random((g, n)) < 0.2] = -0.0
            gens[rng.random((g, n)) < 0.2] = 0.0
            X = gk.FiniteGDS(tuple(range(n)), gens, gk.TB_FAMILY, gk.ProbVector.uniform(n))
            expected = np.max(np.abs(gens[:, :, None] - gens[:, None, :]), axis=0)
            d = gk.induced_metric(X)
            assert d.dtype == expected.dtype
            assert np.array_equal(d, expected)
            assert np.array_equal(np.signbit(d), np.signbit(expected))

    def test_memory_is_quadratic(self):
        # an embedded space has as many generators as points, so a (g, n, n)
        # intermediate would be cubic in n
        n = 200
        gens = np.random.default_rng(19).normal(size=(n, n))
        X = gk.FiniteGDS(tuple(range(n)), gens, gk.TB_FAMILY, gk.ProbVector.uniform(n))
        tracemalloc.start()
        try:
            gk.induced_metric(X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * n * n * 8

    def test_clipped_generators_alone_only_shrink(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            X = dyadic_gds(rng)
            p = random_clip(rng)
            clipped = np.vstack([p.apply(row)[None, :] for row in X.generators])
            Y = gk.FiniteGDS(X.point_ids, clipped, X.family, X.mu)
            assert np.all(gk.induced_metric(Y) <= X.metric)


class TestEmbedMmSpace:
    def test_two_point(self):
        X = gk.embed_mm_space([[0.0, 1.0], [1.0, 0.0]], [0.5, 0.5], gk.TB_FAMILY)
        assert X.n_points == 2
        assert X.diameter == 1.0

    def test_hamming_cube_k3(self):
        from gdskit.spaces import hamming_cube_matrix

        D = hamming_cube_matrix(3, True)
        X = gk.embed_mm_space(D, gk.ProbVector.uniform(8))
        assert X.n_points == 8
        assert X.diameter == 1.0

    def test_triangle_violation(self):
        D = [[0, 1, 3], [1, 0, 1], [3, 1, 0]]
        with pytest.raises(NotAMetric) as err:
            gk.embed_mm_space(D, gk.ProbVector.uniform(3))
        assert err.value.indices is not None

    def test_round_trip_identity(self):
        rng = np.random.default_rng(3)
        for n in (2, 5, 9):
            D = dyadic_metric(rng, n)
            X = gk.embed_mm_space(D, gk.ProbVector.uniform(n))
            assert np.array_equal(gk.induced_metric(X), D)

    def test_metric_is_the_generators(self, monkeypatch):
        from gdskit import core

        def no_induced_metric(X):
            raise AssertionError("induced_metric called")

        monkeypatch.setattr(core, "induced_metric", no_induced_metric)
        for text in ("two_point:1", "hamming_cube:4:by_k", "path:30:0.01", "random_cloud:40:3:l2:2"):
            X = gk.generate_space(gk.SpaceRecipe.parse(text))
            assert np.shares_memory(X.metric, X.generators), text
            assert not X.metric.flags.writeable

    def test_keeps_its_own_copy(self):
        D = np.array([[0.0, 0.5, 1.0], [0.5, 0.0, 0.5], [1.0, 0.5, 0.0]])
        X = gk.embed_mm_space(D, gk.ProbVector.uniform(3))
        D[0, 2] = D[2, 0] = 7.0
        assert X.metric[0, 2] == 1.0

    def test_symmetric_within_tol_gets_induced_metric(self):
        D = np.array([[0.0, 1.0, 2.0], [1.0 + 1e-12, 0.0, 1.0], [2.0, 1.0, 1e-12]])
        X = gk.embed_mm_space(D, gk.ProbVector.uniform(3))
        assert not np.shares_memory(X.metric, X.generators)
        assert np.array_equal(X.metric, gk.induced_metric(X))

    def test_memory_beyond_input(self):
        n = 320
        pts = np.random.default_rng(5).normal(size=(n, 4))
        D = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
        mu = gk.ProbVector.uniform(n)
        tracemalloc.start()
        try:
            X = gk.embed_mm_space(D, mu)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(X.metric, D)
        # the read-only copy (n^2) plus at most check_metric's scratch;
        # an induced metric built beside the copy would pass 3 n^2
        assert peak <= 1.5 * 8 * n * n

    def test_asymmetric_rejected(self):
        with pytest.raises(NotAMetric):
            gk.embed_mm_space([[0.0, 1.0], [2.0, 0.0]], [0.5, 0.5])

    def test_zero_off_diagonal_rejected(self):
        with pytest.raises(NotAMetric):
            gk.embed_mm_space([[0.0, 0.0], [0.0, 0.0]], [0.5, 0.5])


class TestPushforward:
    def test_simple(self):
        mu = gk.pushforward([0.0, 1.0], gk.ProbVector.uniform(2))
        assert mu.atoms == [(0.0, 0.5), (1.0, 0.5)]

    def test_mass_merging(self):
        mu = gk.pushforward([1.0, 1.0, 2.0], gk.ProbVector(np.array([0.25, 0.25, 0.5])))
        assert mu.atoms == [(1.0, 0.5), (2.0, 0.5)]

    def test_cube_row_is_binomial(self):
        from gdskit.spaces import hamming_cube_matrix

        D = hamming_cube_matrix(8, True)
        mu = gk.pushforward(D[0], gk.ProbVector.uniform(256))
        vals, masses = binomial_profile(8)
        assert np.array_equal(mu.values, vals)
        assert np.array_equal(mu.masses, masses)

    @given(st.integers(2, 9), st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_masses_always_sum_to_one(self, n, seed):
        rng = np.random.default_rng(seed)
        values = rng.integers(-16, 17, size=n) / 4.0
        from oracles import dyadic_masses

        mu = gk.pushforward(values, gk.ProbVector(dyadic_masses(rng, n)))
        assert abs(float(mu.masses.sum()) - 1.0) <= 1e-12


class TestFamilyTag:
    def test_parse_round_trip(self):
        for text in ("id", "T", "B", "TB", "lip1:40"):
            assert str(gk.FamilyTag.parse(text)) == text

    def test_lip1_needs_budget(self):
        with pytest.raises(Exception):
            gk.FamilyTag("lip1")

    def test_membership_flags(self):
        assert gk.TB_FAMILY.contains_translations
        assert gk.TB_FAMILY.contains_clips
        assert not gk.B_FAMILY.contains_translations
        assert not gk.ID_FAMILY.contains_clips
