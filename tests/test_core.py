import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gdskit as gk
from gdskit.core import METRIC_TOL, check_metric, point_classes
from gdskit.errors import (
    DimensionMismatch,
    IndistinctPoints,
    InvalidWeights,
    NotAMetric,
    ValidationError,
    ZeroWeight,
)
from gdskit.serialize import gds_from_obj, gds_to_obj, serialize_gds
from gdskit.transforms import quotient
from oracles import (
    binomial_profile,
    check_metric_reference,
    dyadic_gds,
    dyadic_metric,
    first_equal_pair_oracle,
    point_classes_oracle,
    random_clip,
)


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

    @pytest.mark.parametrize("masses", [[0.5, np.nan], [0.5, np.inf], [1.0, 0.0], [0.5, -0.5], [0.6, 0.6]])
    def test_atom_masses_checked_as_a_prob_vector(self, masses):
        # a measure's masses fail exactly as the same weights do
        with pytest.raises(ValidationError) as want:
            gk.ProbVector(masses)
        with pytest.raises(type(want.value), match=f"^{re.escape(str(want.value))}$"):
            gk.DiscreteMeasureR([0.0, 1.0], masses)

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


def _grouping_cases(rng, count):
    """Feature matrices of 1-14 points: small-integer ties, signed zeros,
    normal draws with one column copied, and distance rows of points with
    repeats."""
    for t in range(count):
        n, g = int(rng.integers(1, 15)), int(rng.integers(1, 5))
        if t % 4 == 0:
            yield rng.integers(0, 3, size=(g, n)).astype(float)
        elif t % 4 == 1:
            yield rng.choice([0.0, -0.0, 0.5, 1.0], size=(g, n))
        elif t % 4 == 2:
            G = rng.normal(size=(g, n))
            G[:, rng.integers(n)] = G[:, rng.integers(n)]
            yield G
        else:
            pts = rng.integers(0, 4, size=(n, 2)).astype(float)
            yield np.abs(pts[:, None, :] - pts[None, :, :]).max(axis=2)


class TestPointClasses:
    def test_matches_oracles(self):
        # the one grouping behind validate_gds's separation check and
        # quotient, against a pair scan and a dictionary of columns
        rng = np.random.default_rng(17)
        for G in _grouping_cases(rng, 1200):
            n = G.shape[1]
            classes, firsts = point_classes_oracle(G)
            got_classes, got_firsts = point_classes(G)
            assert (got_classes.tolist(), got_firsts.tolist()) == (classes, firsts)
            ids, w = [f"p{i}" for i in range(n)], np.full(n, 1.0 / n)
            pair = first_equal_pair_oracle(G)
            if pair is None:
                gk.validate_gds(ids, G, gk.TB_FAMILY, w)
            else:
                with pytest.raises(IndistinctPoints) as err:
                    gk.validate_gds(ids, G, gk.TB_FAMILY, w)
                i, j = pair
                assert str(err.value) == f"points {ids[i]!r} and {ids[j]!r} agree on every generator"
            X = gk.FiniteGDS(ids, np.vstack([np.arange(n), G]), gk.TB_FAMILY, gk.ProbVector(w))
            Y, qmap = quotient(X, G)
            assert qmap.tolist() == classes
            assert Y.point_ids == tuple(ids[i] for i in firsts)
            assert np.array_equal(Y.masses, np.bincount(classes, weights=w))
            assert np.array_equal(Y.generators, G[:, firsts])
            assert not np.signbit(Y.generators[Y.generators == 0]).any()

    def test_4096_points_without_the_induced_metric(self, tmp_path, monkeypatch, capsys):
        from gdskit import core
        from gdskit.cli import main
        from gdskit.obsdiam import observable_diameter

        def no_induced_metric(X):
            raise AssertionError("induced_metric called")

        # every point of a 16^3 grid: the n-by-n metric would be 128 MB
        perm = np.random.default_rng(29).permutation(4096)
        gens = np.indices((16, 16, 16)).reshape(3, -1)[:, perm] / 4.0
        path = str(tmp_path / "grid.json")
        monkeypatch.setattr(core, "induced_metric", no_induced_metric)
        X = gk.validate_gds(range(4096), gens, gk.TB_FAMILY, np.full(4096, 1 / 4096))
        assert X.diameter == 3.75
        Y, _ = quotient(X, gens[:2])
        assert Y.n_points == 256 and np.array_equal(Y.masses, np.full(256, 1 / 256))
        serialize_gds(X, path)
        assert main(["odiam", path]) == 0
        assert capsys.readouterr().out.splitlines()[1] == f"0.1,{observable_diameter(X, 0.1)!r}"

    def test_diameter_is_the_largest_induced_distance(self):
        rng = np.random.default_rng(23)
        spaces = [dyadic_gds(rng, max_n=9) for _ in range(10)]
        for n in (1, 2, 7, 30):
            gens = rng.normal(size=(3, n)) * 10.0 ** rng.integers(-3, 4, size=(3, 1))
            gens[2, 0] = -0.0
            spaces.append(gk.validate_gds(range(n), gens, gk.TB_FAMILY, np.full(n, 1.0 / n)))
        for text in ("two_point:1", "hamming_cube:4:by_k", "path:30:0.01", "random_cloud:40:3:l2:2"):
            spaces.append(gk.generate_space(gk.SpaceRecipe.parse(text)))
        pts = rng.normal(size=(25, 3))
        D = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
        spaces.append(gk.embed_mm_space(D, gk.ProbVector.uniform(25)))
        D[3, 7] += 1e-12  # symmetric only within tol: validate_gds's path
        spaces.append(gk.embed_mm_space(D, gk.ProbVector.uniform(25)))
        assert not np.shares_memory(spaces[-1].metric, spaces[-1].generators)
        for X in spaces:
            assert X.diameter.hex() == float(gk.induced_metric(X).max()).hex()


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
        assert X.generators[0, 2] == 1.0

    def test_shares_an_owned_read_only_matrix(self):
        D = np.array([[0.0, 0.5, 1.0], [0.5, 0.0, 0.5], [1.0, 0.5, 0.0]])
        D.setflags(write=False)
        X = gk.embed_mm_space(D, gk.ProbVector.uniform(3))
        assert X.generators is D and X.metric is D

    def test_copies_read_only_views_and_other_dtypes(self):
        # a read-only view can still change through its writable base
        base = np.array([[0.0, 0.5, 1.0], [0.5, 0.0, 0.5], [1.0, 0.5, 0.0]])
        view = base[:]
        view.setflags(write=False)
        single = base.astype(np.float32)
        single.setflags(write=False)
        for D in (view, single):
            X = gk.embed_mm_space(D, gk.ProbVector.uniform(3))
            assert not np.shares_memory(X.generators, base)
            assert not np.shares_memory(X.generators, single)
        base[0, 2] = base[2, 0] = 7.0
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
        # the read-only copy (n^2) plus check_metric's block scratch; an
        # induced metric built beside the copy would pass 2 n^2
        assert peak <= 1.25 * 8 * n * n

    def test_asymmetric_rejected(self):
        with pytest.raises(NotAMetric):
            gk.embed_mm_space([[0.0, 1.0], [2.0, 0.0]], [0.5, 0.5])

    def test_zero_off_diagonal_rejected(self):
        with pytest.raises(NotAMetric):
            gk.embed_mm_space([[0.0, 0.0], [0.0, 0.0]], [0.5, 0.5])


def _metric_cases(rng, n):
    """Valid metrics and matrices that break one axiom, or several."""
    tol = METRIC_TOL
    pts = rng.normal(size=(n, 3))
    # exactly symmetric, with rounding-level slack in the triangles
    valid = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
    noise = rng.uniform(-tol / 4, tol / 4, size=(n, n))
    np.fill_diagonal(noise, 0.0)
    cases = {"valid": valid, "dyadic": dyadic_metric(rng, n), "tol-asymmetric": valid + noise}
    i = int(rng.integers(n))
    cases["diagonal"] = valid.copy()
    cases["diagonal"][i, i] = 2 * tol
    for bad in (np.nan, np.inf, -np.inf):
        cases[f"non-finite {bad}"] = valid.copy()
        cases[f"non-finite {bad}"][i, int(rng.integers(n))] = bad
    if n > 1:
        i, j = rng.choice(n, size=2, replace=False)
        shortest = np.min(valid[i, :] + valid[:, j])
        for name, value in (
            ("zero", 0.0),
            ("negative", -2 * tol),
            ("negative within tol", -tol / 2),
            ("long", 3 * valid[i, j] + 1),
            # slack at tol and one ulp either side, rounded as the
            # reference rounds it
            ("tight-", np.nextafter(shortest + tol, 0.0)),
            ("tight", shortest + tol),
            ("tight+", np.nextafter(shortest + tol, np.inf)),
        ):
            for base, label in ((valid, name), (cases["tol-asymmetric"], f"{name}, tol-asymmetric")):
                cases[label] = base.copy()
                cases[label][i, j] = cases[label][j, i] = value
        cases["asymmetric"] = valid.copy()
        cases["asymmetric"][i, j] += 2 * tol
        # several faults at once: the first axiom in check order wins
        cases["zero and long"] = cases["long"].copy()
        cases["zero and long"][j, i] = cases["zero and long"][i, j] = 0.0
        cases["zero and long"][i, i] = 2 * tol
    if n > 2:
        # a path metric, tight everywhere, broken only below the diagonal
        # and within tol of symmetric: only the transposed strips see it
        path = np.abs(np.subtract.outer(np.arange(n), np.arange(n))).astype(float)
        lo, mid, hi = np.sort(rng.choice(n, size=3, replace=False))
        path[hi, lo] += 0.9 * tol
        path[hi, mid] -= 0.9 * tol
        cases["lower triangle"] = path
    return cases


def _violates(D, reason, idx, tol=METRIC_TOL):
    if reason == "triangle inequality violated":
        i, k, j = idx
        return D[i, j] - (D[i, k] + D[k, j]) > tol
    i, j = idx
    return {
        "nonzero diagonal": i == j and abs(D[i, i]) > tol,
        "asymmetric entry": abs(D[i, j] - D[j, i]) > tol,
        "negative distance": D[i, j] < -tol,
        "zero distance between distinct points": i != j and D[i, j] <= 0.0,
    }[reason]


def _outcome(check, D):
    try:
        return check(D)
    except (ValidationError, NotAMetric) as exc:
        return exc


class TestCheckMetric:
    """check_metric against the whole-matrix reference it replaced."""

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 17, 64, 200])
    def test_matches_reference(self, n):
        rng = np.random.default_rng(n)
        for _ in range(3):
            for label, D in _metric_cases(rng, n).items():
                expected = _outcome(check_metric_reference, D)
                got = _outcome(check_metric, D)
                assert type(got) is type(expected), label
                if isinstance(expected, np.ndarray):
                    assert got is D, label
                elif isinstance(expected, NotAMetric):
                    assert got.reason == expected.reason, label
                    assert _violates(D, got.reason, got.indices), label
                    if got.reason != "triangle inequality violated":
                        # pair checks report the first pair in row order
                        assert got.indices == expected.indices, label
                else:
                    assert str(got) == str(expected), label

    def test_lower_triangle_violation_is_found(self):
        # the broken pair (60, 1) lies left of the columns that row 60's
        # strip of D checks, so only a strip of D.T reaches it
        n = 64
        D = np.abs(np.subtract.outer(np.arange(n), np.arange(n))).astype(float)
        D[60, 1] += 0.9 * METRIC_TOL
        D[60, 30] -= 0.9 * METRIC_TOL
        with pytest.raises(NotAMetric) as err:
            check_metric(D)
        assert err.value.reason == "triangle inequality violated"
        i, k, j = err.value.indices
        assert i > j and _violates(D, err.value.reason, (i, k, j))

    def test_slack_of_exactly_tol_passes(self):
        # fl(2 tol - (tol / 2 + tol / 2)) is tol exactly; one ulp more fails
        t = METRIC_TOL
        for far, ok in ((2 * t, True), (np.nextafter(2 * t, 1.0), False)):
            D = np.array([[0.0, t / 2, far], [t / 2, 0.0, t / 2], [far, t / 2, 0.0]])
            assert isinstance(_outcome(check_metric_reference, D), np.ndarray) == ok
            assert isinstance(_outcome(check_metric, D), np.ndarray) == ok

    def test_not_square(self):
        for D in (np.zeros((2, 3)), np.zeros(3)):
            with pytest.raises(NotAMetric, match="square"):
                check_metric(D)

    def test_scratch_is_a_fraction_of_the_matrix(self):
        n = 512
        pts = np.random.default_rng(23).normal(size=(n, 3))
        D = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
        check_metric(D[:8, :8])
        tracemalloc.start()
        try:
            check_metric(D)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the whole-matrix check held an n^2 buffer and an n^2 mask
        assert peak <= 0.25 * 8 * n * n


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
        for text in ("id", "T", "B", "TB", "lip1"):
            assert str(gk.FamilyTag.parse(text)) == text

    def test_old_lip1_tags_parse(self):
        # files written when lip1 carried a sample budget still load
        assert gk.FamilyTag.parse("lip1:40") == gk.FamilyTag("lip1")
        obj = {"points": [0, 1], "weights": [0.5, 0.5], "family": "lip1:32",
               "features": {"generators": [[0.0, 1.0]]}}
        X = gds_from_obj(obj)
        assert X.family == gk.FamilyTag("lip1")
        assert gds_to_obj(X)["family"] == "lip1"
        for text in ("lip1:0", "lip1:x", "lip1:", "TB:3"):
            with pytest.raises(ValidationError):
                gk.FamilyTag.parse(text)

    def test_membership_flags(self):
        assert gk.TB_FAMILY.contains_translations
        assert gk.TB_FAMILY.contains_clips
        assert not gk.B_FAMILY.contains_translations
        assert not gk.ID_FAMILY.contains_clips
