import json
import tracemalloc

import numpy as np
import pytest

import gdskit as gk
from gdskit.errors import IndistinctPoints, SchemaError, TooLarge, ValidationError
from gdskit.serialize import gds_from_obj, gds_to_obj, parse_gds, serialize_gds
from gdskit.spaces import SpaceRecipe, generate_space, hamming_cube_matrix


class TestRecipes:
    def test_two_point(self):
        X = generate_space(SpaceRecipe.parse("two_point:1"))
        assert X.n_points == 2
        assert X.diameter == 1.0

    def test_hamming_cube_normalized(self):
        X = generate_space(SpaceRecipe.parse("hamming_cube:3:by_k"))
        assert X.n_points == 8
        assert X.diameter == 1.0

    def test_hamming_cube_raw(self):
        X = generate_space(SpaceRecipe.parse("hamming_cube:3"))
        assert X.diameter == 3.0

    def test_path(self):
        X = generate_space(SpaceRecipe.parse("path:4:0.5"))
        assert X.n_points == 4
        assert X.diameter == 1.5

    def test_random_cloud_deterministic(self):
        a = generate_space(SpaceRecipe.parse("random_cloud:5:2:linf:7"))
        b = generate_space(SpaceRecipe.parse("random_cloud:5:2:linf:7"))
        assert np.array_equal(a.generators, b.generators)
        assert np.array_equal(a.masses, b.masses)

    def test_random_cloud_l2(self):
        X = generate_space(SpaceRecipe.parse("random_cloud:6:3:l2:11"))
        assert X.n_points == 6

    def test_random_cloud_scratch_is_bounded(self):
        # an (n, n, dim) difference tensor held about 11 n^2 doubles
        n = 320
        tracemalloc.start()
        try:
            generate_space(SpaceRecipe.parse(f"random_cloud:{n}:4:l2:7"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * n * n * 8

    @pytest.mark.parametrize(
        "text", ["random_cloud:512:4:l2:7", "random_cloud:512:4:linf:7", "path:512:0.5", "hamming_cube:9"]
    )
    def test_holds_one_matrix(self, text):
        # the data set keeps the matrix that the recipe filled; building
        # it in parts, copying it or an n^2 check buffer would pass 2 n^2
        generate_space(SpaceRecipe.parse(text.replace("512", "8").replace(":9", ":3")))
        tracemalloc.start()
        try:
            X = generate_space(SpaceRecipe.parse(text))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        n = X.n_points
        assert n == 512
        assert peak <= 1.25 * 8 * n * n

    def test_too_large(self):
        for text in ("hamming_cube:13", "path:4097:1", "random_cloud:4097:1:linf:1"):
            with pytest.raises(TooLarge):
                generate_space(SpaceRecipe.parse(text))

    def test_bad_recipes(self):
        with pytest.raises(ValidationError):
            SpaceRecipe.parse("two_point")
        with pytest.raises(ValidationError):
            SpaceRecipe.parse("banana:3")
        # 300 points on 1025 grid values must coincide somewhere
        with pytest.raises(ValidationError, match="coincident"):
            generate_space(SpaceRecipe.parse("random_cloud:300:1:linf:1"))

    @pytest.mark.parametrize("text", ["two_point:1:2", "path:4:1:extra", "hamming_cube:3:xyz", "hamming_cube:3:by_k:1"])
    def test_extra_fields_rejected(self, text):
        # fields past a kind's own were dropped, so the recipe built and
        # its label was no longer its text
        with pytest.raises(ValidationError):
            SpaceRecipe.parse(text)

    def test_negative_cloud_seed_rejected(self):
        # numpy's default_rng raised a ValueError, which is no GdsError
        with pytest.raises(ValidationError):
            SpaceRecipe.parse("random_cloud:5:2:linf:-1")

    @pytest.mark.parametrize("text", ["random_cloud:2:4611686018427387904:linf:1", "hamming_cube:9223372036854775808"])
    def test_refused_before_allocating(self, text):
        # numpy refused the 2 x 2^62 cloud coordinates with a ValueError
        # (smaller draws were allocated), and Python the 2^(2^63) point
        # count of the cube with a MemoryError
        with pytest.raises(TooLarge):
            generate_space(SpaceRecipe.parse(text))

    def test_direct_construction_is_checked(self):
        # fields given as values are read and checked as parse reads text
        assert SpaceRecipe("path", (4, 0.5)) == SpaceRecipe.parse("path:4:0.5")
        for kind, fields in (("path", (1, 0.5)), ("random_cloud", (5, 2, "linf", -1)), ("two_point", ())):
            with pytest.raises(ValidationError):
                SpaceRecipe(kind, fields)

    @pytest.mark.parametrize("kind, fields, text", [
        ("path", (4.7, 0.5), "path:4.7:0.5"),
        ("random_cloud", (5, 2, "linf", 7.9), "random_cloud:5:2:linf:7.9"),
        ("hamming_cube", (np.float64(3.5),), "hamming_cube:3.5"),
    ])
    def test_fractional_integer_field_rejected(self, kind, fields, text):
        # an integer field took int() of a number, so 4.7 points built 4
        # and a cloud seed of 7.9 drew seed 7's cloud
        with pytest.raises(ValidationError, match=f"bad recipe '{text}'"):
            SpaceRecipe(kind, fields)

    @pytest.mark.parametrize("kind, fields, text", [
        ("path", ("4", "inf"), "path:4:inf"),
        ("two_point", ("inf",), "two_point:inf"),
        ("path", (4, float("inf")), "path:4:inf"),
        ("two_point", (np.float64(np.inf),), "two_point:inf"),
    ])
    def test_non_finite_field_rejected(self, kind, fields, text):
        # an infinite step or distance was accepted, and generating the
        # space then failed on 0 * inf on the diagonal, after a numpy
        # RuntimeWarning
        with pytest.raises(ValidationError, match=f"bad recipe '{text}': expected {kind}"):
            SpaceRecipe(kind, fields)

    def test_integral_number_in_integer_field(self):
        assert SpaceRecipe("path", (4.0, 0.5)) == SpaceRecipe.parse("path:4:0.5")
        assert SpaceRecipe("random_cloud", (5, np.float64(2.0), "linf", 7)).fields == (5, 2, "linf", 7)

    def test_labels_round_trip(self):
        for text in ("two_point:1", "hamming_cube:4:by_k", "path:5:0.25",
                     "random_cloud:4:2:linf:3"):
            assert SpaceRecipe.parse(text).label() == text


class TestSerialization:
    def test_round_trip_bit_exact(self, tmp_path):
        X = generate_space(SpaceRecipe.parse("hamming_cube:3:by_k"))
        path = tmp_path / "cube.json"
        serialize_gds(X, str(path))
        Y = parse_gds(str(path))
        assert np.array_equal(X.generators, Y.generators)
        assert np.array_equal(X.masses, Y.masses)
        assert X.point_ids == Y.point_ids
        assert X.family == Y.family

    @pytest.mark.parametrize("labels", ["int", "str", "escaped", "non-ascii"])
    def test_bytes_match_json_dump(self, tmp_path, labels):
        # the streamed writer against the whole-object json.dump it replaces
        rng = np.random.default_rng(37)
        for trial in range(8):
            n, g = (int(x) for x in rng.integers(1, 7, size=2))
            gens = rng.normal(size=(g, n)) * 10.0 ** rng.integers(-300, 300, size=(g, 1))
            gens[0] = np.arange(n) * 0.1  # points stay distinct
            gens[g - 1, 0] = -0.0
            ids = {
                "int": list(range(n)),
                "str": [f"p{i}" for i in range(n)],
                "escaped": [f'"{i}\\\n\t' for i in range(n)],
                "non-ascii": [f"\u00e9\u4e2d\U0001F600{i}" for i in range(n)],
            }[labels]
            X = gk.validate_gds(ids, gens, gk.FamilyTag.parse(("TB", "lip1:3")[trial % 2]), rng.dirichlet(np.ones(n)))
            path = tmp_path / "x.json"
            serialize_gds(X, str(path))
            expected = json.dumps(gds_to_obj(X), indent=2, sort_keys=True) + "\n"
            assert path.read_bytes() == expected.encode()

    def test_missing_weights_pointer(self):
        obj = {"points": [0, 1], "family": "TB", "features": {"generators": [[0, 1]]}}
        with pytest.raises(SchemaError) as err:
            gds_from_obj(obj)
        assert err.value.pointer == "/weights"

    def test_generated_file_parses_without_induced_metric(self, tmp_path, monkeypatch):
        from gdskit import core

        X = generate_space(SpaceRecipe.parse("hamming_cube:5"))
        path = str(tmp_path / "cube.json")
        serialize_gds(X, path)

        def no_induced_metric(X):
            raise AssertionError("induced_metric called")

        # the separation check groups the generator columns; it never
        # builds the n-by-n metric
        with monkeypatch.context() as m:
            m.setattr(core, "induced_metric", no_induced_metric)
            Y = parse_gds(path)
        assert np.array_equal(Y.metric, X.metric)

    def test_square_generators_with_other_zeros_are_checked(self):
        gens = [[0.0, 0.0, 5.0], [0.0, 0.0, 5.0], [1.0, 1.0, 0.0]]
        with pytest.raises(IndistinctPoints):
            gk.validate_gds(range(3), gens, gk.TB_FAMILY, [0.25, 0.25, 0.5])

    def test_distance_matrix_form_matches_embed(self):
        D = hamming_cube_matrix(2, True)
        obj = {
            "points": [0, 1, 2, 3],
            "weights": [0.25] * 4,
            "family": "TB",
            "distance_matrix": D.tolist(),
        }
        X = gds_from_obj(obj)
        Y = gk.embed_mm_space(D, gk.ProbVector.uniform(4), gk.TB_FAMILY)
        assert np.array_equal(X.generators, Y.generators)

    def test_both_feature_forms_rejected(self):
        obj = {
            "points": [0, 1],
            "weights": [0.5, 0.5],
            "family": "TB",
            "features": {"generators": [[0.0, 1.0]]},
            "distance_matrix": [[0.0, 1.0], [1.0, 0.0]],
        }
        with pytest.raises(SchemaError):
            gds_from_obj(obj)

    def test_ragged_matrix_pointer(self):
        obj = {
            "points": [0, 1],
            "weights": [0.5, 0.5],
            "family": "TB",
            "features": {"generators": [[0.0, 1.0], [0.0]]},
        }
        with pytest.raises(SchemaError) as err:
            gds_from_obj(obj)
        assert err.value.pointer.startswith("/features/generators")

    def test_bad_family(self):
        obj = {
            "points": [0, 1],
            "weights": [0.5, 0.5],
            "family": "Z",
            "features": {"generators": [[0.0, 1.0]]},
        }
        with pytest.raises(SchemaError) as err:
            gds_from_obj(obj)
        assert err.value.pointer == "/family"

    def test_not_a_metric_propagates(self):
        obj = {
            "points": [0, 1, 2],
            "weights": [1 / 4, 1 / 4, 1 / 2],
            "family": "TB",
            "distance_matrix": [[0, 1, 3], [1, 0, 1], [3, 1, 0]],
        }
        from gdskit.errors import NotAMetric

        with pytest.raises(NotAMetric):
            gds_from_obj(obj)

    @pytest.mark.parametrize(
        "text", ["NaN", "Infinity", "-Infinity", "1e400", pytest.param("1" + "0" * 400, id="1e400-int")]
    )
    def test_non_finite_numbers_rejected(self, tmp_path, text):
        # json reads the first four as float nan or inf, the last as an int
        # beyond the float range
        head = '{"points": [0, 1], "family": "TB", '
        cases = {
            "/weights/1": head + '"weights": [0.5, %s], "features": {"generators": [[0, 1]]}}' % text,
            "/features/generators/1/1": head
            + '"weights": [0.5, 0.5], "features": {"generators": [[0, 1], [0, %s]]}}' % text,
            "/distance_matrix/0/1": head
            + '"weights": [0.5, 0.5], "distance_matrix": [[0, %s], [%s, 0]]}' % (text, text),
        }
        for pointer, body in cases.items():
            path = tmp_path / "bad.json"
            path.write_text(body)
            with pytest.raises(SchemaError) as err:
                parse_gds(str(path))
            assert err.value.pointer == pointer

    def test_missing_file(self):
        with pytest.raises(SchemaError):
            parse_gds("/nonexistent/path.json")

    def test_obj_round_trip(self):
        X = generate_space(SpaceRecipe.parse("two_point:2"))
        Y = gds_from_obj(json.loads(json.dumps(gds_to_obj(X))))
        assert np.array_equal(X.generators, Y.generators)
