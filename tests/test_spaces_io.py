import json
import tracemalloc

import numpy as np
import pytest

import gdskit as gk
from gdskit.errors import SchemaError, TooLarge, ValidationError
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

    def test_too_large(self):
        with pytest.raises(TooLarge):
            generate_space(SpaceRecipe.parse("hamming_cube:13"))

    def test_bad_recipes(self):
        with pytest.raises(ValidationError):
            SpaceRecipe.parse("two_point")
        with pytest.raises(ValidationError):
            SpaceRecipe.parse("banana:3")
        # 300 points on 1025 grid values must coincide somewhere
        with pytest.raises(ValidationError, match="coincident"):
            generate_space(SpaceRecipe.parse("random_cloud:300:1:linf:1"))

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

    def test_missing_weights_pointer(self):
        obj = {"points": [0, 1], "family": "TB", "features": {"generators": [[0, 1]]}}
        with pytest.raises(SchemaError) as err:
            gds_from_obj(obj)
        assert err.value.pointer == "/weights"

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
