"""JSON serialization of finite geometric data sets.

Schema (one of the two feature forms is required):

    {
      "points": [...],             # labels, one per point
      "weights": [...],            # positive, summing to 1
      "family": "TB",              # id | T | B | TB | lip1 (lip1:<n> reads as lip1)
      "features": {"generators": [[...], ...]},
      "distance_matrix": [[...], ...]
    }

The distance-matrix form embeds the metric through distance-to-point
features. Serialization uses shortest round-trip float representation,
so parse(serialize(X)) reproduces X bit for bit for finite doubles.
"""
from __future__ import annotations

import json
import math

import numpy as np

from .core import FamilyTag, FiniteGDS, ProbVector, embed_mm_space, validate_gds
from .errors import SchemaError, ValidationError


def _require(obj, key, pointer):
    if key not in obj:
        raise SchemaError(f"{pointer}/{key}", "missing required field")
    return obj[key]


def _number_list(value, pointer):
    if not isinstance(value, list) or not value:
        raise SchemaError(pointer, "expected a nonempty array of numbers")
    out = []
    for idx, x in enumerate(value):
        if isinstance(x, bool) or not isinstance(x, (int, float)):
            raise SchemaError(f"{pointer}/{idx}", "expected a number")
        # json reads NaN and Infinity as numbers
        try:
            number = float(x)
        except OverflowError:  # an integer beyond the float range
            number = math.inf
        if not np.isfinite(number):
            raise SchemaError(f"{pointer}/{idx}", "expected a finite number")
        out.append(number)
    return out


def _matrix(value, pointer):
    if not isinstance(value, list) or not value:
        raise SchemaError(pointer, "expected a nonempty array of rows")
    rows = [_number_list(row, f"{pointer}/{i}") for i, row in enumerate(value)]
    width = len(rows[0])
    for i, row in enumerate(rows):
        if len(row) != width:
            raise SchemaError(f"{pointer}/{i}", "ragged matrix")
    # read-only and owned, so the data set keeps this array, not a copy
    matrix = np.array(rows, dtype=float)
    matrix.setflags(write=False)
    return matrix


def gds_from_obj(obj: dict) -> FiniteGDS:
    if not isinstance(obj, dict):
        raise SchemaError("", "expected a JSON object")
    points = _require(obj, "points", "")
    if not isinstance(points, list) or not points:
        raise SchemaError("/points", "expected a nonempty array")
    weights = _number_list(_require(obj, "weights", ""), "/weights")
    family_text = _require(obj, "family", "")
    if not isinstance(family_text, str):
        raise SchemaError("/family", "expected a string")
    try:
        family = FamilyTag.parse(family_text)
    except ValidationError as exc:
        raise SchemaError("/family", str(exc)) from exc
    if len(weights) != len(points):
        raise SchemaError("/weights", f"{len(weights)} weights for {len(points)} points")
    has_features = "features" in obj
    has_matrix = "distance_matrix" in obj
    if has_features == has_matrix:
        raise SchemaError("", "exactly one of 'features' and 'distance_matrix' is required")
    mu = ProbVector(np.array(weights))
    if has_features:
        feats = obj["features"]
        if not isinstance(feats, dict):
            raise SchemaError("/features", "expected an object")
        gens = _matrix(_require(feats, "generators", "/features"), "/features/generators")
        if gens.shape[1] != len(points):
            raise SchemaError(
                "/features/generators",
                f"{gens.shape[1]} columns for {len(points)} points",
            )
        return validate_gds(points, gens, family, mu)
    D = _matrix(obj["distance_matrix"], "/distance_matrix")
    if D.shape[0] != len(points):
        raise SchemaError("/distance_matrix", f"{D.shape[0]} rows for {len(points)} points")
    return embed_mm_space(D, mu, family, point_ids=tuple(points))


def gds_to_obj(X: FiniteGDS) -> dict:
    return {
        "points": list(X.point_ids),
        "weights": X.masses.tolist(),
        "family": str(X.family),
        "features": {"generators": X.generators.tolist()},
    }


def parse_gds(path: str) -> FiniteGDS:
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as exc:
        raise SchemaError("", f"invalid JSON: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        # an OSError's own text repeats the path; its strerror does not
        raise SchemaError("", f"cannot read {path}: {getattr(exc, 'strerror', None) or exc}") from exc
    return gds_from_obj(obj)


def serialize_gds(X: FiniteGDS, path: str) -> None:
    """Write X to `path` in the feature form.

    The bytes are those of json.dump(gds_to_obj(X), fh, indent=2,
    sort_keys=True) plus a newline, but the generator matrix is written
    one row at a time with float.__repr__ (json's float format), so its
    text is never held whole as nested lists.
    """
    points = _nested_json(list(X.point_ids))
    weights = _nested_json(X.masses.tolist())
    with open(path, "w") as fh:
        fh.write(f'{{\n  "family": {json.dumps(str(X.family))},\n  "features": {{\n    "generators": [')
        sep = "\n"
        for row in X.generators:
            fh.write(f"{sep}      [\n        ")
            fh.write(",\n        ".join(map(float.__repr__, row.tolist())))
            fh.write("\n      ]")
            sep = ",\n"
        fh.write(f'\n    ]\n  }},\n  "points": {points},\n  "weights": {weights}\n}}\n')


def _nested_json(value) -> str:
    """json.dumps(value, indent=2, sort_keys=True) for a value one level
    inside an object."""
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n  ")
