"""Standard space recipes for experiments and the CLI.

A recipe is a kind and its fields, `kind:field:...`. `_KINDS` holds each
metric-based kind's field types, array size, a bound on its largest
distance and matrix function; the
matrix is embedded through distance-to-point features (`embed_mm_space`),
as `observable_diameter_hss` does. `file:<path>` reads a data-set file.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kernels import block_slices
from .core import FamilyTag, FiniteGDS, ProbVector, TB_FAMILY, embed_mm_space
from .errors import TooLarge, ValidationError

MAX_POINTS = 4096


@dataclass(frozen=True)
class SpaceRecipe:
    """A recipe kind, its fields and the family of the data set it
    generates. Each field is read with its kind's cast in `_KINDS`, from
    text or a value, and must fit its rule, and the recipe's bound on
    its largest distance must be finite; a file's one field is its path."""

    kind: str
    fields: tuple
    family: FamilyTag = TB_FAMILY

    def __post_init__(self):
        if self.kind == "file":
            return
        if self.kind not in _KINDS:
            raise ValidationError(f"unknown recipe kind {self.kind!r}")
        spec, _, largest, _ = _KINDS[self.kind]
        rules, casts, oks = zip(*spec)
        least = sum(not rule.startswith("[") for rule in rules)
        try:
            fields = tuple(cast(v) for cast, v in zip(casts, self.fields))
            if not (least <= len(self.fields) <= len(rules) and all(ok(v) for ok, v in zip(oks, fields))):
                raise ValueError(self.fields)
            if not largest(*fields) < np.inf:
                raise ValueError(self.fields)
        except (ValueError, OverflowError) as exc:
            text = ":".join([self.kind, *map(str, self.fields)])
            raise ValidationError(f"bad recipe {text!r}: expected {self.kind}{''.join(rules)}") from exc
        object.__setattr__(self, "fields", fields)

    def label(self) -> str:
        """The recipe text, with floats in `g` format."""
        return ":".join([self.kind, *(f"{v:g}" if isinstance(v, float) else str(v) for v in self.fields)])

    @property
    def param(self) -> float:
        """The first field, or 0.0 for a file."""
        return 0.0 if self.kind == "file" else float(self.fields[0])

    @classmethod
    def parse(cls, text: str, family: FamilyTag = TB_FAMILY) -> "SpaceRecipe":
        """Parse `kind:field:...`; a file's path is all the text after `file:`."""
        kind, _, rest = text.partition(":")
        return cls(kind, (rest,) if kind == "file" else tuple(rest.split(":")), family)


def hamming_cube_matrix(k: int, normalize_by_k: bool) -> np.ndarray:
    """Hamming distances of the 2^k cube vertices, filled by row blocks
    so that the only n-by-n array is the result."""
    n = 1 << k
    verts = np.arange(n, dtype=np.uint64)
    D = np.empty((n, n))
    for rows in block_slices(n, n):
        D[rows] = np.bitwise_count(verts[rows, None] ^ verts[None, :])
    if normalize_by_k:
        D /= k
    return D


def _path_matrix(n: int, step: float) -> np.ndarray:
    idx = np.arange(n, dtype=float)
    D = np.subtract.outer(idx, idx)
    np.abs(D, out=D)
    D *= step
    return D


def _cloud_matrix(n: int, dim: int, metric: str, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    # dyadic coordinates keep all pairwise distances exact
    pts = rng.integers(0, 1025, size=(n, dim)) / 1024.0

    # in row blocks: one (n, n, dim) difference tensor would hold dim
    # times the matrix
    D = np.empty((n, n))
    zeros = 0
    for rows in block_slices(n, pts.size):
        diff = pts[rows, None, :] - pts[None, :, :]
        if metric == "linf":
            np.abs(diff).max(axis=2, out=D[rows])
        else:
            np.sqrt((diff**2).sum(axis=2), out=D[rows])
        zeros += np.count_nonzero(D[rows] == 0.0)
    # re-draw coincident points deterministically is overkill; reject
    # instead. The diagonal is exactly zero, so any further zero is a
    # coincident pair.
    if zeros > n:
        raise ValidationError("seed produced coincident points; pick another seed")
    return D


def _integer(v) -> int:
    """An integer field: text as int() reads it, and a number only when
    it is integral, so that 4.7 points is refused rather than cut to 4."""
    if not isinstance(v, (str, int, np.integer)) and not float(v).is_integer():
        raise ValueError(v)
    return int(v)


# kind -> (fields, entries, largest, build). A field is (rule, cast,
# ok): its grammar, bracketed when optional (trailing fields only), its
# type and its range. entries(*fields) counts the entries of the largest
# array that build(*fields), which returns the distance matrix, fills,
# and largest(*fields) bounds the distances in it.
_KINDS = {
    "two_point": (
        ((":<finite d > 0>", float, lambda d: 0 < d < np.inf),),
        lambda d: 4,
        lambda d: d,
        lambda d: np.array([[0.0, d], [d, 0.0]]),
    ),
    # a cube past 64 dimensions is far over any cap; 4^64 stands in for it
    "hamming_cube": (
        ((":<k >= 1>", _integer, lambda k: k >= 1), ("[:by_k]", str, lambda s: s == "by_k")),
        lambda k, by_k=None: 4 ** min(k, 64),
        lambda k, by_k=None: 1 if by_k else k,
        lambda k, by_k=None: hamming_cube_matrix(k, by_k is not None),
    ),
    "path": (
        ((":<n >= 2>", _integer, lambda n: n >= 2), (":<step > 0, (n - 1) * step finite>", float, lambda s: s > 0)),
        lambda n, step: n * n,
        lambda n, step: (n - 1) * step,
        _path_matrix,
    ),
    # the n x dim coordinates may hold no more entries than the matrix
    "random_cloud": (
        (
            (":<n >= 2>", _integer, lambda n: n >= 2),
            (":<dim >= 1>", _integer, lambda dim: dim >= 1),
            (":<linf|l2>", str, lambda m: m in ("linf", "l2")),
            (":<seed >= 0>", _integer, lambda seed: seed >= 0),
        ),
        lambda n, dim, metric, seed: n * max(n, dim),
        lambda n, dim, metric, seed: dim,  # coordinates lie in [0, 1]
        _cloud_matrix,
    ),
}


def generate_space(recipe: SpaceRecipe) -> FiniteGDS:
    """Instantiate a recipe; deterministic per recipe and seed. One that
    needs larger arrays than a `MAX_POINTS`-point matrix is refused first."""
    if recipe.kind == "file":
        from .serialize import parse_gds

        return parse_gds(recipe.fields[0])
    _, entries, _, build = _KINDS[recipe.kind]
    if entries(*recipe.fields) > MAX_POINTS**2:
        raise TooLarge(f"{recipe.label()} needs larger arrays than a {MAX_POINTS}-point matrix, the cap")
    D = build(*recipe.fields)
    # read-only and owned, so the data set keeps this array, not a copy
    D.setflags(write=False)
    return embed_mm_space(D, ProbVector.uniform(D.shape[0]), recipe.family)
