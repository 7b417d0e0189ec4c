"""Standard space recipes for experiments and the CLI.

Metric-based kinds (two-point, Hamming cube, path, random cloud) embed
their distance matrix through distance-to-point features, matching the
convention used by the observable-diameter fast path.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kernels import row_blocks
from .core import FamilyTag, FiniteGDS, ProbVector, TB_FAMILY, embed_mm_space
from .errors import TooLarge, ValidationError

MAX_POINTS = 4096


@dataclass(frozen=True)
class SpaceRecipe:
    kind: str
    d: float | None = None
    k: int | None = None
    normalize_by_k: bool = False
    n: int | None = None
    step: float | None = None
    dim: int | None = None
    metric: str = "linf"
    seed: int | None = None
    path: str | None = None
    family: FamilyTag = TB_FAMILY
    weights: tuple | None = None  # None means uniform

    def label(self) -> str:
        if self.kind == "two_point":
            return f"two_point:{self.d:g}"
        if self.kind == "hamming_cube":
            suffix = ":by_k" if self.normalize_by_k else ""
            return f"hamming_cube:{self.k}{suffix}"
        if self.kind == "path":
            return f"path:{self.n}:{self.step:g}"
        if self.kind == "random_cloud":
            return f"random_cloud:{self.n}:{self.dim}:{self.metric}:{self.seed}"
        return f"file:{self.path}"

    @property
    def param(self) -> float:
        if self.kind == "two_point":
            return float(self.d)
        if self.kind == "hamming_cube":
            return float(self.k)
        if self.kind in ("path", "random_cloud"):
            return float(self.n)
        return 0.0

    @classmethod
    def parse(cls, text: str, family: FamilyTag = TB_FAMILY) -> "SpaceRecipe":
        """Parse compact recipe strings:

        two_point:<d>, hamming_cube:<k>[:by_k], path:<n>:<step>,
        random_cloud:<n>:<dim>:<linf|l2>:<seed>, file:<path>.
        """
        parts = text.split(":")
        kind = parts[0]
        try:
            if kind == "two_point":
                return cls(kind, d=float(parts[1]), family=family)
            if kind == "hamming_cube":
                by_k = len(parts) > 2 and parts[2] == "by_k"
                return cls(kind, k=int(parts[1]), normalize_by_k=by_k, family=family)
            if kind == "path":
                return cls(kind, n=int(parts[1]), step=float(parts[2]), family=family)
            if kind == "random_cloud":
                return cls(
                    kind,
                    n=int(parts[1]),
                    dim=int(parts[2]),
                    metric=parts[3],
                    seed=int(parts[4]),
                    family=family,
                )
            if kind == "file":
                return cls(kind, path=":".join(parts[1:]), family=family)
        except (IndexError, ValueError) as exc:
            raise ValidationError(f"bad recipe {text!r}") from exc
        raise ValidationError(f"unknown recipe kind {kind!r}")


def hamming_cube_matrix(k: int, normalize_by_k: bool) -> np.ndarray:
    verts = np.arange(1 << k, dtype=np.uint64)
    D = np.bitwise_count(verts[:, None] ^ verts[None, :]).astype(float)
    return D / k if normalize_by_k else D


def generate_space(recipe: SpaceRecipe, max_points: int = MAX_POINTS) -> FiniteGDS:
    """Instantiate a recipe; deterministic per recipe and seed."""
    if recipe.kind == "two_point":
        if recipe.d is None or recipe.d <= 0:
            raise ValidationError("two_point needs a positive separation")
        D = np.array([[0.0, recipe.d], [recipe.d, 0.0]])
    elif recipe.kind == "hamming_cube":
        if recipe.k is None or recipe.k < 1:
            raise ValidationError("hamming_cube needs k >= 1")
        if (1 << recipe.k) > max_points:
            raise TooLarge(f"2^{recipe.k} points exceed the cap of {max_points}")
        D = hamming_cube_matrix(recipe.k, recipe.normalize_by_k)
    elif recipe.kind == "path":
        if recipe.n is None or recipe.n < 2 or recipe.step is None or recipe.step <= 0:
            raise ValidationError("path needs n >= 2 points and a positive step")
        if recipe.n > max_points:
            raise TooLarge(f"{recipe.n} points exceed the cap of {max_points}")
        idx = np.arange(recipe.n, dtype=float)
        D = np.abs(idx[:, None] - idx[None, :]) * recipe.step
    elif recipe.kind == "random_cloud":
        if recipe.seed is None:
            raise ValidationError("random_cloud requires a seed")
        if recipe.n is None or recipe.n < 2 or recipe.dim is None or recipe.dim < 1:
            raise ValidationError("random_cloud needs n >= 2 and dim >= 1")
        if recipe.n > max_points:
            raise TooLarge(f"{recipe.n} points exceed the cap of {max_points}")
        rng = np.random.default_rng(recipe.seed)
        # dyadic coordinates keep all pairwise distances exact
        pts = rng.integers(0, 1025, size=(recipe.n, recipe.dim)) / 1024.0
        if recipe.metric not in ("linf", "l2"):
            raise ValidationError(f"unknown cloud metric {recipe.metric!r}")

        def distance_rows(rows):
            # in row blocks: one (n, n, dim) difference tensor would hold
            # dim times the matrix
            diff = pts[rows, None, :] - pts[None, :, :]
            if recipe.metric == "linf":
                return np.abs(diff).max(axis=2)
            return np.sqrt((diff**2).sum(axis=2))

        D = row_blocks(distance_rows, recipe.n, pts.size)
        # re-draw coincident points deterministically is overkill; reject
        # instead. The diagonal is exactly zero, so any further zero is a
        # coincident pair.
        if np.count_nonzero(D == 0.0) > recipe.n:
            raise ValidationError("seed produced coincident points; pick another seed")
    elif recipe.kind == "file":
        from .serialize import parse_gds

        return parse_gds(recipe.path)
    else:
        raise ValidationError(f"unknown recipe kind {recipe.kind!r}")
    weights = (
        ProbVector.uniform(D.shape[0])
        if recipe.weights is None
        else ProbVector(np.asarray(recipe.weights))
    )
    return embed_mm_space(D, weights, recipe.family)
