"""Core data model for finite geometric data sets.

A finite geometric data set couples an indexed point set with

* a finite matrix of generator features (rows are real-valued functions
  on the points, one column per point),
* a family tag naming which 1-Lipschitz post-compositions of the
  generators belong to the feature family, and
* a fully supported probability vector.

The generators induce a metric as the maximum absolute feature
difference. Because every declared family contains the identity and
consists of 1-Lipschitz maps, composing generators with family members
never changes the induced metric; the (possibly infinite) composed
family is therefore never materialized.

All types are immutable after construction and every operation is a
pure function, so values can be shared freely across threads.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DimensionMismatch,
    IndistinctPoints,
    InvalidWeights,
    NotAMetric,
    ValidationError,
    ZeroWeight,
)

MASS_TOL = 1e-12
METRIC_TOL = 1e-9

_FAMILY_KINDS = ("id", "T", "B", "TB", "lip1")


@dataclass(frozen=True)
class FamilyTag:
    """Which monoidal family of 1-Lipschitz maps acts on the generators.

    Kinds
    -----
    ``id``
        Only the identity; the feature family is the generator list.
    ``T``
        All translations x -> x + c.
    ``B``
        All symmetric clips x -> max(-R, min(x, R)), R in [0, inf].
    ``TB``
        All shift-then-clip maps x -> max(l, min(x + c, u)).
    ``lip1``
        All of lip1(R), represented by a seeded sample of piecewise
        linear 1-Lipschitz maps of size `sample_budget`. Orbit searches
        under this tag are heuristic under-approximations of the family.
    """

    kind: str
    sample_budget: int | None = None

    def __post_init__(self):
        if self.kind not in _FAMILY_KINDS:
            raise ValidationError(f"unknown family kind {self.kind!r}")
        if self.kind == "lip1":
            if not isinstance(self.sample_budget, int) or self.sample_budget < 1:
                raise ValidationError("lip1 family requires a positive sample budget")
        elif self.sample_budget is not None:
            raise ValidationError("sample_budget only applies to the lip1 family")

    @property
    def contains_translations(self) -> bool:
        return self.kind in ("T", "TB", "lip1")

    @property
    def contains_clips(self) -> bool:
        return self.kind in ("B", "TB", "lip1")

    def __str__(self) -> str:
        if self.kind == "lip1":
            return f"lip1:{self.sample_budget}"
        return self.kind

    @classmethod
    def parse(cls, text: str) -> "FamilyTag":
        if text.startswith("lip1:"):
            try:
                budget = int(text.split(":", 1)[1])
            except ValueError as exc:
                raise ValidationError(f"bad lip1 budget in {text!r}") from exc
            return cls("lip1", budget)
        return cls(text)


ID_FAMILY = FamilyTag("id")
T_FAMILY = FamilyTag("T")
B_FAMILY = FamilyTag("B")
TB_FAMILY = FamilyTag("TB")


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr = np.array(arr, dtype=float)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class ProbVector:
    """A fully supported probability vector.

    Every weight must be strictly positive and the total must equal 1
    within MASS_TOL.
    """

    weights: np.ndarray

    def __post_init__(self):
        w = _readonly(self.weights)
        if w.ndim != 1 or w.size == 0:
            raise DimensionMismatch("weights must be a nonempty 1-d sequence")
        if not np.all(np.isfinite(w)):
            raise InvalidWeights("weights must be finite")
        if np.any(w <= 0.0):
            raise ZeroWeight("all weights must be strictly positive (full support)")
        if abs(float(w.sum()) - 1.0) > MASS_TOL:
            raise InvalidWeights(f"weights sum to {float(w.sum())!r}, expected 1")
        object.__setattr__(self, "weights", w)

    @classmethod
    def uniform(cls, n: int) -> "ProbVector":
        return cls(np.full(n, 1.0 / n))

    def __len__(self) -> int:
        return self.weights.size


@dataclass(frozen=True, eq=False)
class DiscreteMeasureR:
    """A finitely supported probability measure on the real line.

    Atom values are strictly increasing; masses are positive and sum
    to 1 within MASS_TOL.
    """

    values: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        v = _readonly(self.values)
        m = _readonly(self.masses)
        if v.ndim != 1 or v.shape != m.shape or v.size == 0:
            raise DimensionMismatch("values and masses must be matching 1-d arrays")
        if not np.all(np.isfinite(v)):
            raise ValidationError("atom values must be finite")
        if not np.all(np.isfinite(m)):
            raise InvalidWeights("atom masses must be finite")
        if np.any(np.diff(v) <= 0.0):
            raise ValidationError("atom values must be strictly increasing")
        if np.any(m <= 0.0):
            raise ZeroWeight("atom masses must be strictly positive")
        if abs(float(m.sum()) - 1.0) > MASS_TOL:
            raise InvalidWeights(f"masses sum to {float(m.sum())!r}, expected 1")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "masses", m)

    @property
    def atoms(self) -> list[tuple[float, float]]:
        return [(float(v), float(m)) for v, m in zip(self.values, self.masses)]

    @classmethod
    def point_mass(cls, value: float) -> "DiscreteMeasureR":
        return cls(np.array([value]), np.array([1.0]))


def pushforward(values, mu: ProbVector) -> DiscreteMeasureR:
    """Push the probability vector through a feature value list.

    Equal values are merged and their masses summed; atoms come back
    sorted. Grouping uses exact float equality (negative zeros are
    normalized first).
    """
    vals = np.asarray(values, dtype=float) + 0.0
    if vals.ndim != 1 or vals.size != len(mu):
        raise DimensionMismatch("value list length must match the weight vector")
    uniq, inverse = np.unique(vals, return_inverse=True)
    sums = np.bincount(inverse, weights=mu.weights, minlength=uniq.size)
    return DiscreteMeasureR(uniq, sums)


@dataclass(frozen=True, eq=False)
class FiniteGDS:
    """A finite geometric data set (points, generators, family, measure)."""

    point_ids: tuple
    generators: np.ndarray  # (n_generators, n_points)
    family: FamilyTag
    mu: ProbVector

    def __post_init__(self):
        gens = _readonly(self.generators)
        if gens.ndim != 2 or gens.shape[0] == 0:
            raise DimensionMismatch("generators must be a nonempty 2-d matrix")
        if not np.all(np.isfinite(gens)):
            raise ValidationError("generator values must be finite")
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "point_ids", tuple(self.point_ids))
        if gens.shape[1] != len(self.point_ids):
            raise DimensionMismatch(
                f"{gens.shape[1]} generator columns for {len(self.point_ids)} points"
            )
        if len(self.mu) != gens.shape[1]:
            raise DimensionMismatch("weight count must match point count")

    @property
    def n_points(self) -> int:
        return self.generators.shape[1]

    @property
    def n_generators(self) -> int:
        return self.generators.shape[0]

    @property
    def masses(self) -> np.ndarray:
        return self.mu.weights

    @cached_property
    def metric(self) -> np.ndarray:
        """The induced metric, computed on first use; embed_mm_space sets
        it to the validated distance matrix instead (equal in exact
        arithmetic)."""
        d = induced_metric(self)
        d.setflags(write=False)
        return d

    @property
    def diameter(self) -> float:
        return float(self.metric.max()) if self.n_points > 1 else 0.0


def _dataset(points, generators, family: FamilyTag, weights) -> FiniteGDS:
    mu = weights if isinstance(weights, ProbVector) else ProbVector(np.asarray(weights))
    return FiniteGDS(tuple(points), np.asarray(generators, dtype=float), family, mu)


def validate_gds(points, generators, family: FamilyTag, weights) -> FiniteGDS:
    """Build a FiniteGDS, checking dimensions, support, and separation.

    Raises
    ------
    DimensionMismatch
        Inconsistent matrix and weight shapes.
    ZeroWeight
        Some weight is not strictly positive.
    IndistinctPoints
        Two points agree on every generator, so the induced metric
        fails positivity.
    """
    X = _dataset(points, generators, family, weights)
    if X.n_points > 1:
        zero = X.metric == 0.0
        np.fill_diagonal(zero, False)
        if zero.any():
            # the metric is exactly symmetric, so the first zero in row
            # order lies above the diagonal
            i, j = np.argwhere(zero)[0]
            raise IndistinctPoints(
                f"points {X.point_ids[i]!r} and {X.point_ids[j]!r} agree on every generator"
            )
    return X


def induced_metric(X: FiniteGDS) -> np.ndarray:
    """Pairwise distance matrix d[i, j] = max_f |f(i) - f(j)|.

    A finite maximum of absolute differences, so all metric axioms hold
    exactly in float arithmetic. The maximum is taken one generator at a
    time, so memory stays O(n^2) (two n-by-n buffers) for any number of
    generators.
    """
    gens = X.generators
    d = np.abs(gens[0][:, None] - gens[0][None, :])
    diff = np.empty_like(d)
    for row in gens[1:]:
        np.subtract(row[:, None], row[None, :], out=diff)
        np.maximum(d, np.abs(diff, out=diff), out=d)
    return d


def check_metric(D: np.ndarray, tol: float = METRIC_TOL) -> np.ndarray:
    """Validate a distance matrix; returns it as a float array.

    Symmetry and the zero diagonal are required within `tol`, positivity
    off the diagonal exactly, and the triangle inequality within `tol`.
    Raises NotAMetric identifying the violating pair or triple, and
    ValidationError for a non-finite entry. The checks share one n-by-n
    scratch buffer, so the scratch memory is n^2 doubles plus an n^2
    boolean mask; the triangle check takes O(n^3) time.
    """
    D = np.asarray(D, dtype=float)
    if D.ndim != 2 or D.shape[0] != D.shape[1]:
        raise NotAMetric("distance matrix must be square")
    if not np.all(np.isfinite(D)):
        i, j = np.argwhere(~np.isfinite(D))[0]
        raise ValidationError(f"non-finite distance at {(int(i), int(j))}")
    n = D.shape[0]
    if np.any(np.abs(np.diag(D)) > tol):
        i = int(np.argmax(np.abs(np.diag(D)) > tol))
        raise NotAMetric("nonzero diagonal", (i, i))
    buf = np.empty_like(D)
    asym = np.abs(np.subtract(D, D.T, out=buf), out=buf)
    if np.any(asym > tol):
        i, j = np.argwhere(asym > tol)[0]
        raise NotAMetric("asymmetric entry", (int(i), int(j)))
    if np.any(D < -tol):
        i, j = np.argwhere(D < -tol)[0]
        raise NotAMetric("negative distance", (int(i), int(j)))
    if n > 1:
        off = buf
        np.copyto(off, D)
        np.fill_diagonal(off, np.inf)
        if np.any(off <= 0.0):
            i, j = np.argwhere(off <= 0.0)[0]
            raise NotAMetric("zero distance between distinct points", (int(i), int(j)))
    for k in range(n):
        slack = np.subtract(D, np.add(D[:, k, None], D[k, None, :], out=buf), out=buf)
        if slack.max() > tol:
            i, j = np.argwhere(slack > tol)[0]
            raise NotAMetric("triangle inequality violated", (int(i), int(k), int(j)))
    return D


def embed_mm_space(
    D, weights, family: FamilyTag = ID_FAMILY, point_ids=None, tol: float = METRIC_TOL
) -> FiniteGDS:
    """Embed a metric-measure space as a geometric data set.

    The generators are the rows of the distance matrix (one
    distance-to-point feature per base point), held in one read-only
    copy of D. Their induced metric max_y |d(x, y) - d(x', y)| equals
    d(x, x') in exact arithmetic, attained at y = x. So when D is
    exactly symmetric with an exactly zero diagonal, as every generated
    recipe is, `X.metric` is that copy itself: it meets the triangle
    inequality within `tol` exactly when D does, its off-diagonal
    entries are positive as check_metric demands, and the embedding
    makes one O(n^3) pass, check_metric's. A matrix that is symmetric
    or zero on the diagonal only within `tol` keeps the induced metric
    of its rows, with the separation check of validate_gds.
    """
    D = check_metric(D, tol=tol)
    if point_ids is None:
        point_ids = tuple(range(D.shape[0]))
    if np.any(np.diagonal(D)) or not np.array_equal(D, D.T):
        return validate_gds(point_ids, D, family, weights)
    X = _dataset(point_ids, D, family, weights)
    X.__dict__["metric"] = X.generators  # fills the cached property
    return X
