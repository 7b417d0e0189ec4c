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

ProbVector is the one check of a probability vector, DiscreteMeasureR's
masses included; MARGINAL_TOL is the one tolerance for masses that must
agree, as a coupling's marginals and the masses a point map pulls back.

All types are immutable after construction and every operation is a
pure function, so values can be shared freely across threads.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._kernels import BLOCK_ENTRIES, MASS_GUARD, block_slices
from .errors import (
    DimensionMismatch,
    IndistinctPoints,
    InvalidWeights,
    NotAMetric,
    ValidationError,
    ZeroWeight,
)

METRIC_TOL = 1e-9
MARGINAL_TOL = 1e-9

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
        All of lip1(R), searched exactly through McShane's extension.
        `parse` reads ``lip1:<n>`` (n a positive integer), the form that
        older files carry, as ``lip1``.
    """

    kind: str

    def __post_init__(self):
        if self.kind not in _FAMILY_KINDS:
            raise ValidationError(f"unknown family kind {self.kind!r}")

    @property
    def contains_translations(self) -> bool:
        return self.kind in ("T", "TB", "lip1")

    @property
    def contains_clips(self) -> bool:
        return self.kind in ("B", "TB", "lip1")

    def __str__(self) -> str:
        return self.kind

    @classmethod
    def parse(cls, text: str) -> "FamilyTag":
        kind, _, budget = text.partition(":")
        if kind == "lip1" and budget.isdecimal() and int(budget) > 0:
            return cls(kind)
        return cls(text)


ID_FAMILY = FamilyTag("id")
T_FAMILY = FamilyTag("T")
B_FAMILY = FamilyTag("B")
TB_FAMILY = FamilyTag("TB")


def _readonly(arr) -> np.ndarray:
    """A read-only float64 array.

    A float64 ndarray that owns its memory and is already read-only is
    returned as is, with no O(n^2) copy: it is taken as final, as
    generate_space and the JSON reader build it, keeping no writable
    view. Every other input is copied, read-only views included, since
    their base may still be written.
    """
    if (
        type(arr) is np.ndarray
        and arr.dtype == np.float64
        and arr.flags.owndata
        and not arr.flags.writeable
    ):
        return arr
    arr = np.array(arr, dtype=float)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class ProbVector:
    """A fully supported probability vector.

    Every weight must be finite and strictly positive, and the total
    must equal 1 within MASS_GUARD.
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
        if abs(float(w.sum()) - 1.0) > MASS_GUARD:
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

    Atom values are finite and strictly increasing; the masses must
    form a ProbVector.
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
        if np.any(np.diff(v) <= 0.0):
            raise ValidationError("atom values must be strictly increasing")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "masses", ProbVector(m).weights)

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
        """The induced metric, an n-by-n matrix built on first read and
        by nothing else in the library; embed_mm_space sets it to the
        validated distance matrix instead (equal in exact arithmetic)."""
        d = induced_metric(self)
        d.setflags(write=False)
        return d

    @cached_property
    def od_steps(self):
        """The observable diameter as a step function of kappa
        (obsdiam.OdSteps), built on first use."""
        from .obsdiam import OdSteps  # obsdiam imports this module

        return OdSteps.build(self)

    @property
    def diameter(self) -> float:
        """The largest induced distance (rounding is monotone): the widest generator spread."""
        return float(np.ptp(self.generators, axis=1).max())


def _dataset(points, generators, family: FamilyTag, weights) -> FiniteGDS:
    mu = weights if isinstance(weights, ProbVector) else ProbVector(np.asarray(weights))
    return FiniteGDS(tuple(points), np.asarray(generators, dtype=float), family, mu)


def validate_gds(points, generators, family: FamilyTag, weights) -> FiniteGDS:
    """Build a FiniteGDS, checking shapes, values, support and separation.

    Raises
    ------
    DimensionMismatch
        Inconsistent matrix and weight shapes.
    ValidationError
        A non-finite generator value.
    InvalidWeights
        Non-finite weights, or weights that do not sum to 1.
    ZeroWeight
        Some weight is not strictly positive.
    IndistinctPoints
        Two points agree on every generator (point_classes); the first
        such pair in row order is named.
    """
    X = _dataset(points, generators, family, weights)
    classes, firsts = point_classes(X.generators)
    if firsts.size < X.n_points:
        # classes go by first point, so the first class of two holds the first pair
        i, j = np.flatnonzero(classes == np.argmax(np.bincount(classes) > 1))[:2]
        raise IndistinctPoints(
            f"points {X.point_ids[i]!r} and {X.point_ids[j]!r} agree on every generator"
        )
    return X


def point_classes(G: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group the points (columns) of the feature matrix G by exact value
    equality, -0.0 equal to 0.0: each point's class, the classes numbered
    by first point, and the first point of each class. A stable column
    sort puts equal columns side by side in point order, and neighbours
    are compared one row at a time, so the memory beyond G is O(n + g).
    """
    n = G.shape[1]
    order = np.lexsort(G)
    same = True
    for row in G:
        row = row[order]
        same = same & (row[1:] == row[:-1])
    start = np.concatenate(([True], ~same))
    heads = order[start]
    firsts = np.sort(heads)
    classes = np.empty(n, dtype=int)
    classes[order] = np.searchsorted(firsts, heads)[np.cumsum(start) - 1]
    return classes, firsts


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


def _first_hit(n: int, mask):
    """The first (i, j) in row order with mask(rows)[i - rows.start, j],
    or None. `mask` maps a slice of rows of an n-by-n matrix to a
    boolean block, so the scratch memory is one block."""
    for rows in block_slices(n, n):
        hit = mask(rows)
        if hit.any():
            i, j = np.argwhere(hit)[0]
            return rows.start + int(i), int(j)
    return None


def _first_zero_off_diagonal(D: np.ndarray):
    """The first (i, j), i != j, in row order with D[i, j] <= 0, or None."""

    def mask(rows):
        hit = D[rows] <= 0.0
        diag = np.arange(D.shape[0])[rows]
        hit[np.arange(diag.size), diag] = False
        return hit

    return _first_hit(D.shape[0], mask)


def _exactly_symmetric(D: np.ndarray) -> bool:
    return _first_hit(D.shape[0], lambda rows: D[rows] != D[:, rows].T) is None


def _triangle_violation(D: np.ndarray):
    """Some (i, k, j) with D[i, j] - (D[i, k] + D[k, j]) > METRIC_TOL,
    or None.

    A min-plus product over strips of rows times blocks of k. Rounding
    is monotone, so fl(d - s) cannot grow with s, and the largest slack
    of a pair (i, j) is fl(D[i, j] - min_k s_k) with s_k = fl(D[i, k] +
    D[k, j]), the sum a loop over k would form: a violation exists
    exactly when one strip entry's slack exceeds METRIC_TOL. A strip
    checks only the columns j >= its first row: for D alone when D is
    exactly symmetric (the pair (j, i) then has the same sums), otherwise
    for D and D.T (whose pair (i, j) is D's pair (j, i)). The
    strip-by-block sums hold about max(2 * BLOCK_ENTRIES, n^2 / 64)
    entries, at most n^3.
    """
    n = D.shape[0]
    cap = min(n**3, max(2 * BLOCK_ENTRIES, n * n // 64))
    height = max(1, math.isqrt(cap // n))
    pairs = ((False, D),) if _exactly_symmetric(D) else ((False, D), (True, D.T))
    for transposed, M in pairs:
        for a in range(0, n, height):
            strip = M[a : a + height, a:]
            r, m = strip.shape
            depth = max(1, cap // (r * m))
            sums = np.empty((r, depth, m))
            part = np.empty((r, m))
            least = np.full((r, m), np.inf)
            for c in range(0, n, depth):
                left = M[a : a + r, c : c + depth]
                block = sums[:, : left.shape[1]]
                np.add(left[:, :, None], M[c : c + depth, a:][None, :, :], out=block)
                np.minimum(least, np.min(block, axis=1, out=part), out=least)
            bad = np.subtract(strip, least, out=least) > METRIC_TOL
            if bad.any():
                i, j = np.argwhere(bad)[0] + a
                k = int(np.argmax(M[i, j] - (M[i, :] + M[:, j]) > METRIC_TOL))
                return (int(j), k, int(i)) if transposed else (int(i), k, int(j))
    return None


def check_metric(D: np.ndarray) -> np.ndarray:
    """Validate a distance matrix; returns it as a float array.

    Symmetry and the zero diagonal are required within METRIC_TOL,
    positivity off the diagonal exactly, and the triangle inequality
    within METRIC_TOL.
    Raises NotAMetric identifying a violating pair or triple, and
    ValidationError for a non-finite entry. The checks run in that order
    and by row blocks, so a matrix breaking several axioms reports the
    same axiom as a whole-matrix check would, and each pair check
    reports the first violating pair in row order. The triangle check
    is a min-plus product in O(n^3) time (about half that for an exactly
    symmetric matrix); it reports some violating triple, not
    necessarily the first. The scratch memory is a few blocks, at most
    about max(2 * BLOCK_ENTRIES, n^2 / 64) doubles, never a copy of D.
    """
    D = np.asarray(D, dtype=float)
    if D.ndim != 2 or D.shape[0] != D.shape[1]:
        raise NotAMetric("distance matrix must be square")
    n = D.shape[0]
    hit = _first_hit(n, lambda rows: ~np.isfinite(D[rows]))
    if hit:
        raise ValidationError(f"non-finite distance at {hit}")
    if np.any(np.abs(np.diag(D)) > METRIC_TOL):
        i = int(np.argmax(np.abs(np.diag(D)) > METRIC_TOL))
        raise NotAMetric("nonzero diagonal", (i, i))

    def asymmetric(rows):
        gap = D[rows] - D[:, rows].T
        return np.abs(gap, out=gap) > METRIC_TOL

    hit = _first_hit(n, asymmetric)
    if hit:
        raise NotAMetric("asymmetric entry", hit)
    hit = _first_hit(n, lambda rows: D[rows] < -METRIC_TOL)
    if hit:
        raise NotAMetric("negative distance", hit)
    hit = _first_zero_off_diagonal(D)
    if hit:
        raise NotAMetric("zero distance between distinct points", hit)
    # with the checks above passed, no pair (i, i) breaks the triangle
    # inequality, so one point needs no triangle check. A sum of two
    # finite distances may overflow to inf, which breaks nothing
    with np.errstate(over="ignore"):
        hit = _triangle_violation(D) if n > 1 else None
    if hit:
        raise NotAMetric("triangle inequality violated", hit)
    return D


def embed_mm_space(D, weights, family: FamilyTag = ID_FAMILY, point_ids=None) -> FiniteGDS:
    """Embed a metric-measure space as a geometric data set.

    The generators are the rows of the distance matrix (one
    distance-to-point feature per base point), held as one read-only
    float64 array: D itself when it is an owned read-only float64 array
    (as generate_space and the metric-form reader build it), otherwise a
    copy. Their induced metric max_y |d(x, y) - d(x', y)| equals d(x, x')
    in exact arithmetic, attained at y = x. So when D is exactly
    symmetric with an exactly zero diagonal, as every generated recipe
    is, `X.metric` is that array itself: it meets the triangle
    inequality within METRIC_TOL exactly when D does, its off-diagonal
    entries are positive as check_metric demands, and the embedding
    makes one O(n^3) pass, check_metric's, in block-sized scratch. A
    matrix that is symmetric or zero on the diagonal only within
    METRIC_TOL goes through validate_gds, and its `X.metric` is the
    induced metric of its rows, built when read.
    """
    D = check_metric(D)
    if point_ids is None:
        point_ids = tuple(range(D.shape[0]))
    if np.any(np.diagonal(D)) or not _exactly_symmetric(D):
        return validate_gds(point_ids, D, family, weights)
    X = _dataset(point_ids, D, family, weights)
    X.__dict__["metric"] = X.generators  # fills the cached property
    return X
