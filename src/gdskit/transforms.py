"""Quotients, bounded feature measurements, and domination checking.

A quotient keeps only a chosen list of feature rows and identifies the
points those rows cannot separate. Identification uses exact value
equality; noisy data should be pre-rounded by the caller (the CLI
exposes a rounding flag), since tolerance-based identification would
break transitivity.

An (N, R)-measurement is the quotient by at most N generator rows, each
clipped into [-R, R]. Domination search enumerates measure-compatible
point maps with mass pruning and tests pulled-back features against the
source family orbits; `Unknown` is a first-class outcome when the
search budget runs out.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .core import MARGINAL_TOL, FiniteGDS, ProbVector, point_classes
from .errors import EmptyG, InvalidSpec
from .families import dist_to_orbit
from .maps import ClipMap


@dataclass(frozen=True)
class MeasurementSpec:
    """A choice of generator rows and a clip bound for a measurement."""

    feature_indices: tuple[int, ...]
    R: float

    def __post_init__(self):
        object.__setattr__(self, "feature_indices", tuple(self.feature_indices))
        if len(self.feature_indices) == 0:
            raise InvalidSpec("at least one feature index is required")
        if len(set(self.feature_indices)) != len(self.feature_indices):
            raise InvalidSpec("feature indices must be distinct")
        if not self.R > 0:
            raise InvalidSpec("clip bound R must be positive (or inf)")


def quotient(X: FiniteGDS, G) -> tuple[FiniteGDS, np.ndarray]:
    """Quotient of X by the feature rows G.

    Points are identified when all rows of G agree on them exactly
    (core.point_classes); masses are summed, and each class keeps its
    first point. Returns the quotient data set together with the point
    map (an array sending each source index to its class index). The map
    pushes the measure forward exactly and pulls every result feature
    back to a row of G, so it is a domination.
    """
    G = np.asarray(G, dtype=float) + 0.0
    if G.ndim != 2 or G.shape[0] == 0:
        raise EmptyG("at least one feature row is required")
    if G.shape[1] != X.n_points:
        raise EmptyG(f"rows of length {G.shape[1]} for {X.n_points} points")
    qmap, reps = point_classes(G)
    masses = np.bincount(qmap, weights=X.masses, minlength=reps.size)
    ids = tuple(X.point_ids[i] for i in reps)
    return FiniteGDS(ids, G[:, reps], X.family, ProbVector(masses)), qmap


def measurement(X: FiniteGDS, spec: MeasurementSpec) -> FiniteGDS:
    """Quotient of X by the clipped rows b_R of the selected generators.

    The result has at most N = len(spec.feature_indices) generators, all
    valued in [-R, R], and is dominated by X.
    """
    if any(i < 0 or i >= X.n_generators for i in spec.feature_indices):
        raise InvalidSpec(f"feature index out of range for {X.n_generators} generators")
    clip = ClipMap.bound(spec.R) if math.isfinite(spec.R) else ClipMap.identity()
    rows = np.vstack([clip.apply(X.generators[i]) for i in spec.feature_indices])
    result, _ = quotient(X, rows)
    return result


@dataclass(frozen=True)
class MeasurementSample:
    """Measurements produced by enumerate_measurements."""

    members: tuple[FiniteGDS, ...]
    specs: tuple[MeasurementSpec, ...]
    exhaustive: bool


def enumerate_measurements(
    X: FiniteGDS, N: int, R: float, budget: int, seed: int = 0
) -> MeasurementSample:
    """All (or a seeded sample of) measurements by generator subsets of
    size min(N, generator count).

    Feature sets may repeat entries without changing the quotient, so
    any measurement by at most N features is realized by a subset of
    exactly this size; specs are canonicalized to such subsets. When
    the subset count fits the budget the enumeration is exhaustive
    (lexicographic); otherwise exactly `budget` subsets are drawn
    uniformly, with replacement across draws. Deterministic for fixed
    arguments; isomorphic duplicate results are retained.
    """
    if N < 1:
        raise InvalidSpec("N must be at least 1")
    if budget < 1:
        raise InvalidSpec("budget must be at least 1")
    g = X.n_generators
    k = min(N, g)
    total = math.comb(g, k)
    specs: list[MeasurementSpec] = []
    if total <= budget:
        for combo in combinations(range(g), k):
            specs.append(MeasurementSpec(combo, R))
        exhaustive = True
    else:
        rng = np.random.default_rng(seed)
        for _ in range(budget):
            combo = tuple(sorted(int(i) for i in rng.choice(g, size=k, replace=False)))
            specs.append(MeasurementSpec(combo, R))
        exhaustive = False
    members = tuple(measurement(X, spec) for spec in specs)
    return MeasurementSample(members, tuple(specs), exhaustive)


@dataclass(frozen=True)
class DominationVerdict:
    """Outcome of a domination search.

    status is one of "Dominates", "NotDominated", "Unknown". A
    Dominates verdict carries the witness point map; NotDominated
    carries a certificate describing the best failed candidate. `steps`
    counts the partial point maps the search made.
    """

    status: str
    witness_map: tuple[int, ...] | None = None
    certificate: str | None = None
    steps: int = 0


class _MapSearch:
    """The maps X -> Y whose preimage masses match Y's, in lexicographic
    order.

    A depth-first search assigns X's points in index order, each to the
    first Y point whose remaining mass still fits, and backtracks.
    Assigning one point is one step; iteration stops once `budget`
    steps are spent and sets `exhausted`. `steps` counts the steps made.
    """

    def __init__(self, x_masses, y_masses, budget: int):
        self.x_masses = [float(m) for m in x_masses]
        self.y_masses = [float(m) for m in y_masses]
        self.budget = budget
        self.steps = 0
        self.exhausted = False

    def __iter__(self):
        xm, remaining = self.x_masses, list(self.y_masses)
        assign = [-1] * len(xm)
        i = 0
        while i >= 0:
            y = assign[i]
            if y >= 0:
                remaining[y] += xm[i]
            y += 1
            while y < len(remaining) and remaining[y] < xm[i] - MARGINAL_TOL:
                y += 1
            if y == len(remaining):
                assign[i] = -1
                i -= 1
                continue
            if self.steps == self.budget:
                self.exhausted = True
                return
            self.steps += 1
            remaining[y] -= xm[i]
            assign[i] = y
            if i + 1 < len(xm):
                i += 1
            elif all(abs(r) <= MARGINAL_TOL for r in remaining):
                yield tuple(assign)


def check_domination(
    X: FiniteGDS, Y: FiniteGDS, tol: float = 1e-9, budget: int = 5000
) -> DominationVerdict:
    """Does X dominate Y (a measure-preserving map pulling Y's features
    into X's family orbits)?

    Point maps are enumerated in canonical order with mass pruning, so
    the reported witness is schedule-independent, and each is scored as
    soon as it is found, so a Dominates verdict stops at its witness.
    Every pulled-back Y-generator must sit within `tol` of some
    X-generator orbit. `budget` bounds the search steps: each
    assignment of one point to a Y point counts one. When the budget
    runs out first the verdict is Unknown, with the best candidate seen
    recorded in the certificate.

    NotDominated needs every candidate map rejected: some Y-generator
    whose exact orbit distances all exceed tol. A negative budget is an
    InvalidSpec.
    """
    if budget < 0:
        raise InvalidSpec(f"search budget must be >= 0, got {budget}")
    search = _MapSearch(X.masses, Y.masses, budget)
    best_score, best_map = math.inf, None
    for cand in search:
        cand_arr = np.asarray(cand)
        worst = 0.0
        for grow in Y.generators:
            pulled = grow[cand_arr]
            dist = min(dist_to_orbit(pulled, xrow, X.family, X.mu).value for xrow in X.generators)
            worst = max(worst, dist)
            if worst > tol and worst >= best_score:
                break
        if worst <= tol:
            return DominationVerdict("Dominates", witness_map=cand, steps=search.steps)
        if worst < best_score:
            best_score, best_map = worst, cand
    if search.exhausted:
        cert = f"budget of {budget} search steps exhausted"
        if best_map is not None:
            cert += f"; best candidate {best_map} missed orbits by {best_score:.6g}"
        return DominationVerdict("Unknown", certificate=cert, steps=search.steps)
    if best_map is None:
        cert = "no measure-compatible point map exists"
    else:
        cert = (
            f"best candidate {best_map} pulls some feature {best_score:.6g} "
            f"away from the source orbits (tol {tol:.3g})"
        )
    return DominationVerdict("NotDominated", certificate=cert, steps=search.steps)


def rounded(X: FiniteGDS, decimals: int) -> tuple[FiniteGDS, np.ndarray]:
    """Round generator values and quotient away points that coincide
    afterwards; returns the rounded data set and the point map. Python's
    exact `round` serves where np.round's 10^decimals scaling overflows,
    and |decimals| > 400 act as 400. InvalidSpec: a value past every float."""
    decimals = min(max(decimals, -400), 400)
    with np.errstate(all="ignore"):
        rows = np.round(X.generators, decimals)
    lost = ~np.isfinite(rows)  # generator values are finite
    try:
        rows[lost] = [round(float(x), decimals) for x in X.generators[lost]]
    except OverflowError as exc:
        raise InvalidSpec(f"values rounded to {decimals} decimals pass the largest float") from exc
    return quotient(X, rows)
