"""Scalar metrics on finitely supported real measures and feature pairs.

Partial diameter and Levy mean act on DiscreteMeasureR; the Ky Fan
metric compares two feature value lists under a common weight vector;
the Prohorov distance compares two measures on the line. All of them
are computed exactly over finite candidate sets, no grids involved.
"""
from __future__ import annotations

import numpy as np

from ._kernels import MASS_GUARD, kf_rows, sorted_unique
from .core import DiscreteMeasureR, ProbVector
from .errors import DimensionMismatch, EmptySet, InvalidAlpha


def partial_diameter(mu: DiscreteMeasureR, alpha: float) -> float:
    """Smallest diameter of a set carrying mass at least alpha.

    For a finitely supported measure the infimum over Borel sets is
    attained on a closed interval with endpoints in the support (the
    convex hull of any set has the same diameter and at least the same
    mass), so a minimal support window realizes it. Mass comparisons
    use a weak inequality with a MASS_GUARD allowance for float noise
    in accumulated sums.
    """
    return min_window(mu, alpha)[0]


def min_window(mu: DiscreteMeasureR, alpha: float) -> tuple[float, float, float]:
    """(width, left, right) of the leftmost support window [left, right]
    of least width among those carrying mass at least alpha; the width
    is partial_diameter(mu, alpha)."""
    if not (0.0 < alpha <= 1.0):
        raise InvalidAlpha(f"alpha must be in (0, 1], got {alpha!r}")
    v = mu.values
    prefix = np.concatenate([[0.0], np.cumsum(mu.masses)])
    need = prefix[:-1] + (alpha - MASS_GUARD)
    pos = np.searchsorted(prefix, need, side="left")  # window end + 1, per start
    left = np.flatnonzero(pos <= v.size)
    right = pos[left] - 1
    widths = v[right] - v[left]
    k = int(np.argmin(widths))
    return float(widths[k]), float(v[left[k]]), float(v[right[k]])


def levy_mean(mu: DiscreteMeasureR) -> float:
    """Smallest support value whose cumulative mass reaches 1/2."""
    cum = np.cumsum(mu.masses)
    idx = int(np.searchsorted(cum, 0.5 - MASS_GUARD, side="left"))
    return float(mu.values[min(idx, mu.values.size - 1)])


def ky_fan(f, g, mu: ProbVector) -> float:
    """Ky Fan distance between two feature value lists under mu.

    The smallest eps >= 0 with mu({|f - g| > eps}) <= eps. The
    feasibility function is a right-continuous step function of eps, so
    the minimum is attained on the finite candidate set of distinct
    difference values and tail masses; it is computed there exactly.
    Always at most 1.
    """
    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
    if f.shape != g.shape or f.ndim != 1 or f.size != len(mu):
        raise DimensionMismatch("feature lists and weights must share one length")
    return float(kf_rows(np.abs(f - g)[None, :], mu.weights)[0])


def _routable_mass(nu: DiscreteMeasureR, mu: DiscreteMeasureR, d: float) -> float:
    """Maximum nu-mass routable to mu across atom pairs with |x - y| <= d.

    The neighbours of each nu-atom form a contiguous run of mu-atoms,
    and both ends of the run only move right as the nu-atom does (a
    convex bipartite graph). Sweeping the nu-atoms in order and filling
    the leftmost mu-atom with capacity left is therefore a maximum
    flow (Glover 1967).
    """
    x = mu.values
    room = mu.masses.astype(float)
    flow = 0.0
    i = 0
    for y, need in zip(nu.values, nu.masses):
        # atoms left of y that are full or out of reach stay so for every later y
        while i < x.size and (room[i] == 0.0 or (x[i] < y and abs(y - x[i]) > d)):
            i += 1
        k = i
        while need > 0.0 and k < x.size and abs(y - x[k]) <= d:
            take = min(need, room[k])
            room[k] -= take
            need -= take
            flow += take
            k += 1
    return flow


def prohorov(mu: DiscreteMeasureR, nu: DiscreteMeasureR) -> float:
    """Prohorov distance, one-sided form.

    inf of eps >= 0 such that mu(U(A, eps)) >= nu(A) - eps for every
    Borel A, with U the open eps-neighborhood. Writing D(eps) for the
    worst-case deficiency max_A (nu(A) - mu(U(A, eps))), the distance is
    min over candidate thresholds d_k (the distinct atom distances,
    plus 0) of max(d_k, D_k), where D_k uses adjacency |x - y| <= d_k.
    Each D_k equals 1 minus a bipartite max-flow value, which encodes
    the subset condition without enumerating subsets. D is
    nonincreasing and the threshold sequence increasing, so the
    crossing is located by binary search.
    """
    dists = np.abs(nu.values[:, None] - mu.values[None, :])
    cands = sorted_unique(np.concatenate([[0.0], dists.ravel()]))

    cache: dict[int, float] = {}

    def deficiency(k: int) -> float:
        if k not in cache:
            flow = _routable_mass(nu, mu, cands[k])
            cache[k] = max(0.0, float(nu.masses.sum()) - flow)
        return cache[k]

    lo, hi = 0, len(cands) - 1
    if deficiency(lo) <= cands[lo]:
        return float(cands[lo])
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if deficiency(mid) <= cands[mid]:
            hi = mid
        else:
            lo = mid
    return float(min(deficiency(hi - 1), cands[hi]))


def hausdorff(A, B, dist) -> float:
    """Hausdorff distance between two index sets under a distance table.

    max over a of min over b of dist[a][b], symmetrized.
    """
    A = list(A)
    B = list(B)
    if not A or not B:
        raise EmptySet("both sets must be nonempty")
    dist = np.asarray(dist, dtype=float)
    sub = dist[np.ix_(A, B)]
    return float(max(sub.min(axis=1).max(), sub.min(axis=0).max()))
