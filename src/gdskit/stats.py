"""Scalar metrics on finitely supported real measures and feature pairs.

Partial diameter and Levy mean act on DiscreteMeasureR; the Ky Fan
metric compares two feature value lists under a common weight vector;
the Prohorov distance compares two measures on the line. All of them
are computed exactly over finite candidate sets, no grids involved.

One Hausdorff scan, _hausdorff, serves `hausdorff` on a distance table
and the dconc and box objectives (distances.py) on orbit distances.
"""
from __future__ import annotations

import numpy as np

from ._kernels import MASS_GUARD, Differences, kf_rows, pd_rows, sorted_unique
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
    if not (0.0 < alpha <= 1.0):
        raise InvalidAlpha(f"alpha must be in (0, 1], got {alpha!r}")
    return float(pd_rows(mu.values, mu.masses, alpha)[0])


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


def _nw_corner(mx, my, row_order, col_order):
    """North-west corner coupling of the masses mx and my, with rows and
    columns taken in the given orders."""
    pi = np.zeros((mx.size, my.size))
    rx = mx.astype(float).copy()
    ry = my.astype(float).copy()
    i, j = 0, 0
    while i < len(row_order) and j < len(col_order):
        r, c = row_order[i], col_order[j]
        t = min(rx[r], ry[c])
        pi[r, c] += t
        rx[r] -= t
        ry[c] -= t
        if rx[r] <= ry[c]:
            i += 1
        else:
            j += 1
    return pi


def _support_flow(mx, my, pairs) -> np.ndarray:
    """A coupling of the masses mx and my that puts on the index pairs
    (i, j) the most mass any coupling can.

    That mass is a maximum flow from the rows, with capacities mx, to the
    columns, with capacities my, over the pairs (Ford-Fulkerson): a greedy
    fill, then shortest augmenting paths, each of which leaves a row or a
    column without room or empties a pair it takes mass back from. The
    masses left over are coupled by the north-west corner rule; after a
    maximum flow no pair links a row and a column that both have some.
    """
    n, m = mx.size, my.size
    rx, ry = mx.astype(float).tolist(), my.astype(float).tolist()
    by_row = [[] for _ in range(n)]
    by_col = [[] for _ in range(m)]
    flow = {}
    for i, j in pairs:
        by_row[i].append(j)
        by_col[j].append(i)
        t = min(rx[i], ry[j])
        flow[i, j] = t
        rx[i] -= t
        ry[j] -= t
    while True:
        # breadth-first from every row with room left: a row reaches its
        # pairs' columns, and a column the rows of its pairs that carry flow
        row_from = {i: None for i in range(n) if rx[i] > 0.0}
        col_from = {}
        frontier, sink = list(row_from), None
        while frontier and sink is None:
            nxt = []
            for i in frontier:
                for j in by_row[i]:
                    if j in col_from:
                        continue
                    col_from[j] = i
                    if ry[j] > 0.0:
                        sink = j
                        break
                    for k in by_col[j]:
                        if k not in row_from and flow[k, j] > 0.0:
                            row_from[k] = j
                            nxt.append(k)
                if sink is not None:
                    break
            frontier = nxt
        if sink is None:
            break
        # the path gains on its pairs (i, col) and gives back on (i, row_from[i])
        gain, back, j = [], [], sink
        while True:
            i = col_from[j]
            gain.append((i, j))
            if row_from[i] is None:
                break
            j = row_from[i]
            back.append((i, j))
        t = min([rx[i], ry[sink]] + [flow[p] for p in back])
        rx[i] -= t
        ry[sink] -= t
        for p in gain:
            flow[p] += t
        for p in back:
            flow[p] -= t
    pi = _nw_corner(np.array(rx), np.array(ry), range(n), range(m))
    for (i, j), t in flow.items():
        pi[i, j] += t
    return pi


def prohorov(mu: DiscreteMeasureR, nu: DiscreteMeasureR) -> float:
    """Prohorov distance, one-sided form.

    inf of eps >= 0 such that mu(U(A, eps)) >= nu(A) - eps for every
    Borel A, with U the open eps-neighborhood. Writing D(d) for the
    worst-case deficiency max_A (nu(A) - mu(U(A, d))) with adjacency
    |x - y| <= d, D(d) is 1 minus a bipartite max-flow value, which
    encodes the subset condition without enumerating subsets. D is a
    nonincreasing step function that changes only at the atom distances
    |x - y|, so the distance is max(d, D(d)) minimized over those and 0,
    and the crossing of D(d) with d is located by bisection. It runs over
    the differences of the pooled atom values, which hold the atom
    distances and are searched without being listed (_kernels.Differences),
    so memory stays linear in the atoms: between two of them D is
    constant, and the result is that of the atom distances alone.
    """
    total = float(nu.masses.sum())

    def deficiency(d: float) -> float:
        return max(0.0, total - _routable_mass(nu, mu, d))

    d_lo = deficiency(0.0)
    if d_lo <= 0.0:
        return 0.0
    breaks = Differences(sorted_unique(np.concatenate([mu.values, nu.values])), 1.0)
    # at the span every atom reaches every other
    return breaks.least(0.0, float(breaks.v[-1] - breaks.v[0]), d_lo, deficiency)


def _hausdorff(fx, gy, forward, backward, cutoff=np.inf) -> float:
    """max(max_f min_g forward(f, g), max_g min_f backward(g, f)), over
    the members f of fx and g of gy.

    An inner minimum stops as soon as it is at or below the running
    maximum, since that row can no longer raise it, and the forward
    maximum carries into the backward pass. Both only skip values that
    cannot change the result, so it is bit for bit the full scan's.
    The scan also stops once the running maximum reaches `cutoff` and
    returns it. So the result is the full scan's whenever that is below
    `cutoff`, and at least `cutoff` otherwise.
    """
    best = -np.inf
    for rows, cols, dist in ((fx, gy, forward), (gy, fx, backward)):
        for a in rows:
            low = np.inf
            for b in cols:
                low = min(low, dist(a, b))
                if low <= best:
                    break
            best = max(best, low)
            if best >= cutoff:
                return best
    return best


def hausdorff(A, B, dist) -> float:
    """Hausdorff distance between two index sets under a distance table:
    _hausdorff over a in A and b in B of dist[a][b], symmetrized."""
    A = list(A)
    B = list(B)
    if not A or not B:
        raise EmptySet("both sets must be nonempty")
    table = np.asarray(dist, dtype=float)[np.ix_(A, B)].tolist()
    rows, cols = range(len(A)), range(len(B))
    return float(_hausdorff(rows, cols, lambda a, b: table[a][b], lambda b, a: table[a][b]))
