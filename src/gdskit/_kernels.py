"""Shared numeric kernels.

All routines here are pure functions of ndarrays. They are the single
implementation behind the scalar APIs and their batched (row-wise)
counterparts, so the two always agree bit for bit:

- kf_rows: stats.ky_fan, and every Ky Fan orbit distance;
- pd_rows: stats.partial_diameter and obsdiam.observable_diameter;
- window_tradeoff_values: the Ky Fan distance to a translation orbit;
- Differences, the breakpoint search: stats.prohorov, the law lower
  bound (laws.orbit_law_distance) and the link-set search
  (laws.link_lower).
"""
from __future__ import annotations

import math

import numpy as np

# Guard for comparisons against accumulated probability masses, and for a
# ProbVector's total (core). Mass sums carry rounding noise well below
# this; genuine breakpoints in test data are far above it.
MASS_GUARD = 1e-12

# Entries per row block. A row kernel's temporaries are a small multiple
# of one block, so its scratch memory does not grow with the row count.
BLOCK_ENTRIES = 8192


def block_slices(n_rows: int, width: int) -> list[slice]:
    """Consecutive row slices of about BLOCK_ENTRIES // width rows of
    `width` entries each (at least one row); zero rows give one empty
    slice."""
    step = max(1, BLOCK_ENTRIES // max(width, 1))
    return [slice(i, i + step) for i in range(0, n_rows or 1, step)]


def row_blocks(body, n_rows: int, width: int):
    """body(rows) over block_slices(n_rows, width), concatenated along
    rows.

    `body` takes a slice and returns an array, or a tuple of arrays,
    with one leading entry per row. Every caller computes each row on
    its own, so the result is bit for bit body(slice(0, n_rows)); zero
    rows make one call on an empty slice.
    """
    parts = [body(rows) for rows in block_slices(n_rows, width)]
    if len(parts) == 1:
        return parts[0]
    if isinstance(parts[0], tuple):
        return tuple(np.concatenate(p) for p in zip(*parts))
    return np.concatenate(parts)


def sorted_unique(x) -> np.ndarray:
    """The distinct values of x, flattened and sorted: np.unique(x)
    without its numpy.ma check.

    numpy's own algorithm for floats: sort, then keep each entry that
    differs from its left neighbour. The sort is np.unique's, so among
    equal entries (0.0 and -0.0) the same one is kept and the result is
    bit for bit np.unique(x) for NaN-free input; np.unique also folds
    NaNs into one, which this does not.
    """
    aux = np.sort(x, axis=None)
    mask = np.empty(aux.shape, dtype=bool)
    mask[:1] = True
    np.not_equal(aux[1:], aux[:-1], out=mask[1:])
    return aux[mask]


def pd_rows(values: np.ndarray, masses: np.ndarray, alpha: float) -> np.ndarray:
    """Row-wise minimal width of a value window carrying mass >= alpha.

    Parameters
    ----------
    values : (R, n) array
        One row per feature; columns share the weight vector `masses`.
    masses : (n,) array
        Positive weights summing to 1.
    alpha : float
        Required mass, in (0, 1].

    Returns
    -------
    (R,) array of window widths.

    Rows are searched in blocks of about BLOCK_ENTRIES entries, so the
    scratch memory is about 12 * max(BLOCK_ENTRIES, n) doubles for any R.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim == 1:
        values = values[None, :]
    masses = np.asarray(masses, dtype=float)
    return row_blocks(lambda s: _pd_block(values[s], masses, alpha), *values.shape)


def _pd_block(values, masses, alpha):
    n_rows, n = values.shape
    order = np.argsort(values, axis=1, kind="stable")
    sorted_vals = np.take_along_axis(values, order, axis=1)
    sorted_mass = masses[order]
    prefix = np.concatenate(
        [np.zeros((n_rows, 1)), np.cumsum(sorted_mass, axis=1)], axis=1
    )
    # Row-wise searchsorted(prefix, needles, side="left") without shifting
    # rows into one flat array, which would round the needles. A stable
    # sort of [needles, prefix] puts each needle ahead of equal prefix
    # entries, and the needles are nondecreasing, so the k-th needle slot
    # of a row holds needle k with exactly slot - k prefix entries below it.
    needles = prefix[:, :n] + (alpha - MASS_GUARD)
    merged = np.argsort(np.concatenate([needles, prefix], axis=1), axis=1, kind="stable")
    slots = np.nonzero(merged < n)[1].reshape(n_rows, n)
    right = slots - np.arange(n) - 1  # window end; mass of [i..right] >= alpha - guard
    valid = right < n
    rows, left = np.nonzero(valid)
    widths = np.full((n_rows, n), np.inf)
    widths[rows, left] = sorted_vals[rows, right[valid]] - sorted_vals[rows, left]
    return widths.min(axis=1)


def _run_end_indices(sorted_rows: np.ndarray) -> np.ndarray:
    """Index of the last duplicate of each entry in row-sorted data."""
    n_rows, n = sorted_rows.shape
    is_run_end = np.concatenate(
        [sorted_rows[:, 1:] != sorted_rows[:, :-1], np.ones((n_rows, 1), dtype=bool)],
        axis=1,
    )
    idx = np.where(is_run_end, np.arange(n)[None, :], n)
    return np.minimum.accumulate(idx[:, ::-1], axis=1)[:, ::-1]


def kf_rows(diffs: np.ndarray, masses: np.ndarray) -> np.ndarray:
    """Row-wise Ky Fan value of nonnegative difference profiles.

    For each row d of an (R, n) array, returns the smallest eps >= 0 with
    mass({d > eps}) <= eps. Exact over the finite candidate set
    {0} | {d_i} | {tail masses}; no grid is involved. Rows are scored in
    blocks of about BLOCK_ENTRIES entries, so for n columns the scratch
    memory is about 10 * max(BLOCK_ENTRIES, n) doubles for any row count.
    """
    diffs = np.asarray(diffs, dtype=float)
    masses = np.asarray(masses, dtype=float)
    return row_blocks(lambda s: _kf_block(diffs[s], masses), *diffs.shape)


def _kf_block(diffs, masses):
    n_rows = diffs.shape[0]
    order = np.argsort(diffs, axis=1, kind="stable")
    v = np.take_along_axis(diffs, order, axis=1)
    m = masses[order]
    cum = np.cumsum(m, axis=1)
    total = cum[:, -1]
    run_end = _run_end_indices(v)
    rows = np.arange(n_rows)[:, None]
    mass_le = cum[rows, run_end]  # mass of {d <= v_i}, duplicates included
    tail = total[:, None] - mass_le
    best = np.min(np.maximum(v, tail), axis=1)
    # candidate eps = 0: feasible when nothing is strictly positive
    zero_le = np.where(v[:, 0] == 0.0, cum[np.arange(n_rows), run_end[:, 0]], 0.0)
    zero_tail = total - zero_le
    return np.minimum(best, np.maximum(0.0, zero_tail))


def window_tradeoff_values(deltas: np.ndarray, masses: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise exact translation-orbit Ky Fan distance and optimal shift.

    For each row delta of an (R, n) array, min over shifts c of
    KF(delta - c) equals the minimum over support windows [delta_i, delta_j] of
    max(width / 2, 1 - window mass), attained at c = the window
    midpoint. Returns (values, shifts); ties are broken toward the
    smallest midpoint. A row scores n(n+1)/2 windows; rows are scored in
    blocks of about BLOCK_ENTRIES windows, so the scratch memory is a
    small multiple of max(BLOCK_ENTRIES, n(n+1)/2) doubles.
    """
    deltas = np.asarray(deltas, dtype=float)
    masses = np.asarray(masses, dtype=float)
    n_rows, n = deltas.shape
    return row_blocks(lambda s: _window_block(deltas[s], masses), n_rows, n * (n + 1) // 2)


def _window_block(deltas, masses):
    n_rows, n = deltas.shape
    order = np.argsort(deltas, axis=1, kind="stable")
    v = np.take_along_axis(deltas, order, axis=1)
    m = masses[order]
    prefix = np.concatenate([np.zeros((n_rows, 1)), np.cumsum(m, axis=1)], axis=1)
    total = prefix[:, -1:]
    iidx, jidx = np.triu_indices(n)
    left, right = v[:, iidx], v[:, jidx]
    inside = prefix[:, jidx + 1] - prefix[:, iidx]
    scores = np.maximum((right - left) / 2.0, total - inside)
    best = scores.min(axis=1)
    # midpoints of the optimal windows only: most rows have few of them
    rows, cols = np.divmod(np.flatnonzero(scores == best[:, None]), iidx.size)
    shifts = np.full(n_rows, np.inf)
    np.minimum.at(shifts, rows, (left[rows, cols] + right[rows, cols]) / 2.0)
    return best, shifts


def window_tradeoff_min(delta: np.ndarray, masses: np.ndarray) -> tuple[float, float]:
    """window_tradeoff_values of a single row, as (value, shift)."""
    values, shifts = window_tradeoff_values(np.asarray(delta, dtype=float)[None, :], masses)
    return float(values[0]), float(shifts[0])


class Differences:
    """The breakpoints (v_q - v_p) / div over p < q of sorted distinct
    values v, searched without listing the n (n - 1) / 2 of them: for
    each p, those in (lo, hi) are a run of q, found by searchsorted."""

    def __init__(self, v, div):
        self.v, self.div = v, div
        self.span = float(np.abs(v).max())

    def _runs(self, lo, hi):
        """[start, stop) of the q, for each p, with (v_q - v_p) / div in
        (lo, hi), exactly in float."""
        v, n = self.v, self.v.size
        lo, hi = lo * self.div, hi * self.div  # div is a power of 2: exact
        slack = 8.0 * math.ulp(2.0 * self.span + hi)
        start = np.maximum(np.searchsorted(v, v + (lo - slack), side="left"), np.arange(1, n + 1))
        stop = np.maximum(np.searchsorted(v, v + (hi + slack), side="right"), start)
        # the searches are widened for the rounding of v_q - v_p; each end
        # then moves in past the few values that fail the exact test
        while (out := (start < stop) & (v[np.minimum(start, n - 1)] - v <= lo)).any():
            start += out
        while (out := (start < stop) & (v[stop - 1] - v >= hi)).any():
            stop -= out
        return start, stop

    def pivot(self, lo, hi):
        """A breakpoint in (lo, hi), or None: the median of their
        distinct values once at most BLOCK_ENTRIES remain, and before
        that the median of the runs' medians weighted by the runs'
        lengths, which has at least a quarter of them on either side."""
        v = self.v
        start, stop = self._runs(lo, hi)
        count = stop - start
        p = np.flatnonzero(count)
        count = count[p]
        total = int(count.sum())
        if total == 0:
            return None
        if total <= BLOCK_ENTRIES:
            rows = np.repeat(p, count)
            q = start[rows] + np.arange(total) - np.repeat(np.cumsum(count) - count, count)
            run = sorted_unique((v[q] - v[rows]) / self.div)
            return run[run.size // 2]
        mid = (v[start[p] + count // 2] - v[p]) / self.div
        order = np.argsort(mid, kind="stable")
        return mid[order[np.searchsorted(np.cumsum(count[order]), total / 2.0)]]

    def last(self, lo, hi):
        """The largest breakpoint in (lo, hi), or None."""
        start, stop = self._runs(lo, hi)
        p = np.flatnonzero(stop > start)
        return ((self.v[stop[p] - 1] - self.v[p]) / self.div).max() if p.size else None

    def least(self, lo, hi, u_lo, test) -> float:
        """min(e, u) for the first breakpoint e in (lo, hi) at which
        test(e) <= e, or e = hi when none is; u is test at the last
        breakpoint below e, or u_lo = test(lo) when (lo, e) holds none.

        Bisection: acceptance, test(e) <= e, must grow with e, and test
        must be constant between breakpoints, with lo not accepting.
        """
        while (mid := self.pivot(lo, hi)) is not None:
            u = test(mid)
            if u <= mid:
                hi = mid
            else:
                lo, u_lo = mid, u
        return float(min(hi, u_lo))


def linear_assignment(cost: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minimum-cost assignment of rows to columns, as (rows, cols).

    Shortest augmenting paths with dual variables (Crouse, "On
    implementing 2D rectangular assignment algorithms", IEEE TAES 2016),
    for a finite cost matrix with no more rows than columns. This is the
    algorithm of scipy.optimize.linear_sum_assignment, ported step for
    step: the column scan order, the tie rule and the floating-point
    order of the dual updates are scipy's, so both return the same
    assignment, tied optima included.
    """
    cost = np.asarray(cost, dtype=float)
    n_rows, n_cols = cost.shape
    u = np.zeros(n_rows)
    v = np.zeros(n_cols)
    path = np.full(n_cols, -1)
    col4row = np.full(n_rows, -1)
    row4col = np.full(n_cols, -1)
    for cur in range(n_rows):
        sink, min_val, spc, in_rows, in_cols = _augmenting_path(cost, u, v, path, row4col, cur)
        u[cur] += min_val
        in_rows[cur] = False
        rows = np.flatnonzero(in_rows)
        u[rows] += min_val - spc[col4row[rows]]
        v[in_cols] -= min_val - spc[in_cols]
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    return np.arange(n_rows), col4row


def _augmenting_path(cost, u, v, path, row4col, i):
    """One shortest augmenting path from row i to a free column.

    Returns (sink, min_val, path costs, rows visited, columns visited).
    """
    n_rows, n_cols = cost.shape
    # reverse column order, so a constant cost matrix gives the identity
    remaining = np.arange(n_cols - 1, -1, -1)
    spc = np.full(n_cols, np.inf)
    in_rows = np.zeros(n_rows, dtype=bool)
    in_cols = np.zeros(n_cols, dtype=bool)
    min_val = 0.0
    while True:
        in_rows[i] = True
        r = min_val + cost[i, remaining] - u[i] - v[remaining]
        better = r < spc[remaining]
        path[remaining[better]] = i
        spc[remaining[better]] = r[better]
        costs = spc[remaining]
        # among tied minima, the last free column in scan order, else the
        # first tied column
        tied = np.flatnonzero(costs == costs.min())
        free = tied[row4col[remaining[tied]] == -1]
        index = free[-1] if free.size else tied[0]
        min_val = costs[index]
        if min_val == np.inf:
            raise ValueError("cost matrix is infeasible")
        j = remaining[index]
        in_cols[j] = True
        remaining[index] = remaining[-1]
        remaining = remaining[:-1]
        if row4col[j] == -1:
            return j, min_val, spc, in_rows, in_cols
        i = row4col[j]
