"""Shared numeric kernels.

All routines here are pure functions of ndarrays. They are the single
implementation behind the scalar APIs and their batched (row-wise)
counterparts, so the two always agree bit for bit.
"""
from __future__ import annotations

import numpy as np

# Guard for comparisons against accumulated probability masses. Mass sums
# carry rounding noise well below this; genuine breakpoints in test data
# are far above it.
MASS_GUARD = 1e-12

# Entries per row block. A row kernel's temporaries are a small multiple
# of one block, so its scratch memory does not grow with the row count.
BLOCK_ENTRIES = 8192


def row_blocks(body, n_rows: int, width: int):
    """body(rows) over consecutive row slices, concatenated along rows.

    Each slice holds about BLOCK_ENTRIES // width rows of `width`
    entries (at least one row). `body` takes a slice and returns an
    array, or a tuple of arrays, with one leading entry per row. Every
    caller computes each row on its own, so the result is bit for bit
    body(slice(0, n_rows)); zero rows make one call on an empty slice.
    """
    step = max(1, BLOCK_ENTRIES // max(width, 1))
    parts = [body(slice(i, i + step)) for i in range(0, n_rows or 1, step)]
    if len(parts) == 1:
        return parts[0]
    if isinstance(parts[0], tuple):
        return tuple(np.concatenate(p) for p in zip(*parts))
    return np.concatenate(parts)


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

    For each row d, returns the smallest eps >= 0 with
    mass({d > eps}) <= eps. Exact over the finite candidate set
    {0} | {d_i} | {tail masses}; no grid is involved. Rows are scored in
    blocks of about BLOCK_ENTRIES entries, so for n columns the scratch
    memory is about 10 * max(BLOCK_ENTRIES, n) doubles for any row count.
    """
    diffs = np.asarray(diffs, dtype=float)
    if diffs.ndim == 1:
        diffs = diffs[None, :]
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


def kf_single(diffs: np.ndarray, masses: np.ndarray) -> float:
    return float(kf_rows(np.asarray(diffs, dtype=float)[None, :], masses)[0])


def window_tradeoff_values(deltas: np.ndarray, masses: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise exact translation-orbit Ky Fan distance and optimal shift.

    For each row delta, min over shifts c of KF(delta - c) equals the
    minimum over support windows [delta_i, delta_j] of
    max(width / 2, 1 - window mass), attained at c = the window
    midpoint. Returns (values, shifts); ties are broken toward the
    smallest midpoint. A row scores n(n+1)/2 windows; rows are scored in
    blocks of about BLOCK_ENTRIES windows, so the scratch memory is a
    small multiple of max(BLOCK_ENTRIES, n(n+1)/2) doubles.
    """
    deltas = np.asarray(deltas, dtype=float)
    if deltas.ndim == 1:
        deltas = deltas[None, :]
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
