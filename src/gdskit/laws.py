"""The law lower bound's engine: how close the law of a feature comes
to the laws of a family orbit.

A coupling under which f and p o g are within eps in Ky Fan routes mass
1 - eps of the law of f to the law of p o g within distance eps (the
easy half of Strassen's theorem), and a box value below eps routes it
within eps / 2. orbit_law_distance finds the least such eps over a whole
orbit exactly, for the families id, T, B and TB: for a fixed reach the
mass routed changes only on an arrangement of hyperplanes in the map's
parameters, so scanning its vertices (_vertex_maps) is exact, and eps
is found by bisection over the breakpoints of the reach (_law_breaks),
which are searched without being listed. law_lower takes the bound
over the generators of two data sets, within a budget of flow steps,
and distances.lower_bound compares it with the od transfer bound.
"""
from __future__ import annotations

import math

import numpy as np

from ._kernels import Differences, block_slices, sorted_unique
from .core import FiniteGDS, pushforward


def _law_breaks(a, b, kind, per_eps):
    """The eps, besides 0, at which the most mass that one map of `kind`
    routes between the atoms a and b within t = eps * per_eps can
    change, as differences of one set of values (_kernels.Differences).

    Under the vertex maps each atom of b sits at a position q - t, q or
    q + t, q a sum of atom values, and every test compares such a
    position with a_k +- t or with another position. So a test switches
    where a difference of two such sums is t or 2 t: at |a_k - b_j|
    (id, B), |a_k| and (|a_i| -+ a_k) / 2 (B), (D - D') / 2 over pairs
    of differences D = a_k - b_j (T, TB), and (a_i - a_k) / 2 (TB).
    Each is a difference of two values of the set taken below, which
    holds some more; those only add steps to the bisection.
    """
    if kind == "id":
        return Differences(sorted_unique(np.concatenate([a, b])), per_eps)
    if kind == "B":
        return Differences(sorted_unique(np.concatenate([a, b, a / 2.0, -a / 2.0, [0.0]])), per_eps)
    d = (a[:, None] - b[None, :]).ravel()
    return Differences(sorted_unique(np.concatenate([d, a]) if kind == "TB" else d), 2.0 * per_eps)


def _vertex_maps(a, b, t, kind):
    """(c, lo, hi) of the maps x -> min(max(x + c, lo), hi) of the
    family `kind` that _routed scans; with the shift-then-clip maps of
    _tb_routed, one of them links every pair of atoms (a_k, b_j) that
    some one map of the family links within t.

    A pair is linked when |a_k - p(b_j)| <= t. For T and B, the shifts
    or radii that link a pair form a closed interval, and the largest
    left end among a map's linked pairs links all of them: c = a_k - t
    - b_j, and R = 0 or |a_k| - t. For TB they are the translations of
    T, which often accept at once, and the constant maps a_k - t;
    _tb_routed scans the rest.
    """
    if kind == "id":
        return np.zeros(1), np.array([-np.inf]), np.array([np.inf])
    if kind == "B":
        radii = sorted_unique(np.concatenate([[0.0], np.maximum(np.abs(a) - t, 0.0)]))
        return np.zeros(radii.size), -radii, radii
    shifts = sorted_unique(a[:, None] - t - b[None, :])
    c, lo, hi = shifts, np.full(shifts.size, -np.inf), np.full(shifts.size, np.inf)
    if kind == "T":
        return c, lo, hi
    return np.concatenate([c, np.zeros(a.size)]), np.concatenate([lo, a - t]), np.concatenate([hi, a - t])


def _reach(a, prefix, y, reach):
    """prefix at the first atom of a at or above y - reach and past the
    last one at or below y + reach: the run of a within reach of y."""
    return (
        prefix[np.searchsorted(a, y - reach, side="left")],
        prefix[np.searchsorted(a, y + reach, side="right")],
    )


def _routed(a, prefix, b, wb, reach, c, lo, hi) -> float:
    """The most mass any of the maps (c, lo, hi) routes from the atoms
    b, masses wb, to the atoms a within reach; prefix holds the
    cumulative masses of a from 0.

    Each map keeps b in order, and an atom of b reaches a run of atoms
    of a whose ends move right with it, so filling the leftmost atom of
    a with room left is a maximum flow (stats._routable_mass). The
    filled atoms then form a prefix of a's mass, up to skipped ones, so
    one cumulative position per map carries the whole state.
    """
    used = np.zeros(c.size)
    routed = np.zeros(c.size)
    for v, w in zip(b, wb):
        start, stop = _reach(a, prefix, np.minimum(np.maximum(v + c, lo), hi), reach)
        np.maximum(used, start, out=used)
        take = np.clip(stop - used, 0.0, w)
        used += take
        routed += take
    return float(routed.max())


def _tb_routed(a, prefix, b, wb, t, reach, eps, best) -> float:
    """The larger of `best` and the most mass a shift-then-clip map
    min(max(x + c, lo), hi) that is not constant on b routes from b to
    a within reach, as _routed; the scan may stop once some map leaves
    at most eps unrouted.

    With c fixed, lowering lo to the larger of the highest clipped atom
    b_l + c and a_k - t for the highest a_k linked to lo keeps every
    link, and so does raising hi to the lesser of the lowest clipped
    atom and a_k + t. With such levels each position is nondecreasing
    in c, so a pair links on an interval of c, and c = a_k - t - b_j
    suffices; where every interval is unbounded below, the map tends to
    a constant, which _vertex_maps covers. A fixed level outside b's
    range clips nothing, or everything, and is left out.

    For each (c, lo) the atoms at or below lo route as one atom at lo,
    then the others in order; for each hi the atoms at or above it route
    as one atom at hi from the state before the first of them. Shifts
    are taken in blocks of about BLOCK_ENTRIES levels lo, and so are the
    levels hi finished at one state.
    """
    shifts = sorted_unique(a[:, None] - t - b[None, :])
    below = np.concatenate([[0.0], np.cumsum(wb)])  # mass of the first j atoms of b
    lows, highs = np.concatenate([a - t, b]), np.concatenate([a + t, b])
    moves = np.arange(lows.size) >= a.size  # a level b_l + c moves with c
    for rows in block_slices(shifts.size, lows.size):
        if 1.0 - best <= eps:
            break
        c = shifts[rows, None]
        pos = b + c
        lo = np.where(moves, lows + c, lows)
        hi = np.where(moves, highs + c, highs)
        n_low, n_mid = np.zeros((2, *lo.shape), dtype=int)
        for j in range(b.size):
            n_low += pos[:, j, None] <= lo
            n_mid += pos[:, j, None] < hi
        lo_ok = (n_low < b.size) & (moves | (lo > pos[:, :1]))
        hi_ok = (n_mid > 0) & (moves | (hi < pos[:, -1:]))
        hi_start, hi_stop = _reach(a, prefix, hi, reach)
        # the flow's state after the atoms at or below lo, as one atom at
        # lo, and then after each further atom: an atom at or below lo
        # joins with no mass, as its run ends no later than lo's
        start, stop = _reach(a, prefix, lo, reach)
        routed = np.clip(stop - start, 0.0, below[n_low])
        used = start + routed
        start, stop = _reach(a, prefix, pos, reach)
        for j in range(b.size + 1):
            # each hi whose first clipped atom is j finishes from this state
            s_at, h_at = np.nonzero(hi_ok & (n_mid == j))
            for part in block_slices(s_at.size, lo.shape[1]) if s_at.size else ():
                sj, hj = s_at[part], h_at[part]
                done = routed[sj] + np.clip(
                    hi_stop[sj, hj, None] - np.maximum(used[sj], hi_start[sj, hj, None]), 0.0, below[-1] - below[j]
                )
                keep = lo_ok[sj] & (lo[sj] < hi[sj, hj, None])
                if keep.any():
                    best = max(best, float(done[keep].max()))
            if j < b.size:
                u = np.maximum(used, start[:, j, None])
                take = np.clip(stop[:, j, None] - u, 0.0, np.where(pos[:, j, None] > lo, wb[j], 0.0))
                used = u + take
                routed = routed + take
    return best


# flow steps (one map, or one shift and level, past one atom) that one
# law_lower may spend, a few seconds of scans on one core: the law bound
# of two data sets of 16 TB generators of 16 atoms spends 40-46 % of it
# in either form, and with 29 to 32 atoms a side none is begun
LAW_BUDGET = 1 << 26


class _OverBudget(Exception):
    """law_lower's scans have spent LAW_BUDGET."""


def _scan_steps(na, nb, kind) -> int:
    """The most flow steps one test of eps takes on laws of na and nb
    atoms: _routed over the vertex maps, and for TB _tb_routed over
    every shift and level lo."""
    vertex = {"id": 1, "B": na + 1, "T": na * nb, "TB": na * nb + na}[kind] * nb
    return vertex + (na * nb * (na + nb) * (nb + 1) if kind == "TB" else 0)


class _OrbitSearch:
    """The least eps >= 0 at which some map p of the family `kind`
    routes mass at least 1 - eps between the laws A and p_* B within t
    = eps (box: eps / 2), searched on demand.

    The most mass routed within t, M(t), does not fall as t grows, and
    changes only at the breakpoints of _law_breaks. So eps accepts when
    1 - M(eps) <= eps, acceptance grows with eps, and at the first
    breakpoint e_k that accepts the value is min(e_k, 1 - M(e_{k-1})).
    The maps are placed for t, and their links tested within t widened
    by a few ulps of the largest value, so links that hold in exact
    arithmetic hold in float, and the value can only err low.
    """

    def __init__(self, A, B, kind: str, box: bool, budget=None):
        self.a, self.b, self.wb = A.values, B.values, B.masses
        self.prefix = np.concatenate([[0.0], np.cumsum(A.masses)])
        self.span = max(np.abs(self.a).max(), np.abs(self.b).max())
        self.kind = kind
        self.per_eps = 0.5 if box else 1.0
        self.breaks = _law_breaks(self.a, self.b, kind, self.per_eps)
        self.tested = {}
        self.budget = budget  # [flow steps left], shared by one law_lower

    def unrouted(self, eps) -> float:
        """1 - M(eps): exact where eps does not accept, and at most eps
        where it does."""
        if eps not in self.tested:
            a, prefix, b, wb = self.a, self.prefix, self.b, self.wb
            t = eps * self.per_eps
            reach = t + 8.0 * math.ulp(8.0 * max(self.span, t))
            if self.budget is not None:
                self.budget[0] -= _scan_steps(a.size, b.size, self.kind)
                if self.budget[0] < 0:
                    raise _OverBudget
            routed = _routed(a, prefix, b, wb, reach, *_vertex_maps(a, b, t, self.kind))
            if self.kind == "TB" and 1.0 - routed > eps:
                routed = _tb_routed(a, prefix, b, wb, t, reach, eps, routed)
            self.tested[eps] = 1.0 - routed
        return self.tested[eps]

    def least(self, best: float = 0.0, cap: float = 1.0) -> float:
        """The value when it lies in (best, cap); otherwise `best` when
        it is at or below `best`, and `cap` when it is at or above `cap`.

        eps = 1 always accepts, so `cap` is at most 1. eps is tested at
        `best` first, and the unrouted mass u there accepts. When `cap`
        is below u, the last breakpoint below `cap` then decides whether
        the value lies below it, so a value at or above `cap` costs two
        tests; the bisection runs only below that breakpoint.
        """
        cap = min(cap, 1.0)
        if best >= cap:
            return best
        u_lo = self.unrouted(best)
        if u_lo <= best:
            return best
        lo, hi = best, min(cap, u_lo)
        last = self.breaks.last(lo, hi) if cap < u_lo else None
        if last is not None:
            u = self.unrouted(last)
            if u > last:
                return min(hi, u)
            hi = last
        return self.breaks.least(lo, hi, u_lo, self.unrouted)


def orbit_law_distance(A, B, kind: str, box: bool, best: float = 0.0, cap: float = 1.0) -> float:
    """The least eps >= 0 at which some map p of the family `kind` routes
    mass at least 1 - eps between the laws A and p_* B within t = eps
    (box: eps / 2), when that lies in (best, cap); otherwise `best` when
    it is at or below `best`, and `cap` when it is at or above `cap`
    (_OrbitSearch)."""
    return _OrbitSearch(A, B, kind, box).least(best, cap)


class LawLowerBound(float):
    """A certified lower bound from the laws of generators (law_lower):
    below it, for every generator of the other side, no map of its
    `family` orbit routes mass 1 - eps of the law of this side's
    `generator` within the reach t; at eps = the bound, the other side's
    `partner` does. t is eps, or eps / 2 in the box form."""

    sides: tuple = ("X", "Y")
    generator: int = 0
    partner: int = 0
    family: str = ""
    reach: float = 0.0

    def describe(self) -> str:
        own, other = self.sides
        return (
            f"law bound at {own} generator {self.generator} against {other} generator "
            f"{self.partner} ({self.family} orbit): eps={float(self)!r}, t={self.reach!r}"
        )


def law_lower(X: FiniteGDS, Y: FiniteGDS, box: bool, start: float) -> float:
    """The law bound of X and Y (box: its box form) when it is above
    `start`, as a LawLowerBound; otherwise `start`.

    The forward pass takes, for each generator f of X, the least
    orbit_law_distance from f to the Y family orbit of a generator of
    Y, the backward pass the same with the sides swapped, and the bound
    is the largest. The running maximum starts at `start`, and each
    generator f is first tested against every orbit at eps = the
    running maximum: once one accepts there, f cannot raise it. Else
    the searches run in order of the mass they leave unrouted there,
    least first, each capped at the least value found so far, so that a
    search that cannot lower it mostly costs one more test. lip1 orbits
    are not searched: a pass into a lip1 family adds nothing.

    The tests share LAW_BUDGET flow steps, each charged its most before
    it runs, and a generator is begun only when three tests against
    every orbit would fit. Once the budget is spent, the search stops,
    and the bound is the largest over the generators searched in full:
    each of them bounds it.
    """
    best, witness, budget = start, None, [LAW_BUDGET]
    try:
        for side, (own, other) in enumerate(((X, Y), (Y, X))):
            kind = other.family.kind
            if kind == "lip1":
                continue
            targets = [pushforward(g, other.mu) for g in other.generators]
            for i, f in enumerate(own.generators):
                law = pushforward(f, own.mu)
                # a generator is begun when the budget left would cover
                # three tests against every orbit: the first two, and as
                # many again for its bisections
                if 3 * sum(_scan_steps(law.values.size, g.values.size, kind) for g in targets) > budget[0]:
                    raise _OverBudget
                searches = []
                for target in targets:
                    search = _OrbitSearch(law, target, kind, box, budget)
                    if search.unrouted(best) <= best:
                        break
                    searches.append(search)
                else:
                    low, partner = math.inf, 0
                    for j in np.argsort([s.unrouted(best) for s in searches], kind="stable"):
                        value = searches[j].least(best, low)
                        if value < low:
                            low, partner = value, int(j)
                    best, witness = low, (side, i, partner)
    except _OverBudget:
        pass  # the generators searched in full still bound it
    if witness is None:
        return start
    side, i, j = witness
    bound = LawLowerBound(best)
    bound.sides = ("X", "Y")[side], ("Y", "X")[side]
    bound.generator, bound.partner = i, j
    bound.family = (Y, X)[side].family.kind
    bound.reach = best / 2.0 if box else best
    return bound
