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

The same vertex maps give the box form a link-set bound (link_lower).
On points, a map and a partner generator link the point pairs (i, j)
with |f_i - p(g_j)| <= t; a support has box gap at most t exactly when
it lies inside such a link set for every generator of either side. So
each generator's maximal link sets are listed as boolean rows over the
point pairs, in blocks of BLOCK_ENTRIES, and eps is ruled out when no
choice of one set for each generator meets in a support that a coupling
can give mass 1 - eps (stats._support_flow). One depth-first search
over every generator bisects eps over the breakpoints of _law_breaks
from the law bound up, and spends what the law bound left of the same
LAW_BUDGET. It is exact: when it finishes, its bound is the box
distance if that is at most 1, and the support it ends on is the upper
witness of the box bracket, which then closes. Upper bounds elsewhere
are never claimed exact.
"""
from __future__ import annotations

import math

import numpy as np

from ._kernels import BLOCK_ENTRIES, MASS_GUARD, Differences, block_slices, sorted_unique
from .core import FiniteGDS, pushforward
from .stats import _support_flow


def _law_breaks(a, b, kind):
    """Values v whose halved differences (v_q - v_p) / 2 hold every reach
    t, besides 0, at which the most mass that one map of `kind` routes
    between the atoms a and b within t can change. Differences(v, 2 *
    per_eps) searches them as eps = t / per_eps.

    Under the vertex maps each atom of b sits at a position q - t, q or
    q + t, q a sum of atom values, and every test compares such a
    position with a_k +- t or with another position. So a test switches
    where a difference of two such sums is t or 2 t: at |a_k - b_j|
    (id, B), |a_k| and (|a_i| -+ a_k) / 2 (B), (D - D') / 2 over pairs
    of differences D = a_k - b_j (T, TB), and (a_i - a_k) / 2 (TB).
    Each is a halved difference of two values of the set taken below,
    doubled for id and B (exactly), which holds some more; those only
    add steps to the bisection.
    """
    if kind == "id":
        return 2.0 * sorted_unique(np.concatenate([a, b]))
    if kind == "B":
        return 2.0 * sorted_unique(np.concatenate([a, b, a / 2.0, -a / 2.0, [0.0]]))
    d = (a[:, None] - b[None, :]).ravel()
    return sorted_unique(np.concatenate([d, a]) if kind == "TB" else d)


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


def _routed(a, prefix, b, wb, reach, c, lo, hi) -> np.ndarray:
    """The most mass each of the maps (c, lo, hi) routes from the atoms
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
    return routed


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
# lower bound may spend, a few seconds of scans on one core: the law
# bound of two data sets of 16 TB generators of 16 atoms spends 40-46 %
# of it in either form, and with 29 to 32 atoms a side none is begun.
# The link-set search spends the rest: a step per map past one atom, per
# point pair of a set built or of a set met with an intersection, per
# byte of two sets compared, and per point pair and point of a max-flow
LAW_BUDGET = 1 << 26


class _OverBudget(Exception):
    """The scans of one lower_bound have spent LAW_BUDGET."""


def _spend(budget, steps) -> None:
    """Charge `steps` to budget, [flow steps left], before they run."""
    budget[0] -= steps
    if budget[0] < 0:
        raise _OverBudget


def _vertex_count(na, nb, kind) -> int:
    """The most maps _vertex_maps lists for na and nb atoms."""
    return {"id": 1, "B": na + 1, "T": na * nb, "TB": na * nb + na}[kind]


def _scan_steps(na, nb, kind) -> int:
    """The most flow steps one test of eps takes on laws of na and nb
    atoms: _routed over the vertex maps, and for TB _tb_routed over
    every shift and level lo."""
    return _vertex_count(na, nb, kind) * nb + (na * nb * (na + nb) * (nb + 1) if kind == "TB" else 0)


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
        self.breaks = Differences(_law_breaks(self.a, self.b, kind), 2.0 * self.per_eps)
        self.tested = {}
        self.budget = budget  # [flow steps left], shared by one lower_bound

    def unrouted(self, eps) -> float:
        """1 - M(eps): exact where eps does not accept, and at most eps
        where it does."""
        if eps not in self.tested:
            a, prefix, b, wb = self.a, self.prefix, self.b, self.wb
            t = eps * self.per_eps
            reach = t + 8.0 * math.ulp(8.0 * max(self.span, t))
            if self.budget is not None:
                _spend(self.budget, _scan_steps(a.size, b.size, self.kind))
            routed = float(_routed(a, prefix, b, wb, reach, *_vertex_maps(a, b, t, self.kind)).max())
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


def law_lower(X: FiniteGDS, Y: FiniteGDS, box: bool, start: float, budget=None) -> float:
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

    The tests share `budget`, [flow steps left] (by default LAW_BUDGET),
    each charged its most before it runs, and a generator is begun only
    when three tests against every orbit would fit. Once the budget is
    spent, the search stops, and the bound is the largest over the
    generators searched in full: each of them bounds it.
    """
    best, witness = start, None
    budget = [LAW_BUDGET] if budget is None else budget
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


def _link_maps(a, b, t, kind):
    """Blocks (c, lo, hi) of about BLOCK_ENTRIES maps x -> min(max(x +
    c, lo), hi) whose link sets the link-set bound lists: the vertex maps
    (_vertex_maps) and, for TB, every shift-then-clip map that
    _tb_routed scans, each shift c with every level lo in a - t, b + c
    below every level hi in a + t, b + c. So some map here links every
    set of pairs (a_k, b_j) that some one map of the family links within
    t, and the sets here that lie inside no other are the family's
    maximal link sets."""
    c, lo, hi = _vertex_maps(a, b, t, kind)
    for rows in block_slices(c.size, 1):
        yield c[rows], lo[rows], hi[rows]
    if kind != "TB":
        return
    shifts = sorted_unique(a[:, None] - t - b[None, :])
    levels = a.size + b.size
    for rows in block_slices(shifts.size, levels * levels):
        c = shifts[rows, None]
        lows = np.concatenate([np.broadcast_to(a - t, (c.size, a.size)), b + c], axis=1)[:, :, None]
        highs = np.concatenate([np.broadcast_to(a + t, (c.size, a.size)), b + c], axis=1)[:, None, :]
        keep = lows < highs
        yield tuple(np.broadcast_to(x, keep.shape)[keep] for x in (c[:, :, None], lows, highs))


class _LinkSets:
    """The maximal link sets of the generators of X and Y, as boolean rows
    over the point pairs (i, j) of X and Y, and the most coupling mass
    on their intersections (link_lower).

    A generator is (side, index): side 0 is a generator f of X, linked
    to the points of Y through the maps p of Y's family and a partner g,
    a generator of Y, by |f_i - p(g_j)| <= t; side 1 the same with the
    sides swapped. Every scan is charged to budget.
    """

    def __init__(self, X: FiniteGDS, Y: FiniteGDS, budget):
        self.X, self.Y, self.budget = X, Y, budget
        self.shape = (X.n_points, Y.n_points)
        self.span = max(np.abs(X.generators).max(), np.abs(Y.generators).max())

    def sides(self, gen):
        """(values, own, other): gen's values and its data set, then the
        data set of its partners."""
        side, i = gen
        own, other = (self.X, self.Y) if side == 0 else (self.Y, self.X)
        return own.generators[i], own, other

    def breaks(self, gens) -> Differences:
        """The eps at which the link sets of any generator of gens can
        change, for any partner (_law_breaks), at t = eps / 2."""
        values = []
        for gen in gens:
            a, _, other = self.sides(gen)
            values += [_law_breaks(a, b, other.family.kind) for b in other.generators]
        return Differences(sorted_unique(np.concatenate(values)), 1.0)

    def bound(self, masks) -> np.ndarray:
        """For each row of masks, a bound on the most coupling mass on its
        pairs: no point carries more than its own mass or than the mass
        of the points it is paired with."""
        mx, my = self.X.masses, self.Y.masses
        m = masks.reshape(-1, *self.shape)
        return np.minimum(np.minimum(m @ my, mx).sum(axis=1), np.minimum(mx @ m, my).sum(axis=1))

    def flow(self, mask) -> float:
        """The most coupling mass on the pairs of mask (stats._support_flow)."""
        nx, ny = self.shape
        _spend(self.budget, nx * ny * (nx + ny))
        rows, cols = np.nonzero(mask.reshape(self.shape))
        pi = _support_flow(self.X.masses, self.Y.masses, zip(rows.tolist(), cols.tolist()))
        return float(pi[rows, cols].sum())

    def _maximal(self, gen, eps, floor):
        """(masks, top): the maximal link sets of gen at t = eps / 2 that
        can carry coupling mass floor, up to MASS_GUARD, and the most mass
        a set left out can."""
        a, own, other = self.sides(gen)
        kind, width = other.family.kind, self.shape[0] * self.shape[1]
        t = eps / 2.0
        reach = t + 8.0 * math.ulp(8.0 * max(self.span, t))
        by_a = np.argsort(a, kind="stable")
        a_up, prefix = a[by_a], np.concatenate([[0.0], np.cumsum(own.masses[by_a])])
        packed, top = [], 0.0
        for b in other.generators:
            clips = a.size * b.size * (a.size + b.size) ** 2 if kind == "TB" else 0
            _spend(self.budget, (_vertex_count(a.size, b.size, kind) + clips) * b.size)
            by_b = np.argsort(b, kind="stable")
            b_up, wb = b[by_b], other.masses[by_b]
            for c, lo, hi in _link_maps(a, b, t, kind):
                # the mass a map routes (_routed) is the most coupling mass
                # on its link set, so only sets that could reach floor are built
                mass = _routed(a_up, prefix, b_up, wb, reach, c, lo, hi)
                ok = mass >= floor - MASS_GUARD
                if not ok.all():
                    top = max(top, float(mass[~ok].max()))
                c, lo, hi = c[ok], lo[ok], hi[ok]
                _spend(self.budget, c.size * width)
                for rows in block_slices(c.size, width):
                    pos = np.minimum(np.maximum(b + c[rows, None], lo[rows, None]), hi[rows, None])
                    links = np.abs(a[:, None] - pos[:, None, :]) <= reach
                    links = links if gen[0] == 0 else links.transpose(0, 2, 1)
                    packed.append(np.packbits(links.reshape(-1, width), axis=1))
        packed = np.concatenate(packed)
        masks = np.unpackbits(packed[self._outermost(packed)], axis=1, count=width).astype(bool)
        return masks, top

    def _outermost(self, packed) -> np.ndarray:
        """The indices of the rows of packed, sets as bytes, that lie
        inside no other row, the first of equal rows, largest first.

        A set inside another adds nothing to the search: its
        intersections lie inside the other's. Any larger set lies before
        it, so a set is kept when it lies inside none of the sets kept
        before its block or in it.
        """
        _, first = np.unique(packed.view(np.dtype((np.void, packed.shape[1]))), return_index=True)
        first = first[np.argsort(-np.bitwise_count(packed[first]).sum(axis=1), kind="stable")]
        packed = packed[first]

        def inside(x, y):
            return ~(x[:, None, :] & ~y[None, :, :]).any(axis=2)

        keep = np.zeros(len(packed), dtype=bool)
        for rows in block_slices(len(packed), 64 * packed.shape[1]):
            block, kept = packed[rows], packed[keep]
            _spend(self.budget, block.size * (len(block) + len(kept)))
            within = inside(block, block)
            within[np.diag_indices(len(block))] = False
            out = within.any(axis=1)
            for part in block_slices(len(kept), block.size):
                out |= inside(block, kept[part]).any(axis=1)
            keep[rows] = ~out
        return first[keep]

    def scan(self, gens, eps, floor):
        """(most, found): a bound on the most coupling mass on A_1 & ... &
        A_k over link sets A_i of the generators gens at t = eps / 2,
        exact when that is at least floor, and the mask of an intersection
        that has it (None for a bound). The search stops at the first
        intersection with mass at least 1 - eps.

        Depth first over the generators, the one with fewest sets first:
        a node is the intersection S of one set for each generator so
        far, and its children are S & A over the next generator's sets A,
        in blocks of about BLOCK_ENTRIES entries, each in order of bound,
        most first. A child is passed over once its bound is at most the
        most found so far. A child whose bound, or else whose max-flow
        mass, is below floor is not entered but counts with that value,
        which bounds every intersection inside it. The max-flow runs only
        where the bound reaches floor, and not on the first generator's
        own sets, whose mass _maximal has tested; a child equal to S has
        S's mass. Below the first generator, a child inside another child
        is dropped (_outermost), as all that lies below it lies below the
        other, and a child met before at the same depth is skipped: what
        lies below it was counted then. That memo holds about
        BLOCK_ENTRIES bytes a depth.
        """
        levels = sorted((self._maximal(g, eps, floor) for g in gens), key=lambda sets: len(sets[0]))
        width = self.shape[0] * self.shape[1]
        room = max(1, BLOCK_ENTRIES // -(-width // 8))
        seen = [set() for _ in levels]
        most, found = max(top for _, top in levels), None

        def visit(depth, S, mass) -> bool:
            """Search below S, of max-flow mass `mass` (None: not run);
            True once an intersection reaches 1 - eps."""
            nonlocal most, found
            masks, _ = levels[depth]
            last, size = depth == len(levels) - 1, np.count_nonzero(S)
            for rows in block_slices(len(masks), width):
                _spend(self.budget, masks[rows].size)
                both = masks[rows] & S
                ub = self.bound(both)
                live = ub >= floor - MASS_GUARD
                if not live.all():
                    most = max(most, float(ub[~live].max()))
                live = np.flatnonzero(live & (ub > most))
                packed = np.packbits(both[live], axis=1)
                if depth and live.size > 1:
                    keep = self._outermost(packed)
                    live, packed = live[keep], packed[keep]
                for at in np.argsort(-ub[live], kind="stable"):
                    row = live[at]
                    if ub[row] <= most:
                        break
                    key = packed[at].tobytes()
                    if key in seen[depth]:
                        continue
                    if len(seen[depth]) >= room:
                        seen[depth].clear()
                    seen[depth].add(key)
                    child = both[row]
                    m = mass if np.count_nonzero(child) == size else None
                    if m is None and (depth or last):
                        m = self.flow(child)
                    if m is not None and m < floor - MASS_GUARD:
                        most = max(most, m)
                        continue
                    if not last:
                        if visit(depth + 1, child, m):
                            return True
                        continue
                    if m > most:
                        most, found = m, child
                    if 1.0 - m <= eps:
                        return True
            return False

        visit(0, np.ones(width, dtype=bool), None)
        return most, found


class _LinkSearch:
    """The least eps at which, at t = eps / 2, link sets of the
    generators gens, one each, carry coupling mass at least 1 - eps on
    their intersection: the most mass on such an intersection does not
    fall as t grows and changes only at the breakpoints of gens
    (_LinkSets.breaks), so eps accepts when 1 - most(eps) <= eps, as in
    _OrbitSearch. A test that fails counts some intersections with their
    bound, so its unrouted mass may be low, which can only lower the
    value; once the bisection ends, the failing test it ends on is rerun
    exact where that mass decides the value.
    """

    def __init__(self, sets: _LinkSets, gens):
        self.sets, self.gens = sets, gens
        self.failed, self.accepted = {}, {}  # eps -> unrouted, eps -> found

    def unrouted(self, eps) -> float:
        most, found = self.sets.scan(self.gens, eps, 1.0 - eps)
        unrouted = 1.0 - most
        if unrouted <= eps:
            self.accepted[eps] = found
        else:
            self.failed[eps] = unrouted
        return unrouted

    def least(self, best: float):
        """(value, found): the value when it is above `best`, and
        otherwise `best`; found is the mask of an intersection that
        reaches it (_LinkSets.scan), or None at eps = 1, which every
        choice of sets meets."""
        lo, u_lo = best, self.unrouted(best)
        if u_lo <= best:
            return best, self.accepted[best]
        # listed only after a first test charged the budget for the maps:
        # a partner adds about as many break values as it has maps
        breaks = self.sets.breaks(self.gens)
        # gallop up from best, so that most tests run at small eps, whose
        # link sets are few, before the bisection between the last two
        step, hi = (1.0 - best) / 16.0, 1.0
        while lo + step < 1.0:
            u = self.unrouted(lo + step)
            if u <= lo + step:
                hi = lo + step
                break
            lo, u_lo, step = lo + step, u, 2.0 * step
        breaks.least(lo, hi, u_lo, self.unrouted)
        lo, hi = max(self.failed), min(self.accepted, default=1.0)
        if self.failed[lo] < hi:
            most, found = self.sets.scan(self.gens, lo, 1.0 - hi)
            if 1.0 - most < hi:
                return float(1.0 - most), found
        return float(hi), self.accepted.get(hi)


class SearchLowerBound(float):
    """A certified lower bound on the box distance from the link sets of
    all `generators` at reach t = eps / 2 (link_lower): below it, no
    choice of one link set for each carries coupling mass 1 - eps on its
    intersection. Over every generator of both sides, it is the box
    distance when that is at most 1. When `spent`, the budget ran out,
    and the bound is the largest eps the search ruled out. `support`, a
    sorted tuple of point pairs (i, j), is set when the search over
    every generator finished at the bound: a coupling puts mass 1 - eps
    on it, and its box gap is at most t."""

    generators: int = 0
    spent: bool = False
    reach: float = 0.0
    support: tuple | None = None

    def describe(self) -> str:
        text = f"link-set search over {self.generators} generators"
        if self.spent:
            text += ", budget spent"
        elif self.support is not None:
            text += f", meeting in {len(self.support)} point pairs"
        return f"{text}: eps={float(self)!r}, t={self.reach!r}"


def link_lower(X: FiniteGDS, Y: FiniteGDS, start: float, budget) -> float:
    """The link-set box bound of X and Y when it is above `start`, as a
    SearchLowerBound; otherwise `start`, or a SearchLowerBound equal to
    it that carries a support.

    A support S has gap at most t = eps / 2 exactly when, for every
    generator of either side, some map of the other family and some
    partner link every pair of S (a link set A holds S). F, the most
    coupling mass on a support (stats._support_flow), only grows with the
    support. So box <= eps exactly when, for every generator, some link
    set carries an intersection with F >= 1 - eps, and the least eps at
    which the generators' sets do is a lower bound.

    One search (_LinkSearch) runs from `start` over every generator
    whose partners have a family other than lip1 (lip1 link sets are
    not those of a few maps). When it finishes with no generator left
    out, the bound is the box distance if that is at most 1, and the
    intersection S it ends on is the bound's `support`: S under its
    max-flow coupling has box value at most the bound, up to rounding.

    The search spends `budget`, [flow steps left]. Once it is spent, the
    bound is the largest eps that a failing test ruled out.
    """
    gens = tuple(
        (side, i)
        for side, (own, other) in enumerate(((X, Y), (Y, X)))
        if other.family.kind != "lip1"
        for i in range(own.n_generators)
    )
    if len(gens) < 2:
        return start  # one generator's link sets give the law bound's box form
    sets = _LinkSets(X, Y, budget)
    search, spent = _LinkSearch(sets, gens), False
    try:
        best, found = search.least(start)
    except _OverBudget:
        best, found, spent = float(max(search.failed, default=start)), None, True
    support = None
    if found is not None and found.any() and len(gens) == X.n_generators + Y.n_generators:
        support = tuple(zip(*(ix.tolist() for ix in np.nonzero(found.reshape(sets.shape)))))
    if best <= start and support is None:
        return start
    bound = SearchLowerBound(best)
    bound.generators, bound.spent, bound.reach, bound.support = len(gens), spent, best / 2.0, support
    return bound
