"""Bracketed estimation of the observable distance and box distance.

Both distances minimize over couplings between the two measures, which
is not tractable exactly; every reported value is therefore a Bracket:

* the upper bound is witnessed by an explicit coupling. One search,
  _Search, serves both brackets: it scores each coupling or support at
  most once, keeps the best with a label naming it, and refines it by a
  first-improvement local search. Both start from a fixed list of
  candidate couplings, each matrix once (_candidate_couplings).
  dconc_bracket scores each and improves the best two by mass-cycle
  moves. box_bracket searches supports only, each under its max-flow
  coupling (stats._support_flow), which puts the most mass any coupling
  can on it; the witness is the best support with that coupling. Its
  first support is the one the link-set search below ends on, which
  closes the bracket; where that search names none, the candidate
  couplings' supports and then those one pair away follow.
  COUPLING_CANDIDATES and LOCAL_SEARCH_STEPS are the search budgets;
* the lower bound is certified, and is the largest of three bounds
  (the third for box only), which the lower witness names:
  - the observable-diameter transfer bound: whenever od(X; -(kappa +
    delta)) exceeds od(Y; -kappa) + 2 delta in either direction, delta
    cannot exceed the observable distance. It is the exact supremum
    over all kappa, taken at a jump of either od step function or in
    the limit kappa -> 0+, and its witness names that kappa and delta.
    Since the observable distance never exceeds the box distance, it
    certifies box brackets too;
  - the law bound: a coupling under which f and p o g are within eps in
    Ky Fan routes mass 1 - eps of the law of f to the law of p o g
    within distance eps (the easy half of Strassen's theorem), and a
    box value below eps routes it within eps / 2. So the largest, over
    generators f of either side, of the least eps at which some map p
    of the other family routes so from some generator g is a lower
    bound. It is exact over every orbit but lip1's (laws.py), and its
    witness names the generator pair, eps and the reach t;
  - the link-set bound, for box: a support of gap at most t = eps / 2
    lies inside a link set of every generator, the point pairs that one
    map and one partner link within t, so box <= eps exactly when one
    link set of every generator can be chosen whose intersection
    carries coupling mass 1 - eps. laws.link_lower searches all the
    generators at once; the least such eps is a bound, and its witness
    names how many generators it searched, eps and the support it ends
    on. It draws on what the law bound leaves of the same LAW_BUDGET.

Each bracket takes its lower bound first, and its search stops once the
upper bound reaches it: every later candidate scores at least the
distance, so neither the upper bound nor its witness could change.

For dconc, the minimum over the coupling polytope is not known to be
attained at the candidates searched here, so its upper bounds are never
claimed exact, and all certification flows through the lower bound. A
box bracket is exact where it closes: when the link-set search over
every generator of both sides finishes, its bound is the box distance
(if that is at most 1) and its support meets it. Candidate generation
is symmetrized, so brackets do not depend on the argument order, and
all randomness comes from the seed in SearchConfig.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from itertools import chain, permutations, product

import numpy as np

from ._kernels import block_slices, linear_assignment, sorted_unique
from .core import MARGINAL_TOL, FiniteGDS, ProbVector
from .errors import (
    ComputationError,
    EmptySupport,
    InvalidKappa,
    MarginalMismatch,
    ValidationError,
)
from .families import dist_to_orbit, dist_to_orbit_sup
from .laws import LAW_BUDGET, law_lower, link_lower
from .stats import _hausdorff, _nw_corner, _support_flow

# equal-size pairs of at most this many points also try, as couplings,
# the permutations that match their masses
PERMUTATION_CAP = 4
# seeded random vertex couplings that join the fixed candidates
COUPLING_CANDIDATES = 8
# scorings of the local search: dconc runs it from its best two
# candidates with half each, box from its best support
LOCAL_SEARCH_STEPS = 40


@dataclass(frozen=True, eq=False)
class CouplingMatrix:
    """Nonnegative matrix with prescribed row and column marginals."""

    pi: np.ndarray

    def __post_init__(self):
        pi = np.array(self.pi, dtype=float)
        if pi.ndim != 2:
            raise MarginalMismatch("coupling must be a matrix")
        if np.any(pi < 0):
            raise MarginalMismatch("coupling entries must be nonnegative")
        pi.setflags(write=False)
        object.__setattr__(self, "pi", pi)

    def check_marginals(self, mu_x: np.ndarray, mu_y: np.ndarray) -> None:
        if self.pi.shape != (mu_x.size, mu_y.size):
            raise MarginalMismatch("coupling shape does not match the marginals")
        if np.max(np.abs(self.pi.sum(axis=1) - mu_x)) > MARGINAL_TOL:
            raise MarginalMismatch("row sums do not match the first marginal")
        if np.max(np.abs(self.pi.sum(axis=0) - mu_y)) > MARGINAL_TOL:
            raise MarginalMismatch("column sums do not match the second marginal")


@dataclass(frozen=True)
class Bracket:
    """Certified lower / witnessed upper interval for a distance value."""

    lower: float
    upper: float
    lower_witness: str = ""
    upper_witness: str = ""
    estimate: bool = False

    def __post_init__(self):
        # a lower bound above its upper one is unsound: _closed lowers one
        # that rounding alone puts above, so no allowance is made here
        if self.lower > self.upper:
            raise ComputationError(
                f"bracket inverted: lower {self.lower} > upper {self.upper}"
            )

    def to_json(self) -> dict:
        return {
            "lower": self.lower,
            "upper": self.upper,
            "lower_witness": self.lower_witness,
            "upper_witness": self.upper_witness,
            "estimate": self.estimate,
        }


@dataclass(frozen=True)
class SearchConfig:
    """Seed and staircase budget of a search.

    seed drives every random choice: the random vertex candidates and
    the staircase's measurement samples. level_budget caps the generator
    subsets each staircase level enumerates. The coupling search's own
    budgets are the module constants COUPLING_CANDIDATES and
    LOCAL_SEARCH_STEPS.
    """

    seed: int = 0
    level_budget: int = 8

    def __post_init__(self):
        if self.seed < 0:
            raise ValidationError("seed must be nonnegative")
        if self.level_budget < 1:
            raise ValidationError("level budget must be positive")


def _coupling_support(pi: np.ndarray):
    rows, cols = np.nonzero(pi > 0.0)
    w = pi[rows, cols]
    total = w.sum()
    return rows, cols, w / total


def dconc_pi(X: FiniteGDS, Y: FiniteGDS, pi) -> float:
    """Hausdorff Ky Fan distance between the pulled-back feature
    families under a fixed coupling.

    The supremum over each composed family collapses onto the base
    generators (post-composition is 1-Lipschitz and the families are
    monoids), so only generator pairs are compared; the inner minimum
    over the other side's orbits goes through dist_to_orbit. An upper
    bound on the closure value in general, exact for identity and
    translation families.
    """
    return _dconc_value(X, Y, pi, math.inf)


def _dconc_value(X, Y, pi, cutoff) -> float:
    """dconc_pi(X, Y, pi) when that is below `cutoff`; otherwise
    some value at or above `cutoff` (see _hausdorff)."""
    coupling = pi if isinstance(pi, CouplingMatrix) else CouplingMatrix(pi)
    coupling.check_marginals(X.masses, Y.masses)
    rows, cols, w = _coupling_support(coupling.pi)
    mu = ProbVector(w)
    return _hausdorff(
        X.generators[:, rows],
        Y.generators[:, cols],
        lambda f, g: dist_to_orbit(f, g, Y.family, mu).value,
        lambda g, f: dist_to_orbit(g, f, X.family, mu).value,
        cutoff,
    )


class OdLowerBound(float):
    """A certified lower bound on the observable distance that names its
    witness: the transfer inequalities at `kappa` rule out every smaller
    delta. kappa = 0.0 stands for the limit kappa -> 0+."""

    kappa: float = 0.0

    def describe(self) -> str:
        if self == 0.0:
            return "od transfer: no kappa rules out a positive delta"
        at = "kappa -> 0+" if self.kappa == 0.0 else f"kappa={self.kappa!r}"
        return f"od transfer at {at}: delta={float(self)!r}"


def _delta_stars(sx, sy, kappas: np.ndarray) -> np.ndarray:
    """Smallest delta satisfying both od transfer inequalities, at each
    kappa, for the od step functions sx and sy.

    od(kappa + delta) only changes where kappa + delta = 1 - m for a
    jump mass m of either space, so the candidates are 0, 1 - kappa
    (where od is 0), and the deltas (1 - m) - kappa between them, for the
    jump masses and their `near` renderings: with MASS_GUARD, od takes a
    jump's value from the delta of the largest rendering on. Between two
    neighbouring candidates both od values are constant, and the least
    delta there is a crossing of the inequalities or the left end.
    Deltas outside the range are clamped onto its ends: a repeated
    candidate never wins before its last copy, so repeats change
    nothing. Kappas are scanned in blocks of about BLOCK_ENTRIES
    candidates.
    """
    ends = sorted_unique(1.0 - np.concatenate([sx.masses, sx.near, sy.masses, sy.near]))
    out = np.empty(kappas.size)
    for rows in block_slices(kappas.size, ends.size + 2):
        k = kappas[rows, None]
        top = 1.0 - k
        points = np.concatenate([np.zeros_like(k), np.clip(ends - k, 0.0, top), top], axis=1)
        od_x, od_y = sx(k), sy(k)
        vx, vy = sx(k + points), sy(k + points)
        ok = (vx <= od_y + 2 * points) & (vy <= od_x + 2 * points)
        crossing = np.maximum(np.maximum((vx - od_y) / 2.0, (vy - od_x) / 2.0), points)
        nxt = np.concatenate([points[:, 1:], np.full_like(k, np.inf)], axis=1)
        first = np.argmax(ok | (crossing < nxt), axis=1)
        at = (np.arange(first.size), first)
        out[rows] = np.where(ok[at], points[at], crossing[at])
    return out


def _jump_kappas(sx, sy) -> np.ndarray:
    """0 (the limit kappa -> 0+), then every kappa in (0, 1) where the
    od of either space jumps."""
    jumps = 1.0 - np.concatenate([sx.masses, sy.masses])
    return np.concatenate([[0.0], sorted_unique(jumps[(jumps > 0.0) & (jumps < 1.0)])])


def dconc_lower_via_od(X: FiniteGDS, Y: FiniteGDS, kappas=None) -> OdLowerBound:
    """Certified lower bound on the observable distance.

    For a kappa, every delta below the smallest one satisfying both
    transfer inequalities od(.; -(kappa + delta)) <= od(.; -kappa) +
    2 delta cannot exceed the observable distance; so that smallest
    delta is a lower bound, and so is the best over any set of kappas.

    With no `kappas`, the bound is exact over all kappa in (0, 1): where
    both od values are constant the smallest delta does not grow with
    kappa, since t - od(t) / 2 increases in t, so the supremum is taken
    at a jump kappa = 1 - m of either od or in the limit kappa -> 0+.
    Each od comes from the data set's step function (`FiniteGDS.od_steps`).
    Given `kappas`, the best over those alone. Returns 0 when no kappa
    yields a positive bound.
    """
    sx, sy = X.od_steps, Y.od_steps
    if kappas is None:
        kappas = _jump_kappas(sx, sy)
    else:
        kappas = np.array([float(k) for k in kappas])
        if not kappas.size or np.any(~((kappas > 0.0) & (kappas < 1.0))):
            raise InvalidKappa("kappa grid must be nonempty inside (0, 1)")
    deltas = _delta_stars(sx, sy, kappas)
    best = int(np.argmax(deltas))
    bound = OdLowerBound(max(0.0, float(deltas[best])))
    bound.kappa = float(kappas[best])
    return bound


def lower_bound(X: FiniteGDS, Y: FiniteGDS, box: bool = False) -> float:
    """The certified lower bound of dconc_bracket (box: of box_bracket):
    the largest of the od transfer bound, the law bound and, for box,
    the link-set bound, each taken only when strictly above the ones
    before it. The law and link-set scans share LAW_BUDGET flow steps.
    The result is an OdLowerBound, a LawLowerBound or a
    SearchLowerBound, whose describe() names the witness, and it does
    not depend on the argument order."""
    if _oriented(X, Y):
        return lower_bound(Y, X, box)
    return _bounds(X, Y, box)[0]


def _bounds(X, Y, box: bool):
    """(lower_bound(X, Y, box), support) for X and Y in canonical order:
    for box, the support that the link-set search over every generator
    ends on when it finishes (laws.link_lower), else None."""
    best = dconc_lower_via_od(X, Y)
    budget = [LAW_BUDGET]
    law = law_lower(X, Y, box, float(best), budget)
    best = law if law > best else best
    if not box:
        return best, None
    link = link_lower(X, Y, float(best), budget)
    return (link if link > best else best), getattr(link, "support", None)


def _canon_key(X: FiniteGDS):
    return (
        X.n_points,
        X.n_generators,
        X.family.kind,
        X.masses.tobytes(),
        X.generators.tobytes(),
    )


def _assignment_cost(X, Y):
    """Cost matrix of the assignment candidate: the sum of absolute
    differences over row-aligned generators, rows aligned by sorted-value
    profiles, plus a 1e6 penalty per unit of mass difference.

    The sum runs one aligned generator pair at a time into one n-by-n
    buffer, so memory stays O(n^2) for any number of generators.
    """
    order_x = sorted(range(X.n_generators), key=lambda r: tuple(np.sort(X.generators[r])))
    order_y = sorted(range(Y.n_generators), key=lambda r: tuple(np.sort(Y.generators[r])))
    cost = np.zeros((X.n_points, Y.n_points))
    diff = np.empty_like(cost)
    for rx, ry in zip(order_x, order_y):
        np.subtract(X.generators[rx][:, None], Y.generators[ry][None, :], out=diff)
        cost += np.abs(diff, out=diff)
    return cost + 1e6 * np.abs(X.masses[:, None] - Y.masses[None, :])


def _assignment_matching(X, Y):
    """Permutation candidate from a minimum-cost assignment on
    `_assignment_cost`. The solver, `_kernels.linear_assignment`, takes
    the same tied optimum as scipy's linear_sum_assignment."""
    rr, cc = linear_assignment(_assignment_cost(X, Y))
    if np.max(np.abs(X.masses[rr] - Y.masses[cc])) > MARGINAL_TOL:
        return None
    pi = np.zeros((X.n_points, Y.n_points))
    pi[rr, cc] = X.masses[rr]
    return pi


def _candidate_couplings(X, Y, cfg: SearchConfig):
    """(name, matrix) pairs, each matrix once under its first name: the
    product, the greedy-mass vertex, for equal sizes the assignment and
    (up to PERMUTATION_CAP points) the mass-matched permutations, then
    seeded random vertices. Without the permutations 3 of 108 small box
    uppers rose (T 4-point l2, 0.308 to 0.447); without the assignment 7
    of 8 uppers at 12-16 points rose (TB 16-point dconc, 0.1875 to 0.2305).
    """
    mx, my = X.masses, Y.masses
    nx_, ny_ = mx.size, my.size
    cands = [("product", np.outer(mx, my))]
    desc_x = np.argsort(-mx, kind="stable")
    desc_y = np.argsort(-my, kind="stable")
    cands.append(("greedy-mass", _nw_corner(mx, my, list(desc_x), list(desc_y))))
    if nx_ == ny_:
        am = _assignment_matching(X, Y)
        if am is not None:
            cands.append(("assignment", am))
        if nx_ <= PERMUTATION_CAP:
            for perm in permutations(range(ny_)):
                perm = list(perm)
                if np.max(np.abs(mx - my[perm])) <= MARGINAL_TOL:
                    pi = np.zeros((nx_, ny_))
                    pi[np.arange(nx_), perm] = mx
                    cands.append((f"perm{tuple(perm)}", pi))
    rng = np.random.default_rng(cfg.seed)
    for k in range(COUPLING_CANDIDATES):
        ro = list(rng.permutation(nx_))
        co = list(rng.permutation(ny_))
        cands.append((f"vertex{k}", _nw_corner(mx, my, ro, co)))
    unique = {}
    for name, pi in cands:
        unique.setdefault(pi.tobytes(), (name, pi))
    return list(unique.values())


def _oriented(X, Y):
    return _canon_key(Y) < _canon_key(X)


def _closed(lower, upper: float) -> float:
    """The lower bound to report with `upper`: lowered to it when
    rounding alone puts it above, by at most 1e-12. The upper bound is
    never raised."""
    return upper if upper < lower <= upper + 1e-12 else float(lower)


class _Search:
    """The upper-bound search of both brackets. It scores objects (a
    coupling, or a support) by `objective(obj, cutoff)`, exact when below
    `cutoff` and otherwise some value at or above it, each key at most
    once. It keeps the best value with its object and label, and scores
    nothing once that reaches the lower bound: every later value is at
    least the distance, so neither the upper bound nor its witness could
    change.
    """

    def __init__(self, lower, objective):
        self.lower, self.objective = lower, objective
        self.scored = set()
        self.value, self.best, self.label = math.inf, None, ""

    def score(self, key, obj, label, cutoff=math.inf):
        """The value of `obj`, or None when `key` was scored before or the
        bracket is closed. Only a value below `cutoff` is exact, so only
        one below both it and the best becomes the best."""
        if key in self.scored or self.value <= self.lower:
            return None
        self.scored.add(key)
        value = self.objective(obj, cutoff)
        if value < min(cutoff, self.value):
            self.value, self.best, self.label = value, obj, label
        return value

    def descend(self, obj, value, moves, steps: int) -> None:
        """First-improvement local search from `obj`, of value `value`:
        move to the first neighbour in moves(obj), (key, obj, label)
        triples in a canonical order, that improves by more than 1e-15,
        until `steps` neighbours are scored, none improves, or the
        bracket closes. A neighbour scored before costs no step. The
        margin keeps the search from chasing rounding noise: with a
        strict comparison, the dconc upper of path:5:1/path:6:1 rises
        from 0.2667 to 0.3333 at 6 of seeds 1-10 (and falls to 0.2333
        at 2)."""
        while steps > 0 and self.value > self.lower:
            for key, trial, label in moves(obj):
                if key in self.scored:
                    continue
                steps -= 1
                cutoff = value - 1e-15
                trial_value = self.score(key, trial, label, cutoff)
                if trial_value < cutoff:
                    obj, value = trial, trial_value
                    break
                if steps == 0:
                    return
            else:
                return

    def bracket(self, lower_witness: str) -> Bracket:
        closed = self.value <= self.lower
        return Bracket(
            lower=_closed(self.lower, self.value),
            upper=self.value,
            lower_witness=lower_witness,
            upper_witness=self.label + (", bracket closed" if closed else ""),
        )


def _cycle_moves(pi, label):
    """Mass-cycle moves: for two support entries (i, j) and (k, l) in
    distinct rows and columns, shift the smaller mass onto (i, l) and
    (k, j)."""
    rows, cols = np.nonzero(pi > 0)
    for a, b in product(range(len(rows)), repeat=2):
        i, j, k, l = rows[a], cols[a], rows[b], cols[b]
        if i != k and j != l:
            trial = pi.copy()
            t = min(pi[i, j], pi[k, l])
            trial[i, j] -= t
            trial[k, l] -= t
            trial[i, l] += t
            trial[k, j] += t
            yield trial.tobytes(), trial, label


def dconc_bracket(X: FiniteGDS, Y: FiniteGDS, config: SearchConfig | None = None) -> Bracket:
    """Bracket for the observable distance between X and Y.

    The lower bound comes first. The upper bound is the best coupling of
    a _Search: the candidate couplings, scored in full by dconc_pi, then
    a mass-cycle local search from each of the best two, with half of
    LOCAL_SEARCH_STEPS each. The witness names the candidate, and says
    "after local search" when the local search found the winner.
    """
    cfg = config or SearchConfig()
    if _oriented(X, Y):
        return dconc_bracket(Y, X, cfg)
    lower = lower_bound(X, Y)
    search = _Search(lower, lambda pi, cut: dconc_pi(X, Y, pi) if cut == math.inf else _dconc_value(X, Y, pi, cut))
    candidates = _candidate_couplings(X, Y, cfg)
    scored = [(search.score(pi.tobytes(), pi, f"coupling {name}"), name, pi) for name, pi in candidates]
    for value, name, pi in sorted((t for t in scored if t[0] is not None), key=lambda t: t[0])[:2]:
        moves = partial(_cycle_moves, label=f"coupling {name} after local search")
        search.descend(pi, value, moves, max(1, LOCAL_SEARCH_STEPS // 2))
    return search.bracket(lower.describe())


def box_objective(X: FiniteGDS, Y: FiniteGDS, pi, S) -> float:
    """max(missing mass, twice the sup-norm feature discrepancy on S).

    S is a nonempty list of support index pairs (i, j). The sup-norm
    Hausdorff term compares the two generator families restricted to S,
    minimizing over family orbit parameters as in dist_to_orbit_sup.
    """
    return _box_value(X, Y, pi, S, math.inf)


def _box_value(X, Y, pi, S, cutoff) -> float:
    """box_objective(X, Y, pi, S) when that is below `cutoff`;
    otherwise some value at or above `cutoff`.

    The scan runs on doubled orbit values, so it compares 2 * gap with
    the cutoff: doubling is exact and order-preserving, while halving
    the cutoff would round for subnormals.
    """
    coupling = pi if isinstance(pi, CouplingMatrix) else CouplingMatrix(pi)
    coupling.check_marginals(X.masses, Y.masses)
    S = list(S)
    if not S:
        raise EmptySupport("the support set must be nonempty")
    rows = np.array([i for i, _ in S])
    cols = np.array([j for _, j in S])
    # the mass pi puts outside S, and at least the masses' total less
    # pi(S): pi's entries may sum a little below that total, which would
    # put a value below the lower bound its support certifies. A full
    # support still misses nothing, and a matching of equal masses, whose
    # entries are the masses in row order, sums to their total exactly
    outside = np.ones(coupling.pi.shape, dtype=bool)
    outside[rows, cols] = False
    missing = max(float(coupling.pi[outside].sum()), float(X.masses.sum() - coupling.pi[rows, cols].sum()))
    if missing >= cutoff:
        return missing
    twice_gap = _hausdorff(
        X.generators[:, rows],
        Y.generators[:, cols],
        lambda f, g: 2.0 * dist_to_orbit_sup(f, g, Y.family).value,
        lambda g, f: 2.0 * dist_to_orbit_sup(g, f, X.family).value,
        cutoff,
    )
    return max(missing, twice_gap)


def _support_pairs(pi):
    rows, cols = np.nonzero(pi > 0)
    return list(zip(rows.tolist(), cols.tolist()))


def _pair_scores(X, Y, pairs):
    """Per-pair residual of the best full-support orbit alignments; of
    tied alignments, the first."""
    rows = np.array([i for i, _ in pairs])
    cols = np.array([j for _, j in pairs])
    fx = X.generators[:, rows]
    gy = Y.generators[:, cols]
    scores = np.zeros(len(pairs))
    for targets, sources, family in ((fx, gy, Y.family), (gy, fx, X.family)):
        for f in targets:
            r, source = min(((dist_to_orbit_sup(f, g, family), g) for g in sources), key=lambda t: t[0].value)
            scores = np.maximum(scores, np.abs(f - r.witness.apply(source)))
    return scores


def _support_moves(S, nx: int, ny: int):
    """The supports one pair away from the support S: each with one pair
    dropped, then each with one added."""
    have = set(S)
    drops = (S[:k] + S[k + 1:] for k in range(len(S)) if len(S) > 1)
    adds = (tuple(sorted(S + ((i, j),))) for i in range(nx) for j in range(ny) if (i, j) not in have)
    for trial in chain(drops, adds):
        yield trial, trial, f"max-flow coupling, {len(trial)} pairs after local search"


def box_bracket(X: FiniteGDS, Y: FiniteGDS, config: SearchConfig | None = None) -> Bracket:
    """Bracket for the box distance between X and Y.

    Lower bound: lower_bound(X, Y, box=True). Upper bound: the least box
    value over supports S (sorted pair tuples), each scored once by a
    _Search under a coupling that puts the most mass any coupling can on
    S (a max-flow, stats._support_flow), so the witness is S with that
    coupling. The first support scored is the one the link-set search
    over every generator ends on (laws.link_lower), when it finished:
    its box value is the lower bound, up to rounding, so it closes the
    bracket, and no other is scored. Where the search names no support,
    the candidate couplings' supports follow, scored in full by
    box_objective; for the best three of those, their singletons and
    greedy discard sweeps over per-pair residuals; then a local search
    from the best support that adds or drops one pair, within
    LOCAL_SEARCH_STEPS scorings. As in dconc_bracket, the search stops
    once the upper bound reaches the lower.
    """
    cfg = config or SearchConfig()
    if _oriented(X, Y):
        return box_bracket(Y, X, cfg)
    lower, support = _bounds(X, Y, box=True)

    def objective(S, cutoff):
        pi = _support_flow(X.masses, Y.masses, S)
        return box_objective(X, Y, pi, S) if cutoff == math.inf else _box_value(X, Y, pi, S, cutoff)

    search = _Search(lower, objective)
    if support is not None:
        search.score(support, support, f"max-flow coupling, {len(support)} pairs of the link-set search")
    if support is None:
        _search_supports(X, Y, cfg, search)
    witness = lower.describe()
    if isinstance(lower, OdLowerBound):
        witness += " (observable distance lower-bounds box)"
    return search.bracket(witness)


def _search_supports(X, Y, cfg, search) -> None:
    """box_bracket's search where the link-set search names no support:
    the candidates' supports, their singletons and peels, then the local
    search."""
    scored = []
    for name, pi in _candidate_couplings(X, Y, cfg):
        pairs = tuple(_support_pairs(pi))
        scored.append((search.score(pairs, pairs, f"coupling {name}, full support"), name, pi, pairs))
    for _, name, pi, pairs in sorted((t for t in scored if t[0] is not None), key=lambda t: t[0])[:3]:
        if len(pairs) <= 64:
            for p in pairs:
                search.score((p,), (p,), f"max-flow coupling, singleton {p}", search.value)
        # greedy peel: repeatedly drop the worst-aligned pair (the lightest
        # of tied ones under pi), re-scoring against alignments optimized
        # on the surviving support
        keep = list(pairs)
        for _ in range(min(len(pairs) - 1, 24)):
            if search.value <= search.lower:
                break
            scores = _pair_scores(X, Y, keep)
            worst = np.flatnonzero(scores == scores.max())
            keep.pop(int(worst[np.argmin([pi[keep[t]] for t in worst])]))
            S = tuple(keep)
            search.score(S, S, f"max-flow coupling, {len(S)} pairs of coupling {name}", search.value)
    moves = partial(_support_moves, nx=X.n_points, ny=Y.n_points)
    search.descend(search.best, search.value, moves, LOCAL_SEARCH_STEPS)
