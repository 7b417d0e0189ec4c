"""Monoidal families of 1-Lipschitz maps acting on features.

Three parametric families are supported exactly or near-exactly:

* translations x -> x + c,
* symmetric clips x -> max(-R, min(x, R)),
* shift-then-clip maps x -> max(l, min(x + c, u)),

plus a sampled stand-in for all of lip1(R). The central primitive is
the distance from a feature to the orbit of another feature under a
family, measured in the Ky Fan metric (dist_to_orbit) or in sup norm
for support-restricted comparisons (dist_to_orbit_sup). Orbit distances
feed covering numbers, capacities, domination checks and the coupling
objectives.

Both metrics share one orbit engine: one family dispatch and one
shift-then-clip candidate search. A metric supplies three operations:
a batched row scorer (kf_rows or the row maximum), a batched exact
translation optimum with its shift (the window formula or the
midrange), and its own symmetric-clip search. Among candidates of equal
value the search keeps the smallest (c, lo, hi), in both metrics.

Certification semantics: `certified=True` means the returned value is
the exact infimum over the family; `False` means it is an upper bound
obtained from a documented candidate grid (within `tol` of the best
candidate-grid value, not of the true infimum).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from ._kernels import (
    MASS_GUARD,
    kf_rows,
    row_blocks,
    window_tradeoff_values,
)
from .core import DiscreteMeasureR, FamilyTag, FiniteGDS, ProbVector, pushforward
from .errors import (
    DimensionMismatch,
    EmptySet,
    InvalidRange,
    ValidationError,
)
from .stats import levy_mean, partial_diameter

_EXACT_CLIP_CAP = 12
_LEVEL_CAP = 12
_LIP1_SEED = 322751


@dataclass(frozen=True)
class ClipMap:
    """A shift-then-clip map x -> max(lo, min(x + c, hi)).

    Always 1-Lipschitz. Special cases: pure translations (lo = -inf,
    hi = +inf), symmetric clips b_R = (c=0, lo=-R, hi=R), and constants
    (lo = hi).
    """

    c: float = 0.0
    lo: float = -math.inf
    hi: float = math.inf

    def __post_init__(self):
        if not self.lo <= self.hi:
            raise InvalidRange(f"lower bound {self.lo} exceeds upper bound {self.hi}")
        if self.lo == math.inf or self.hi == -math.inf:
            raise InvalidRange("bounds must leave a nonempty range")

    def apply(self, values) -> np.ndarray:
        out = np.asarray(values, dtype=float) + self.c
        return np.clip(out, self.lo, self.hi) + 0.0

    def __call__(self, values) -> np.ndarray:
        return self.apply(values)

    @classmethod
    def identity(cls) -> "ClipMap":
        return cls()

    @classmethod
    def translation(cls, c: float) -> "ClipMap":
        return cls(c=float(c))

    @classmethod
    def bound(cls, R: float) -> "ClipMap":
        if R < 0:
            raise InvalidRange("clip radius must be nonnegative")
        return cls(c=0.0, lo=-float(R), hi=float(R))

    @classmethod
    def constant(cls, v: float) -> "ClipMap":
        return cls(c=0.0, lo=float(v), hi=float(v))

    def to_json(self) -> dict:
        def enc(x):
            if x == math.inf:
                return "inf"
            if x == -math.inf:
                return "-inf"
            return x

        return {"c": self.c, "l": enc(self.lo), "u": enc(self.hi)}

    @classmethod
    def from_json(cls, obj: dict) -> "ClipMap":
        def dec(x):
            if x == "inf":
                return math.inf
            if x == "-inf":
                return -math.inf
            return float(x)

        return cls(float(obj["c"]), dec(obj["l"]), dec(obj["u"]))


def clip_apply(p: ClipMap, values) -> np.ndarray:
    """Apply a clip map pointwise. Output spread never exceeds input spread."""
    return p.apply(values)


def compose_clips(outer: ClipMap, inner: ClipMap) -> ClipMap:
    """The single ClipMap equal to outer after inner (monoid closure)."""

    def clamp(x, lo, hi):
        return min(max(x, lo), hi)

    return ClipMap(
        c=inner.c + outer.c,
        lo=clamp(inner.lo + outer.c, outer.lo, outer.hi),
        hi=clamp(inner.hi + outer.c, outer.lo, outer.hi),
    )


@dataclass(frozen=True, eq=False)
class PLMap:
    """A piecewise linear 1-Lipschitz map, constant beyond its knots.

    Used to represent sampled members of lip1(R); knot values are
    produced by a slope-bounded random walk.
    """

    knots: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        k = np.asarray(self.knots, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if k.shape != v.shape or k.ndim != 1 or k.size == 0:
            raise DimensionMismatch("knots and values must match")
        gaps = np.diff(k)
        if np.any(gaps <= 0):
            raise ValidationError("knots must be strictly increasing")
        if k.size > 1 and np.any(np.abs(np.diff(v)) > gaps * (1 + 1e-12)):
            raise ValidationError("knot values violate the 1-Lipschitz bound")
        object.__setattr__(self, "knots", k)
        object.__setattr__(self, "values", v)

    def apply(self, values) -> np.ndarray:
        return np.interp(np.asarray(values, dtype=float), self.knots, self.values)

    def __call__(self, values) -> np.ndarray:
        return self.apply(values)

    def shifted(self, c: float) -> "PLMap":
        return PLMap(self.knots, self.values + c)


@dataclass(frozen=True, eq=False)
class OrbitDistanceResult:
    """Distance from a feature to a family orbit, with a witness map."""

    value: float
    witness: object  # ClipMap or PLMap
    certified: bool


def _clip_feasible(f, g, w, eps):
    """Can some radius R make clamp(g, -R, R) differ from f by more than
    eps only on mass <= eps? Closed-interval stabbing over R.

    Returns (feasible, R) with R the smallest maximizing radius.
    """
    absg = np.abs(g)
    sign = np.sign(g)
    sf = sign * f
    fixed = np.abs(f - g)
    pieces = []  # (start, end, weight)
    for i in range(f.size):
        has_fixed = fixed[i] <= eps
        if sign[i] == 0.0:
            if has_fixed:
                pieces.append((0.0, math.inf, w[i]))
            continue
        lo = max(0.0, sf[i] - eps)
        hi = min(absg[i], sf[i] + eps)
        has_active = lo <= hi
        if has_fixed and has_active and hi >= absg[i]:
            pieces.append((lo, math.inf, w[i]))
        else:
            if has_active:
                pieces.append((lo, hi, w[i]))
            if has_fixed:
                pieces.append((absg[i], math.inf, w[i]))
    total = float(np.sum(w))
    if not pieces:
        return total <= eps, 0.0
    events = []
    for lo, hi, wt in pieces:
        events.append((lo, 0, wt))
        if hi != math.inf:
            events.append((hi, 1, wt))
    events.sort(key=lambda e: (e[0], e[1]))
    cover = 0.0
    best_cover, best_r = -1.0, 0.0
    idx = 0
    while idx < len(events):
        coord = events[idx][0]
        while idx < len(events) and events[idx][0] == coord and events[idx][1] == 0:
            cover += events[idx][2]
            idx += 1
        if cover > best_cover:
            best_cover, best_r = cover, coord
        while idx < len(events) and events[idx][0] == coord and events[idx][1] == 1:
            cover -= events[idx][2]
            idx += 1
    return total - best_cover <= eps, best_r


def _kf_orbit_clip_exact(f, g, w):
    """Exact Ky Fan distance to the symmetric-clip orbit of g.

    The feasibility region in (R, eps) is bounded by finitely many
    lines, so the optimal eps lies in the set of geometric candidates
    (difference and crossing values) plus the subset sums of the
    masses; each candidate is checked by interval stabbing over R.
    """
    absg = np.abs(g)
    sign = np.sign(g)
    sf = sign * f
    fixed = np.abs(f - g)
    cands = {0.0, 1.0}
    cands.update(float(x) for x in fixed)
    levels = np.concatenate([[0.0], absg])
    active = np.nonzero(sign)[0]
    for i in active:
        cands.update(float(abs(sf[i] - lv)) for lv in levels)
        cands.update(float(abs(sf[i] - x)) for x in fixed)
    for a, b in combinations(active.tolist(), 2):
        cands.add(float(abs(sf[a] - sf[b]) / 2.0))
    sums = np.array([0.0])
    for wi in w:
        sums = np.unique(np.concatenate([sums, sums + wi]))
    cands.update(float(s) for s in sums)
    for eps in sorted(c for c in cands if c >= 0.0):
        ok, radius = _clip_feasible(f, g, w, eps)
        if ok:
            return float(eps), float(radius)
    return 1.0, float(np.max(absg))  # unreachable: eps = 1 is always feasible


def _kf_orbit_clip_heuristic(f, g, w, tol):
    radii = np.unique(np.concatenate([[0.0], np.abs(f), np.abs(g)]))
    clipped = np.clip(g[None, :], -radii[:, None], radii[:, None])
    vals = kf_rows(np.abs(f[None, :] - clipped), w)
    best = int(np.argmin(vals))
    local = radii[best] + tol * np.arange(-10, 11)
    local = np.unique(np.clip(local, 0.0, None))
    clipped = np.clip(g[None, :], -local[:, None], local[:, None])
    lv = kf_rows(np.abs(f[None, :] - clipped), w)
    j = int(np.argmin(lv))
    if lv[j] < vals[best]:
        return float(lv[j]), float(local[j])
    return float(vals[best]), float(radii[best])


def _candidate_levels(f):
    levels = np.unique(f)
    cap = _LEVEL_CAP if f.size <= 24 else _LEVEL_CAP // 2
    if levels.size > cap:
        take = np.linspace(0, levels.size - 1, cap).round().astype(int)
        levels = levels[np.unique(take)]
    return levels


def _candidate_shifts(f, g, extra=()):
    if f.size <= _EXACT_CLIP_CAP:
        shifts = (f[:, None] - g[None, :]).ravel()
    else:
        shifts = f - g
    return np.unique(np.concatenate([shifts, np.asarray(extra, dtype=float)]))


def _level_pairs(levels):
    """All (lo, hi) with lo <= hi from levels, lo also -inf, hi also +inf."""
    los = np.concatenate([[-math.inf], levels])
    his = np.concatenate([levels, [math.inf]])
    lo_grid, hi_grid = np.meshgrid(los, his, indexing="ij")
    keep = lo_grid <= hi_grid
    return lo_grid[keep], hi_grid[keep]


def _shiftclip_pairs(levels):
    """Clip bounds in the target frame: level pairs plus symmetric clips."""
    los, his = _level_pairs(levels)
    radii = np.unique(np.abs(levels))
    return np.concatenate([los, -radii]), np.concatenate([his, radii])


def _clamp_level_pairs(g):
    """Clamp thresholds in the source frame: observed values plus the
    midpoints between consecutive ones."""
    levels = _candidate_levels(g)
    if levels.size > 1:
        levels = np.unique(np.concatenate([levels, (levels[:-1] + levels[1:]) / 2.0]))
    return _level_pairs(levels)


class _KyFan:
    """Ky Fan scorers under the weights w."""

    def __init__(self, w):
        self.w = w

    def rows(self, absdiffs):
        return kf_rows(absdiffs, self.w)

    def translate(self, deltas):
        return window_tradeoff_values(deltas, self.w)

    def clip(self, f, g, tol):
        if f.size <= _EXACT_CLIP_CAP:
            return (*_kf_orbit_clip_exact(f, g, self.w), True)
        return (*_kf_orbit_clip_heuristic(f, g, self.w, tol), False)


class _Sup:
    """Sup-norm scorers."""

    def rows(self, absdiffs):
        return absdiffs.max(axis=1)

    def translate(self, deltas):
        top, bottom = deltas.max(axis=1), deltas.min(axis=1)
        return (top - bottom) / 2.0, (top + bottom) / 2.0

    def clip(self, f, g, tol):
        return (*_sup_orbit_clip_exact(f, g), True)


def _first_min(vals, cs, los, his):
    """The smallest (value, c, lo, hi) among candidate rows; the first
    one on a full tie."""
    tied = np.nonzero(vals == vals.min())[0]
    k = tied[np.lexsort((his[tied], los[tied], cs[tied]))[0]]
    return float(vals[k]), float(cs[k]), float(los[k]), float(his[k])


def _orbit_shiftclip(f, g, metric, tol):
    """Candidate search over shift-then-clip maps (upper bound).

    Every member factors as a clamp in the source frame followed by a
    translation, so the search clamps g at observed levels (plus
    midpoints) and optimizes the translation exactly, batched over all
    clamp pairs. On supports of at most 16 points a second pass scores
    pointwise-difference shifts against clip levels in the target
    frame, in blocks of level pairs, and the best shift is refined on a
    local grid of spacing `tol`. Returns the smallest (value, c, lo, hi)
    found.
    """
    t_vals, t_shifts = metric.translate((f - g)[None, :])
    best = (float(t_vals[0]), float(t_shifts[0]), -math.inf, math.inf)
    los, his = _clamp_level_pairs(g)
    vals, shifts = metric.translate(f[None, :] - np.clip(g[None, :], los[:, None], his[:, None]))
    best = min(best, _first_min(vals, shifts, los + shifts, his + shifts))
    if f.size <= 16:
        shifts = _candidate_shifts(f, g, extra=[t_shifts[0], 0.0])
        lo_arr, hi_arr = _shiftclip_pairs(_candidate_levels(f))
        moved = g[None, None, :] + shifts[None, :, None]

        def score(pairs):
            # one row per (level pair, shift), pair-major
            mapped = np.clip(moved, lo_arr[pairs, None, None], hi_arr[pairs, None, None])
            return metric.rows(np.abs(f[None, :] - mapped.reshape(-1, f.size)))

        vals = row_blocks(score, lo_arr.size, moved.size)
        tied = np.nonzero(vals == vals.min())[0]
        pair, k = np.divmod(tied, shifts.size)
        best = min(best, _first_min(vals[tied], shifts[k], lo_arr[pair], hi_arr[pair]))
    local = best[1] + tol * np.arange(-10, 11)
    mapped = np.clip(g[None, :] + local[:, None], best[2], best[3])
    vals = metric.rows(np.abs(f[None, :] - mapped))
    j = int(np.argmin(vals))
    if vals[j] < best[0]:
        best = (float(vals[j]), float(local[j]), best[2], best[3])
    return best


def _lip1_samples(g, budget):
    knots = np.unique(g)
    if knots.size == 1:
        return []  # constant input: translations already cover every image
    rng = np.random.default_rng(_LIP1_SEED + budget)
    maps = []
    gaps = np.diff(knots)
    for _ in range(budget):
        slopes = rng.uniform(-1.0, 1.0, size=gaps.size)
        vals = np.concatenate([[0.0], np.cumsum(slopes * gaps)])
        maps.append(PLMap(knots, vals))
    return maps


def _orbit_distance(f, g, family: FamilyTag, metric, tol) -> OrbitDistanceResult:
    """Distance from f to the family orbit of g in the given metric."""
    if family.kind == "id":
        return OrbitDistanceResult(float(metric.rows(np.abs(f - g)[None, :])[0]), ClipMap.identity(), True)
    if family.kind == "T":
        vals, shifts = metric.translate((f - g)[None, :])
        return OrbitDistanceResult(float(vals[0]), ClipMap.translation(shifts[0]), True)
    if family.kind == "B":
        value, radius, certified = metric.clip(f, g, tol)
        return OrbitDistanceResult(value, ClipMap.bound(radius), certified)
    value, c, lo, hi = _orbit_shiftclip(f, g, metric, tol)
    best_val, best_witness = value, ClipMap(c, lo, hi)
    if family.kind == "lip1":
        # sampled piecewise linear maps, each with its optimal translation
        for pl in _lip1_samples(g, family.sample_budget):
            vals, shifts = metric.translate((f - pl.apply(g))[None, :])
            if vals[0] < best_val:
                best_val, best_witness = float(vals[0]), pl.shifted(float(shifts[0]))
    return OrbitDistanceResult(best_val, best_witness, False)


def dist_to_orbit(f, g, family: FamilyTag, mu: ProbVector, tol: float = 1e-9) -> OrbitDistanceResult:
    """Ky Fan distance from feature f to the family orbit of g.

    Exact for the identity, translation, and (on supports of at most
    12 points) symmetric-clip families; a certified-upper-bound
    candidate search otherwise.
    """
    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
    w = mu.weights
    if f.shape != g.shape or f.shape != w.shape:
        raise DimensionMismatch("feature lists and weights must share one length")
    return _orbit_distance(f, g, family, _KyFan(w), tol)


def _sup_orbit_clip_exact(f, g):
    """Exact sup-norm distance to the symmetric-clip orbit of g."""
    absg = np.abs(g)
    sign = np.sign(g)
    sf = sign * f
    fixed = np.abs(f - g)
    active = np.nonzero(sign)[0]
    cands = {0.0}
    cands.update(float(x) for x in absg)
    cands.update(float(max(0.0, sf[i])) for i in active)
    for a, b in combinations(active.tolist(), 2):
        cands.add(float(max(0.0, (sf[a] + sf[b]) / 2.0)))
    for i in active:
        cands.update(float(max(0.0, sf[i] + s * d)) for d in fixed for s in (-1.0, 1.0))
    radii = np.array(sorted(cands))
    mapped = np.clip(g[None, :], -radii[:, None], radii[:, None])
    vals = np.max(np.abs(f[None, :] - mapped), axis=1)
    j = int(np.argmin(vals))
    return float(vals[j]), float(radii[j])


def dist_to_orbit_sup(f, g, family: FamilyTag, tol: float = 1e-9) -> OrbitDistanceResult:
    """Sup-norm distance from f to the family orbit of g.

    Same family semantics as dist_to_orbit but with max |f - p(g)|
    replacing the Ky Fan metric; used for support-restricted box
    objectives.
    """
    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
    if f.shape != g.shape:
        raise DimensionMismatch("feature lists must share one length")
    return _orbit_distance(f, g, family, _Sup(), tol)


def compose_family(X: FiniteGDS, p: ClipMap) -> FiniteGDS:
    """Apply a family member to every generator and identify the points
    the composed features can no longer separate.

    If p is injective on the observed values the point set is
    unchanged; a constant p collapses everything to one point.
    """
    from .transforms import quotient

    rows = np.vstack([p.apply(row) for row in X.generators])
    result, _ = quotient(X, rows)
    return result


def directed_orbit_matrix(rows, family: FamilyTag, mu: ProbVector, tol: float = 1e-9):
    """Matrix of dist_to_orbit values between feature rows (directed)."""
    rows = np.asarray(rows, dtype=float)
    m = rows.shape[0]
    out = np.zeros((m, m))
    for i in range(m):
        for j in range(m):
            if i != j:
                out[i, j] = dist_to_orbit(rows[i], rows[j], family, mu, tol).value
    return out


def symmetric_orbit_matrix(rows, family: FamilyTag, mu: ProbVector, tol: float = 1e-9):
    d = directed_orbit_matrix(rows, family, mu, tol)
    return np.maximum(d, d.T)


@dataclass(frozen=True)
class CoveringResult:
    value: int
    exact: bool


def covering_number(
    X: FiniteGDS, eps: float, family: FamilyTag | None = None, tol: float = 1e-9
) -> CoveringResult:
    """Size of a smallest generator subset whose family orbits cover all
    generators within eps (open balls, Ky Fan metric).

    Exhaustive subset search gives the exact value for at most 12
    generators; otherwise a greedy set cover provides an upper bound.
    """
    if eps <= 0:
        raise InvalidRange("eps must be positive")
    family = family or X.family
    d = directed_orbit_matrix(X.generators, family, X.mu, tol)
    m = d.shape[0]
    covers = d < eps  # covers[t, r]: generator r covers target t
    if m <= 12:
        for size in range(1, m + 1):
            for combo in combinations(range(m), size):
                if np.all(covers[:, combo].any(axis=1)):
                    return CoveringResult(size, True)
        return CoveringResult(m, True)
    uncovered = np.ones(m, dtype=bool)
    count = 0
    while uncovered.any():
        gains = (covers & uncovered[:, None]).sum(axis=0)
        pick = int(np.argmax(gains))
        uncovered &= ~covers[:, pick]
        count += 1
    return CoveringResult(count, False)


@dataclass(frozen=True)
class CapacityResult:
    value: int
    exact: bool


def capacity(
    orbit_reps, eps: float, family: FamilyTag, mu: ProbVector, tol: float = 1e-9
) -> CapacityResult:
    """Size of an eps-discrete set of orbit representatives.

    Discreteness uses the symmetrized orbit Hausdorff estimate (the
    larger of the two directed orbit distances) with strict > eps.
    Greedy scan gives a lower bound; for at most 12 representatives an
    exhaustive bitmask search returns the exact maximum.
    """
    reps = np.asarray(orbit_reps, dtype=float)
    if reps.ndim != 2 or reps.shape[0] == 0:
        raise EmptySet("need at least one representative")
    s = symmetric_orbit_matrix(reps, family, mu, tol)
    m = s.shape[0]
    if m <= 12:
        apart = s > eps
        np.fill_diagonal(apart, False)
        allowed = [sum(1 << j for j in range(m) if apart[i, j]) for i in range(m)]
        best = 1
        for mask in range(1, 1 << m):
            members = [i for i in range(m) if mask >> i & 1]
            if all(mask & ~allowed[i] & ~(1 << i) == 0 for i in members):
                best = max(best, len(members))
        return CapacityResult(best, True)
    kept: list[int] = []
    for i in range(m):
        if all(s[i, k] > eps for k in kept):
            kept.append(i)
    return CapacityResult(len(kept), False)


def _min_window(mu: DiscreteMeasureR, alpha: float):
    """Endpoints of a minimal support window carrying mass >= alpha."""
    width = partial_diameter(mu, alpha)
    v = mu.values
    prefix = np.concatenate([[0.0], np.cumsum(mu.masses)])
    for i in range(v.size):
        pos = int(np.searchsorted(prefix, prefix[i] + alpha - MASS_GUARD, side="left"))
        j = pos - 1
        if j < v.size and v[j] - v[i] == width:
            return width, float(v[i]), float(v[j])
    return width, float(v[0]), float(v[-1])


def extract_bounded(
    mu: DiscreteMeasureR, kappa: float, eps: float, r: float
) -> tuple[ClipMap, float]:
    """Bounded extraction of a feature measure.

    Returns g = b_r composed with centering at the Levy mean, and the
    achieved (1 - kappa)-partial diameter of g_* mu. Guarantees

        min(r, pd(mu; 1 - (kappa + eps))) <= pd(g_* mu; 1 - kappa) + 2 eps

    for kappa in (0, 1/2) with kappa + eps < 1/2; values of g lie in
    [-r, r]. The construction underlying the guarantee covers only
    kappa below 1/2; see extract_window_heuristic for the rest of the
    range.
    """
    if not (0.0 < kappa < 0.5) or eps <= 0.0 or kappa + eps >= 0.5 or r <= 0.0:
        raise InvalidRange("need 0 < kappa, kappa + eps < 1/2 and r > 0")
    g = ClipMap(c=-levy_mean(mu), lo=-r, hi=r)
    pushed = pushforward(g.apply(mu.values), ProbVector(mu.masses))
    return g, partial_diameter(pushed, 1.0 - kappa)


def extract_window_heuristic(
    mu: DiscreteMeasureR, kappa: float, r: float
) -> tuple[ClipMap, float]:
    """Window-centered extraction for any kappa in (0, 1).

    Centers the clip on a minimal (1 - kappa)-mass window instead of
    the Levy mean. Not certified: no counterpart of the bounded
    extraction guarantee is claimed for kappa >= 1/2.
    """
    if not (0.0 < kappa < 1.0) or r <= 0.0:
        raise InvalidRange("need kappa in (0, 1) and r > 0")
    _, left, right = _min_window(mu, 1.0 - kappa)
    g = ClipMap(c=-(left + right) / 2.0, lo=-r, hi=r)
    pushed = pushforward(g.apply(mu.values), ProbVector(mu.masses))
    return g, partial_diameter(pushed, 1.0 - kappa)
