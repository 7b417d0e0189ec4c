"""Monoidal families of 1-Lipschitz maps acting on features.

Four families are searched exactly:

* translations x -> x + c,
* symmetric clips x -> max(-R, min(x, R)),
* shift-then-clip maps x -> max(l, min(x + c, u)),
* all of lip1(R), through McShane's extension.

The central primitive is the distance from a feature to the orbit of
another feature under a family, measured in the Ky Fan metric
(dist_to_orbit) or in sup norm for support-restricted comparisons
(dist_to_orbit_sup). Orbit distances feed covering numbers, capacities,
domination checks and the coupling objectives.

Both metrics share one orbit engine: one family dispatch and one
bisection over the breakpoints of a cover oracle (the least weight a
family leaves farther than eps). A metric supplies a batched row scorer
(kf_rows or the row maximum), a batched exact translation optimum with
its shift (the window formula or the midrange), the weights and
acceptance rule of the bisection, and its shift-then-clip and lip1
searches.

The maps themselves, ClipMap and PLMap, live in maps.py.

Certification semantics: `certified=True` means the returned value is
the exact infimum over the family, up to float rounding in scoring the
witness; this holds for every family at every support size. Every
returned value is what its witness achieves.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from ._kernels import kf_rows, row_blocks, sorted_unique, window_tradeoff_values
from .core import DiscreteMeasureR, FamilyTag, FiniteGDS, ProbVector, pushforward
from .errors import DimensionMismatch, EmptySet, InvalidRange
from .maps import ClipMap, PLMap
from .stats import levy_mean, partial_diameter


@dataclass(frozen=True, eq=False)
class OrbitDistanceResult:
    """Distance from a feature to a family orbit, with a witness map."""

    value: float
    witness: object  # ClipMap or PLMap
    certified: bool


def _clip_cover(sf, fixed, absg, w, eps):
    """The least weight that a clip radius leaves farther than eps.

    Takes sf = sign(g) * f, fixed = |f - g| and absg = |g|. For each
    point i the radii R >= 0 with |f_i - clamp(g_i, -R, R)| <= eps form
    one closed interval; a sweep over their endpoints finds the radius
    covering the most weight. Returns (uncovered weight, R) with R the
    smallest such radius. eps is widened by a few ulps first, so
    endpoints that meet in exact arithmetic also meet in float.
    """
    eps = eps + 4.0 * np.spacing(eps)
    near = fixed <= eps
    lo = np.maximum(0.0, sf - eps)
    # within eps at R = |g_i| means within eps for every larger R too
    hi = np.where(near, np.inf, np.minimum(absg, sf + eps))
    keep = (lo <= hi) & ((absg > 0.0) | near)
    lo, hi, wk = lo[keep], hi[keep], w[keep]
    total = float(np.sum(w))
    if lo.size == 0:
        return total, 0.0
    # a stable sort keeps starts before ends at one coordinate, so
    # closed intervals that touch overlap
    order = np.argsort(np.concatenate([lo, hi]), kind="stable")
    cover = np.cumsum(np.concatenate([wk, -wk])[order])
    cover[order >= lo.size] = -np.inf
    k = int(np.argmax(cover))
    return total - float(cover[k]), float(lo[order[k]])


def _first_accepted(breaks, cover, metric):
    """Bisection for the first breakpoint e_k whose cover the metric
    accepts. cover(eps) returns (uncovered weight, witness); the weight
    must be constant between breakpoints, must not grow with eps, and
    must be accepted at the last one. Returns (eps, witness) at e_{k-1}
    (when k > 0) and at e_k.
    """
    lo, hi, covers = 0, breaks.size - 1, {}
    while lo < hi:
        mid = (lo + hi) // 2
        covers[mid] = cover(breaks[mid])
        if metric.accepts(covers[mid][0], breaks[mid]):
            hi = mid
        else:
            lo = mid + 1
        # only e_{lo-1} and e_hi can still be returned; a witness may be large
        covers = {k: c for k, c in covers.items() if lo - 1 <= k <= hi}
    return [(breaks[k], (covers.get(k) or cover(breaks[k]))[1]) for k in (lo - 1, lo) if k >= 0]


def _orbit_clip(f, g, metric):
    """Exact distance from f to the symmetric-clip orbit of g, as (value, R).

    The least weight m(eps) that any radius leaves farther than eps
    (_clip_cover) does not increase with eps. With sf = sign(g) * f,
    the good radii of point i are [max(0, sf_i - eps), inf) once eps >=
    |f_i - g_i|, and before that [max(0, sf_i - eps), sf_i + eps] when
    g_i != 0 and that lies below |g_i|. So m changes only at the
    breakpoints e_k where an interval appears or becomes unbounded
    (|sf_i|, |f_i - g_i|) or where a left end meets a right end
    (|sf_a - sf_b| / 2). The first e_k that the metric accepts is found
    by bisection. The sup norm accepts only
    m(e_k) = 0 under unit weights, and its optimum is e_k. Ky Fan
    accepts m(e_k) <= e_k, and its optimum is min(e_k, m(e_{k-1})),
    which the sweep radius at e_{k-1} reaches. Candidate radii around
    both breakpoints are then scored directly, so the value returned is
    the one its witness achieves.
    """
    sf = np.sign(g) * f
    fixed = np.abs(f - g)
    absg = np.abs(g)
    half_gaps = np.abs(sf[:, None] - sf[None, :]) / 2.0
    breaks = sorted_unique(np.concatenate([[0.0], fixed, np.abs(sf), half_gaps.ravel()]))
    # the largest breakpoint is at least max |f - g|, where R = max |g|
    # leaves nothing out
    found = _first_accepted(
        breaks, lambda eps: _clip_cover(sf, fixed, absg, metric.w, eps), metric
    )
    tops = np.array([eps for eps, _ in found])
    a, b = np.nonzero(np.isin(half_gaps, tops))
    radii = np.concatenate([
        [0.0],
        absg,
        [r for _, r in found],
        (sf[None, :] + np.concatenate([tops, -tops])[:, None]).ravel(),
        (sf[a] + sf[b]) / 2.0,
    ])
    radii = sorted_unique(np.maximum(radii, 0.0))

    def score(s):
        r = radii[s, None]
        return metric.rows(np.abs(f[None, :] - np.clip(g[None, :], -r, r)))

    vals = row_blocks(score, radii.size, f.size)
    j = int(np.argmin(vals))
    return float(vals[j]), float(radii[j])


def _tb_cover(fs, ds, ws):
    """Shift-then-clip cover oracle over points sorted by f (fs), with
    ds = f - g and masses ws: eps -> (least weight a map leaves farther
    than eps, a function building that map).

    A constant map covers an f-window [f_j, f_j + 2 eps] (and wins a
    tie). Any other map covers at most what (c, f_j + eps, f_k - eps)
    covers, f_j and f_k its lowest and highest covered f: the points
    with |d_i - c| <= eps (good) in [f_j, f_k], with c < d_i - eps
    (low) in [f_j, f_j + 2 eps] and with c > d_i + eps (high) in
    [f_k - 2 eps, f_k]. That is A(j) + B(k), maximized by a prefix
    maximum over j. Raising c to the least d_a + eps over good points
    keeps them good, leaves low points low or good and high points
    high, so the shifts c = d_a + eps suffice. Each test compares a
    difference of two inputs with 2 eps or 0, so it switches exactly at
    the breakpoints |f_i - f_j| / 2 and |d_i - d_j| / 2.
    """
    n = fs.size
    first = np.searchsorted(fs, fs, side="left")
    last = np.searchsorted(fs, fs, side="right")
    prefix = np.concatenate([[0.0], np.cumsum(ws)])
    gaps = fs[None, :] - fs[:, None]  # gaps[j, i] = f_i - f_j
    roles = np.array([0, 1, -1])[:, None, None]  # good, low, high

    def cover(eps):
        two = 2.0 * eps
        # end of [f_j, f_j + 2 eps], and the count of points below f_k - 2 eps
        up = np.count_nonzero(gaps <= two, axis=1)
        below = np.count_nonzero(gaps > two, axis=0)
        const = prefix[up] - prefix[first]

        def terms(rows):
            # row r shifts by c = d_r + eps
            diff = ds[None, :] - ds[rows, None]
            role = (diff > two).astype(int) - (diff < 0.0)
            sums = np.zeros((3, role.shape[0], n + 1))
            sums[:, :, 1:] = (role == roles) * ws
            good, lows, highs = np.cumsum(sums, axis=2, out=sums)
            a = lows[:, up] - lows[:, first] - good[:, first]
            best_a = np.full((a.shape[0], n + 1), -np.inf)
            np.maximum.accumulate(a, axis=1, out=best_a[:, 1:])
            return a, good[:, last] + highs[:, last] - highs[:, below] + best_a[:, below]

        shifted = row_blocks(lambda rows: terms(rows)[1].max(axis=1), n, n)
        j, r = int(np.argmax(const)), int(np.argmax(shifted))
        if const[j] >= shifted[r]:
            return prefix[-1] - const[j], lambda: ClipMap.constant(fs[j] + eps)

        def witness():
            a, covered = terms(slice(r, r + 1))
            k = int(np.argmax(covered[0]))
            i = int(np.argmax(a[0, :below[k]]))
            return ClipMap(float(ds[r] + eps), float(fs[i] + eps), float(fs[k] - eps))

        return prefix[-1] - shifted[r], witness

    return cover


def _mcshane(f, g, members):
    """The central McShane extension of f from g on `members`, a PLMap
    with a knot at each value of g: the mean of x -> min_j (f_j + |x -
    g_j|) and x -> max_j (f_j - |x - g_j|) over members j. It is
    1-Lipschitz, and within eps of f at every member when no pair of
    members stretches (|f_i - f_j| - |g_i - g_j|) by more than 2 eps.

    Each knot is computed as an offset from f at its nearest member, so
    that terms that cancel in exact arithmetic also cancel in float: at
    a member's own knot, with f = g, each f_j - f_i -+ |g_i - g_j| is
    exactly 0 or 2 (f_j - f_i), and the knot takes f_i itself.
    """
    knots = sorted_unique(g)
    gaps = np.abs(knots[:, None] - g[None, members])
    fm = f[members]
    ref = fm[np.argmin(gaps, axis=1)]
    d = fm[None, :] - ref[:, None]
    return PLMap(knots, ref + ((d + gaps).min(axis=1) + (d - gaps).max(axis=1)) / 2.0)


def _lip1_cover(f, g, stretch, w):
    """lip1 cover oracle, as _tb_cover, over the stretch matrix
    |f_i - f_j| - |g_i - g_j| and the masses w.

    By McShane's extension a 1-Lipschitz map brings a set S within eps
    exactly when no pair in S stretches by more than 2 eps. Over points
    sorted by g, with a = f + g and b = f - g, a pair i before j passes
    exactly when a_j >= a_i - 2 eps and b_j <= b_i + 2 eps, so j fits S
    when it passes with the members p of largest a and q of least b. A
    dynamic program keeps W[p, q], the heaviest such S so far: (p, q) is
    made at step max(p, q) from one earlier state, and every later point
    that fits it and takes neither role joins it.
    """
    order = np.argsort(g, kind="stable")
    ws, fits = w[order], stretch[np.ix_(order, order)]
    a, b = (f + g)[order], (f - g)[order]
    # [j, i]: j takes the role of largest a (least b) from the earlier i
    up, down = a[None, :] <= a[:, None], b[None, :] >= b[:, None]
    no, n = np.float64(-np.inf), ws.size

    def cover(eps):
        # additive masks, -inf where a test fails or a role is not taken:
        # every finite value written at step j is exactly an old one + ws[j]
        ok = np.where(fits <= 2.0 * eps, 0.0, no)
        okw = ok + ws[:, None]
        take_p, take_q = okw + np.where(up, 0.0, no), ok + np.where(down, 0.0, no)
        keep_p, keep_q = okw + np.where(up, no, 0.0), ok + np.where(down, no, 0.0)
        W, made_from = np.full((n, n), no), np.full((n, n), -1)
        W[0, 0] = ws[0]
        for j in range(1, n):
            prev, span = W[:j, :j], np.arange(j)
            # j joins (p, q), which becomes (j, q), (p, j) or (j, j), or stays
            to_jq, to_pj = prev + take_p[j, :j, None], prev + take_q[j, None, :j]
            row, col = to_jq.max(axis=0), to_pj.max(axis=1)
            both = row + take_q[j, :j]
            np.maximum(prev, prev + keep_p[j, :j, None] + keep_q[j, None, :j], out=prev)
            W[j, :j], W[:j, j] = row + keep_q[j, :j], col + keep_p[j, :j]
            W[j, j] = max(ws[j], both.max())
            # where each new state came from, as a flat index (-1: nowhere)
            made_from[j, :j] = to_jq.argmax(axis=0) * n + span
            made_from[:j, j] = span * n + to_pj.argmax(axis=1)
            if W[j, j] > ws[j]:
                made_from[j, j] = made_from[j, both.argmax()]

        def witness():
            p, q = np.unravel_index(int(np.argmax(W)), W.shape)
            chosen, end = [], n
            while p >= 0:
                t = max(p, q)
                later = np.arange(t + 1, end)
                joined = (ok[later, p] + ok[later, q] == 0.0) & ~up[later, p] & ~down[later, q]
                chosen += [t, *later[joined]]
                (p, q), end = divmod(made_from[p, q], n), t
            return _mcshane(f, g, order[chosen])

        return float(np.sum(w)) - float(W.max()), witness

    return cover


class _Metric:
    def best(self, f, g, maps):
        """(value, map) of the map that brings g nearest f, the first on a tie."""
        vals = self.rows(np.abs(f[None, :] - np.vstack([p.apply(g) for p in maps])))
        j = int(np.argmin(vals))
        return float(vals[j]), maps[j]


class _KyFan(_Metric):
    """Ky Fan scorers under the weights w. A clip radius is accepted at
    eps when it leaves weight at most eps farther than eps."""

    def __init__(self, w):
        self.w = w

    def rows(self, absdiffs):
        return kf_rows(absdiffs, self.w)

    def translate(self, deltas):
        return window_tradeoff_values(deltas, self.w)

    def accepts(self, uncovered, eps):
        return uncovered <= eps

    def shiftclip(self, f, g):
        """Exact shift-then-clip orbit distance, as (value, map): the
        first breakpoint e_k that _tb_cover accepts is found as in
        _orbit_clip, and min(e_k, max(e_{k-1}, m(e_{k-1}))) is reached
        by the witness at e_{k-1} or e_k. The optimal translation and
        those two are scored; the first wins a tie.
        """
        order = np.argsort(f, kind="stable")
        fs, ds = f[order], (f - g)[order]
        breaks = sorted_unique(np.concatenate([
            [0.0],
            (np.abs(fs[:, None] - fs[None, :]) / 2.0).ravel(),
            (np.abs(ds[:, None] - ds[None, :]) / 2.0).ravel(),
        ]))
        # m(t) <= t at the translation optimum t, so the first
        # breakpoint above t is accepted; so is the largest, where a
        # constant map covers every point
        t_vals, t_shifts = self.translate((f - g)[None, :])
        breaks = breaks[: np.searchsorted(breaks, t_vals[0], side="right") + 1]
        found = _first_accepted(breaks, _tb_cover(fs, ds, self.w[order]), self)
        maps = [ClipMap.translation(t_shifts[0])] + [build() for _, build in found]
        return self.best(f, g, maps)

    def lip1(self, f, g):
        """Exact lip1 orbit distance, as (value, map): the first
        breakpoint e_k that _lip1_cover accepts is found as in
        _orbit_clip, and the witnesses at e_{k-1} and e_k are scored.
        """
        stretch = np.abs(f[:, None] - f[None, :]) - np.abs(g[:, None] - g[None, :])
        breaks = sorted_unique(np.maximum(stretch, 0.0) / 2.0)
        maps = [build() for _, build in _first_accepted(breaks, _lip1_cover(f, g, stretch, self.w), self)]
        return self.best(f, g, maps)


class _Sup(_Metric):
    """Sup-norm scorers over n points. Every point weighs 1 in the clip
    sweep, and a radius is accepted at eps only when it leaves no point
    farther than eps."""

    def __init__(self, n):
        self.w = np.ones(n)

    def rows(self, absdiffs):
        return absdiffs.max(axis=1)

    def translate(self, deltas):
        top, bottom = deltas.max(axis=1), deltas.min(axis=1)
        return (top - bottom) / 2.0, (top + bottom) / 2.0

    def accepts(self, uncovered, eps):
        return uncovered == 0.0

    def shiftclip(self, f, g):
        """Exact shift-then-clip orbit distance, as (value, map): with
        d = f - g, eps = max_ij min(f_i - min f, max f - f_j, d_i - d_j) / 2.
        Unless the constant midrange map is optimal, lo = min f + eps,
        hi = max f - eps, and c is the middle of the range d_i - eps <=
        c <= d_j + eps over f_i - min f > 2 eps and max f - f_j > 2 eps.
        Those tests reuse the differences behind eps.
        """
        above, under, d = f - f.min(), f.max() - f, f - g

        def pairs(rows):
            cap = np.minimum(above[rows, None], under[None, :])
            return np.minimum(cap, d[rows, None] - d[None, :]).max(axis=1)

        top = float(row_blocks(pairs, f.size, f.size).max())
        if top >= f.max() - f.min():
            p = ClipMap.constant((f.max() + f.min()) / 2.0)
        else:
            c = (d[above > top].max() + d[under > top].min()) / 2.0
            p = ClipMap(float(c), float(f.min() + top / 2.0), float(f.max() - top / 2.0))
        return self.best(f, g, [p])

    def lip1(self, f, g):
        """Exact lip1 orbit distance, as (value, map): by McShane's
        extension max(0, max_ij (|f_i - f_j| - |g_i - g_j|) / 2), which
        the central extension over every point reaches.
        """
        p = _mcshane(f, g, np.arange(f.size))
        return self.best(f, g, [p])


def _orbit_distance(f, g, family: FamilyTag, metric) -> OrbitDistanceResult:
    """Distance from f to the family orbit of g in the given metric."""
    if family.kind == "id":
        return OrbitDistanceResult(float(metric.rows(np.abs(f - g)[None, :])[0]), ClipMap.identity(), True)
    if family.kind == "T":
        vals, shifts = metric.translate((f - g)[None, :])
        return OrbitDistanceResult(float(vals[0]), ClipMap.translation(shifts[0]), True)
    if family.kind == "B":
        value, radius = _orbit_clip(f, g, metric)
        return OrbitDistanceResult(value, ClipMap.bound(radius), True)
    value, witness = (metric.shiftclip if family.kind == "TB" else metric.lip1)(f, g)
    return OrbitDistanceResult(value, witness, True)


def dist_to_orbit(f, g, family: FamilyTag, mu: ProbVector) -> OrbitDistanceResult:
    """Ky Fan distance from feature f to the family orbit of g.

    Exact for every family at every support size, with a witness that
    achieves the value.
    """
    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
    w = mu.weights
    if f.shape != g.shape or f.shape != w.shape:
        raise DimensionMismatch("feature lists and weights must share one length")
    return _orbit_distance(f, g, family, _KyFan(w))


def dist_to_orbit_sup(f, g, family: FamilyTag) -> OrbitDistanceResult:
    """Sup-norm distance from f to the family orbit of g.

    Same family semantics as dist_to_orbit but with max |f - p(g)|
    replacing the Ky Fan metric; used for support-restricted box
    objectives.
    """
    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
    if f.shape != g.shape:
        raise DimensionMismatch("feature lists must share one length")
    return _orbit_distance(f, g, family, _Sup(f.size))


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


def directed_orbit_matrix(rows, family: FamilyTag, mu: ProbVector):
    """Matrix of dist_to_orbit values between feature rows (directed)."""
    rows = np.asarray(rows, dtype=float)
    m = rows.shape[0]
    out = np.zeros((m, m))
    for i in range(m):
        for j in range(m):
            if i != j:
                out[i, j] = dist_to_orbit(rows[i], rows[j], family, mu).value
    return out


def symmetric_orbit_matrix(rows, family: FamilyTag, mu: ProbVector):
    d = directed_orbit_matrix(rows, family, mu)
    return np.maximum(d, d.T)


@dataclass(frozen=True)
class CoveringResult:
    value: int
    exact: bool


def covering_number(X: FiniteGDS, eps: float, family: FamilyTag | None = None) -> CoveringResult:
    """Size of a smallest generator subset whose family orbits cover all
    generators within eps (open balls, Ky Fan metric).

    Exhaustive subset search gives the exact value for at most 12
    generators; otherwise a greedy set cover provides an upper bound.
    """
    if eps <= 0:
        raise InvalidRange("eps must be positive")
    family = family or X.family
    d = directed_orbit_matrix(X.generators, family, X.mu)
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


def capacity(orbit_reps, eps: float, family: FamilyTag, mu: ProbVector) -> CapacityResult:
    """Size of an eps-discrete set of orbit representatives.

    Discreteness uses the symmetrized orbit Hausdorff estimate (the
    larger of the two directed orbit distances) with strict > eps.
    Greedy scan gives a lower bound; for at most 12 representatives a
    search by subset size, as in covering_number, returns the exact
    maximum: a discrete set of k + 1 representatives contains one of k,
    so the size grows while some set one larger is discrete.
    """
    reps = np.asarray(orbit_reps, dtype=float)
    if reps.ndim != 2 or reps.shape[0] == 0:
        raise EmptySet("need at least one representative")
    s = symmetric_orbit_matrix(reps, family, mu)
    m = s.shape[0]
    if m <= 12:
        apart = (s > eps).tolist()
        size = 1
        while size < m and any(
            all(apart[i][j] for i, j in combinations(combo, 2))
            for combo in combinations(range(m), size + 1)
        ):
            size += 1
        return CapacityResult(size, True)
    kept: list[int] = []
    for i in range(m):
        if all(s[i, k] > eps for k in kept):
            kept.append(i)
    return CapacityResult(len(kept), False)


def extract_bounded(
    mu: DiscreteMeasureR, kappa: float, eps: float, r: float
) -> tuple[ClipMap, float]:
    """Bounded extraction of a feature measure.

    Returns g = b_r composed with centering at the Levy mean, and the
    achieved (1 - kappa)-partial diameter of g_* mu. Guarantees

        min(r, pd(mu; 1 - (kappa + eps))) <= pd(g_* mu; 1 - kappa) + 2 eps

    for kappa in (0, 1/2) with kappa + eps < 1/2; values of g lie in
    [-r, r]. The construction underlying the guarantee covers only
    kappa below 1/2.
    """
    if not (0.0 < kappa < 0.5) or eps <= 0.0 or kappa + eps >= 0.5 or r <= 0.0:
        raise InvalidRange("need 0 < kappa, kappa + eps < 1/2 and r > 0")
    g = ClipMap(c=-levy_mean(mu), lo=-r, hi=r)
    pushed = pushforward(g.apply(mu.values), ProbVector(mu.masses))
    return g, partial_diameter(pushed, 1.0 - kappa)

