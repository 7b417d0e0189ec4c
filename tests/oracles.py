"""Brute-force oracles and instance generators for the test suite.

The oracles use exact rational arithmetic (Fraction of a float is
exact) and plain enumeration, staying independent of the library's
vectorized code paths. Instance generators produce dyadic values and
masses, for which float arithmetic in both the oracles and the library
is exact, so equality assertions are meaningful.
"""
import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations, product

import numpy as np

import gdskit as gk
from gdskit._kernels import MASS_GUARD
from gdskit.errors import NotAMetric, ValidationError


# ---------------------------------------------------------------------------
# dyadic instance generators
# ---------------------------------------------------------------------------

def dyadic_values(rng, n, span=8, denom=64):
    return rng.integers(-span * denom, span * denom + 1, size=n) / denom


def dyadic_masses(rng, n, denom_pow=10):
    """n positive masses, multiples of 2**-denom_pow, summing to 1."""
    total = 1 << denom_pow
    if n == 1:
        return np.array([1.0])
    cuts = np.sort(rng.choice(np.arange(1, total), size=n - 1, replace=False))
    parts = np.diff(np.concatenate([[0], cuts, [total]]))
    return parts / total


def dyadic_measure(rng, max_atoms=6):
    n = int(rng.integers(1, max_atoms + 1))
    vals = np.unique(dyadic_values(rng, 2 * n))[:n]
    return gk.DiscreteMeasureR(vals, dyadic_masses(rng, vals.size))


def dyadic_gds(rng, max_n=6, max_gens=3, family=gk.TB_FAMILY, span=4):
    """Random valid FiniteGDS with dyadic values and masses."""
    n = int(rng.integers(2, max_n + 1))
    g = int(rng.integers(1, max_gens + 1))
    while True:
        gens = np.vstack([dyadic_values(rng, n, span=span) for _ in range(g)])
        d = np.max(np.abs(gens[:, :, None] - gens[:, None, :]), axis=0)
        if np.all(d[np.triu_indices(n, k=1)] > 0):
            break
    return gk.validate_gds(range(n), gens, family, dyadic_masses(rng, n))


def dyadic_metric(rng, n, dim=3, denom=1024):
    """Distance matrix of a dyadic point cloud under the sup metric;
    exactly a metric in float arithmetic."""
    while True:
        pts = rng.integers(0, denom + 1, size=(n, dim)) / denom
        D = np.abs(pts[:, None, :] - pts[None, :, :]).max(axis=2)
        if np.all(D[np.triu_indices(n, k=1)] > 0):
            return D


def random_clip(rng, span=4, denom=8):
    kind = rng.integers(0, 4)
    c = float(rng.integers(-span * denom, span * denom + 1)) / denom
    a = float(rng.integers(-span * denom, span * denom + 1)) / denom
    b = float(rng.integers(-span * denom, span * denom + 1)) / denom
    lo, hi = min(a, b), max(a, b)
    if kind == 0:
        return gk.ClipMap.translation(c)
    if kind == 1:
        return gk.ClipMap.bound(abs(a))
    if kind == 2:
        return gk.ClipMap(c, lo, hi)
    return gk.ClipMap.constant(a)


# ---------------------------------------------------------------------------
# exact oracles
# ---------------------------------------------------------------------------

def pd_oracle(values, masses, alpha):
    """Enumerate every support window in exact rational arithmetic."""
    pairs = sorted(zip((Fraction(float(v)) for v in values),
                       (Fraction(float(m)) for m in masses)))
    vals, ms = [], []
    for v, m in pairs:
        if vals and v == vals[-1]:
            ms[-1] += m
        else:
            vals.append(v)
            ms.append(m)
    a = Fraction(float(alpha))
    best = None
    for i in range(len(vals)):
        acc = Fraction(0)
        for j in range(i, len(vals)):
            acc += ms[j]
            if acc >= a:
                width = vals[j] - vals[i]
                if best is None or width < best:
                    best = width
                break
    assert best is not None, "alpha exceeds the total mass"
    return float(best)


def kf_oracle(f, g, masses):
    """Exact Ky Fan value via rational candidate scan."""
    diffs = [abs(Fraction(float(a)) - Fraction(float(b))) for a, b in zip(f, g)]
    ms = [Fraction(float(m)) for m in masses]

    def tail(eps):
        return sum((m for d, m in zip(diffs, ms) if d > eps), Fraction(0))

    cands = sorted({Fraction(0)} | set(diffs))
    best = None
    for c in cands:
        t = tail(c)
        val = max(c, t)
        if best is None or val < best:
            best = val
    return float(best)


def prohorov_oracle(mu, nu):
    """Subset-enumeration Prohorov distance for small measures."""
    mv = [Fraction(float(v)) for v in mu.values]
    mm = [Fraction(float(m)) for m in mu.masses]
    nv = [Fraction(float(v)) for v in nu.values]
    nm = [Fraction(float(m)) for m in nu.masses]
    dists = sorted({Fraction(0)} | {abs(x - y) for x in mv for y in nv})
    best = None
    for d in dists:
        worst = Fraction(0)
        for r in range(1, len(nv) + 1):
            for A in combinations(range(len(nv)), r):
                nu_a = sum(nm[j] for j in A)
                reachable = sum(
                    m for x, m in zip(mv, mm)
                    if any(abs(x - nv[j]) <= d for j in A)
                )
                worst = max(worst, nu_a - reachable)
        val = max(d, worst)
        if best is None or val < best:
            best = val
    return float(best)


def prohorov_listing(mu, nu):
    """stats.prohorov over the listed atom distances: every |y - x| and 0,
    sorted, bisected on the index with the same flow, and the value
    min(D(d_{k-1}), d_k) at the first accepted d_k. It holds the
    atoms^2 distances at once."""
    from gdskit.stats import _routable_mass

    dists = np.abs(nu.values[:, None] - mu.values[None, :])
    cands = np.unique(np.concatenate([[0.0], dists.ravel()]))

    def deficiency(k):
        return max(0.0, float(nu.masses.sum()) - _routable_mass(nu, mu, cands[k]))

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


def binomial_profile(k):
    """Pushforward of a normalized Hamming cube distance row: values j/k
    with masses C(k, j) / 2^k."""
    from math import comb

    vals = np.arange(k + 1) / k
    masses = np.array([comb(k, j) for j in range(k + 1)], dtype=float) / 2.0**k
    return vals, masses


@dataclass(frozen=True)
class KyFanConfig:
    """Grid density for the Ky Fan grid oracle."""

    candidate_refinement: int = 1000

    def __post_init__(self):
        if self.candidate_refinement < 1:
            raise ValidationError("candidate_refinement must be >= 1")


def ky_fan_grid_oracle(f, g, mu, config: KyFanConfig) -> float:
    """Grid approximation of ky_fan.

    Scans eps over a uniform grid on [0, 1]; the result overshoots the
    exact value by at most one grid step.
    """
    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
    d = np.abs(f - g)
    w = mu.weights
    for eps in np.linspace(0.0, 1.0, config.candidate_refinement + 1):
        if float(w[d > eps].sum()) <= eps:
            return float(eps)
    return 1.0


def t_orbit_grid_oracle(f, g, masses, steps=2001, pad=1.0):
    """Fine shift grid for the translation-orbit Ky Fan distance."""
    delta = np.asarray(f, dtype=float) - np.asarray(g, dtype=float)
    lo, hi = delta.min() - pad, delta.max() + pad
    best = 1.0
    for c in np.linspace(lo, hi, steps):
        best = min(best, kf_oracle(f, np.asarray(g) + c, masses))
    return best


def clip_orbit_grid_oracle(f, g, masses, steps=2001):
    """Fine radius grid for the symmetric-clip-orbit Ky Fan distance."""
    hi = max(np.abs(f).max(), np.abs(g).max()) + 1.0
    best = kf_oracle(f, g, masses)
    for r in np.linspace(0.0, hi, steps):
        best = min(best, kf_oracle(f, np.clip(g, -r, r), masses))
    return best


def clip_orbit_oracle(f, g, masses):
    """Exact Ky Fan distance to the symmetric-clip orbit of g, as a
    Fraction: min over eps of max(eps, m(eps)), with m(eps) the least
    mass any radius leaves farther than eps.

    m is a step function of eps, so eps ranges over a superset of its
    jump points: 0, |f_i - g_i|, |sf_i - l| for l in {0, |g_j|, |f_j -
    g_j|}, and |sf_a -+ sf_b| / 2, with sf = sign(g) f. For each eps
    the set of good radii of a point is an interval, so m(eps) is taken
    over the left ends 0, |g_i| and sf_i - eps, scored point by point.
    """
    fs = [Fraction(float(v)) for v in f]
    gs = [Fraction(float(v)) for v in g]
    ms = [Fraction(float(m)) for m in masses]
    total = sum(ms)
    sf = [a if b > 0 else -a if b < 0 else Fraction(0) for a, b in zip(fs, gs)]
    absg = [abs(b) for b in gs]
    fixed = [abs(a - b) for a, b in zip(fs, gs)]
    levels = [Fraction(0)] + absg + fixed
    cands = {Fraction(0)} | set(fixed) | {abs(s - l) for s in sf for l in levels}
    cands |= {abs(s + t * u) / 2 for s in sf for u in sf for t in (-1, 1)}

    def dist(i, r):
        return abs(fs[i] - min(max(gs[i], -r), r))

    best = None
    for eps in sorted(cands):
        if best is not None and eps >= best:
            break
        radii = {Fraction(0)} | set(absg) | {max(Fraction(0), s - eps) for s in sf}
        covered = max(sum(m for i, m in enumerate(ms) if dist(i, r) <= eps) for r in radii)
        val = max(eps, total - covered)
        if best is None or val < best:
            best = val
    return best


def sup_clip_orbit_enumeration(f, g):
    """Sup-norm distance to the symmetric-clip orbit of g by scoring
    every candidate radius: |g_i|, sf_i, (sf_a + sf_b) / 2 and
    sf_i -+ |f_j - g_j|, all floored at 0. Returns (value, radius)."""
    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
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


def shiftclip_grid_oracle(f, g, masses, shift_steps=201, level_steps=41):
    """(c, lo, hi) grid scan for the shift-clip orbit distance.

    Returns (value, resolution): value is an upper bound on the true
    infimum and overshoots it by at most `resolution` (the objective is
    1-Lipschitz in each of c, lo, hi).
    """
    from gdskit._kernels import kf_rows

    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
    lo_c, hi_c = (f - g).min() - 0.5, (f - g).max() + 0.5
    shifts = np.linspace(lo_c, hi_c, shift_steps)
    inner = np.linspace(f.min() - 0.5, f.max() + 0.5, level_steps)
    lows = np.concatenate([[-np.inf], inner])
    highs = np.concatenate([inner, [np.inf]])
    best = kf_oracle(f, g, masses)
    for lo in lows:
        for hi in highs:
            if lo <= hi:
                mapped = np.clip(g[None, :] + shifts[:, None], lo, hi)
                vals = kf_rows(np.abs(f[None, :] - mapped), masses)
                best = min(best, float(vals.min()))
    c_step = (hi_c - lo_c) / (shift_steps - 1)
    l_step = (inner[-1] - inner[0]) / (level_steps - 1)
    return best, c_step / 2 + l_step



# the simple cycles of a digraph on the nodes 0 (the origin), 1 (c),
# 2 (lo) and 3 (hi), each listed once, from its smallest node
_TB_CYCLES = [
    cyc for size in (2, 3, 4) for nodes in combinations(range(4), size)
    for rest in permutations(nodes[1:]) for cyc in [(nodes[0],) + rest]
]


@dataclass(frozen=True)
class ExactOrbit:
    """Exact orbit data from tb_orbit_oracle or lip1_orbit_oracle.

    `options` holds (eps_min, uncovered weight) per feasible set of
    covered points: they fit one map of the family exactly when eps >=
    eps_min."""

    options: tuple

    @property
    def kyfan(self):
        return min(max(e, u) for e, u in self.options)

    @property
    def sup(self):
        return min(e for e, u in self.options if u == 0)

    def uncovered(self, eps):
        """m(eps): the least weight any map leaves farther than eps."""
        return min(u for e, u in self.options if e <= eps)


def tb_orbit_oracle(f, g, masses):
    """Shift-then-clip orbit of g as seen from f, in Fractions, by role
    enumeration.

    Under p = clamp(g + c, lo, hi) a covered point is clamped low
    (g_i + c <= lo, |f_i - lo| <= eps), in the middle (lo <= g_i + c <=
    hi, |f_i - g_i - c| <= eps) or clamped high; an uncovered point has
    no constraint, and lo <= hi always. Each role assignment is a system
    of difference constraints x_v - x_u <= w on (origin, c, lo, hi).
    Only the edges at the origin carry eps, so a simple cycle through it
    carries 2 eps: the assignment is feasible exactly when every cycle
    that avoids the origin is nonnegative and eps >= -w / 2 for every
    cycle through it. Meant for at most 4 points.
    """
    fs = [Fraction(float(v)) for v in f]
    gs = [Fraction(float(v)) for v in g]
    ms = [Fraction(float(m)) for m in masses]
    options = []
    for roles in product("ULMH", repeat=len(fs)):
        edges = {(3, 2): Fraction(0)}  # lo <= hi

        def add(u, v, w):
            edges[u, v] = min(edges.get((u, v), w), w)

        for role, a, b in zip(roles, fs, gs):
            if role == "L":
                add(2, 1, -b)
                add(0, 2, a)
                add(2, 0, -a)
            elif role == "M":
                add(1, 2, b)
                add(3, 1, -b)
                add(0, 1, a - b)
                add(1, 0, b - a)
            elif role == "H":
                add(1, 3, b)
                add(0, 3, a)
                add(3, 0, -a)
        eps = Fraction(0)
        for cyc in _TB_CYCLES:
            steps = list(zip(cyc, cyc[1:] + cyc[:1]))
            if all(step in edges for step in steps):
                w = sum(edges[step] for step in steps)
                if cyc[0] != 0 and w < 0:
                    break
                if cyc[0] == 0:
                    eps = max(eps, -w / 2)
        else:
            options.append((eps, sum((m for m, role in zip(ms, roles) if role == "U"), Fraction(0))))
    return ExactOrbit(tuple(options))


def lip1_orbit_oracle(f, g, masses):
    """lip1(R) orbit of g as seen from f, in Fractions, by subset
    enumeration.

    By McShane's extension a 1-Lipschitz map brings a set S of points
    within eps of f exactly when |f_i - f_j| <= |g_i - g_j| + 2 eps for
    every pair in S, so S fits one map from eps_S = max(0, the largest
    half stretch in S) on. Meant for at most 8 points.
    """
    fs = [Fraction(float(v)) for v in f]
    gs = [Fraction(float(v)) for v in g]
    ms = [Fraction(float(m)) for m in masses]
    n = len(fs)
    options = []
    for size in range(1, n + 1):
        for S in combinations(range(n), size):
            eps = max([Fraction(0)] + [
                (abs(fs[i] - fs[j]) - abs(gs[i] - gs[j])) / 2 for i, j in combinations(S, 2)
            ])
            options.append((eps, sum((ms[i] for i in range(n) if i not in S), Fraction(0))))
    return ExactOrbit(tuple(options))


def exact_cover_oracle(cover_matrix):
    """Smallest column subset covering all rows of a boolean matrix."""
    m = cover_matrix.shape[1]
    for size in range(1, m + 1):
        for combo in combinations(range(m), size):
            if cover_matrix[:, combo].any(axis=1).all():
                return size
    return m


def exact_capacity_oracle(sym, eps):
    """Largest subset with pairwise symmetric distance > eps."""
    m = sym.shape[0]
    best = 1
    for size in range(m, 0, -1):
        for combo in combinations(range(m), size):
            if all(sym[a, b] > eps for a, b in combinations(combo, 2)):
                return size
    return best


def canonical_form(X):
    """Permutation-minimal representation of a small FiniteGDS."""
    n = X.n_points
    best = None
    for perm in permutations(range(n)):
        cols = list(perm)
        mat = X.generators[:, cols]
        key = (
            tuple(sorted(tuple(row) for row in mat)),
            tuple(X.masses[cols]),
        )
        if best is None or key < best:
            best = key
    return best


# ---------------------------------------------------------------------------
# exact observable diameter and od transfer lower bound
# ---------------------------------------------------------------------------

def rational_gds(rng, denom, max_n=6, max_gens=3):
    """(data set, exact masses): small integer feature values and masses
    k / denom, which floats only approximate."""
    n = int(rng.integers(1, min(max_n, denom) + 1))
    ks = rng.multinomial(denom - n, np.full(n, 1.0 / n)) + 1
    g = int(rng.integers(1, max_gens + 1))
    while True:
        gens = rng.integers(0, 6, size=(g, n)).astype(float)
        if len({tuple(col) for col in gens.T}) == n:
            break
    X = gk.validate_gds(range(n), gens, gk.ID_FAMILY, ks / denom)
    return X, [Fraction(int(k), denom) for k in ks]


def _exact_windows(X, masses):
    """(mass, width) of every window of atoms, per generator, exactly."""
    out = []
    for row in X.generators:
        atoms = {}
        for value, mass in zip(row.tolist(), masses):
            atoms[Fraction(value)] = atoms.get(Fraction(value), 0) + mass
        vals = sorted(atoms)
        out.append([
            (sum(atoms[v] for v in vals[i:j + 1]), vals[j] - vals[i])
            for i in range(len(vals)) for j in range(i, len(vals))
        ])
    return out


def od_steps_exact(X, masses):
    """The od step function in exact arithmetic: (window mass, od) pairs
    with od(kappa) the value of the first pair whose mass is at least
    1 - kappa, keeping only the masses where od changes."""
    windows = _exact_windows(X, masses)
    every = sorted({m for row in windows for m, _ in row})
    values = [max(min(w for m, w in row if m >= t) for row in windows) for t in every]
    return [(t, v) for k, (t, v) in enumerate(zip(every, values))
            if k + 1 == len(every) or v < values[k + 1]]


def od_exact(steps, kappa):
    """od(kappa) from od_steps_exact; 0 from kappa = 1 on, and the
    limit kappa -> 0+ (the full windows) at kappa = 0."""
    if kappa >= 1:
        return Fraction(0)
    return next(v for m, v in steps if m >= 1 - kappa)


def delta_star_exact(sx, sy, kappa):
    """The least delta >= 0 with od_X(kappa + delta) <= od_Y(kappa) +
    2 delta and od_Y(kappa + delta) <= od_X(kappa) + 2 delta, scanning
    the intervals on which both od values are constant."""
    ax, ay = od_exact(sx, kappa), od_exact(sy, kappa)
    cuts = {Fraction(0), 1 - kappa}
    cuts |= {1 - m - kappa for m, _ in sx + sy if 0 < 1 - m - kappa < 1 - kappa}
    cuts = sorted(cuts)
    for b, nxt in zip(cuts, cuts[1:] + [None]):
        vx, vy = od_exact(sx, kappa + b), od_exact(sy, kappa + b)
        least = max(b, (vx - ay) / 2, (vy - ax) / 2)
        if nxt is None or least < nxt:
            return least


def jump_kappas_exact(sx, sy):
    """0 (the limit kappa -> 0+) and every kappa in (0, 1) where an od jumps."""
    return sorted({Fraction(0)} | {1 - m for m, _ in sx + sy if 0 < 1 - m < 1})


def od_lower_exact(sx, sy):
    """The supremum over kappa in (0, 1) of delta_star_exact, taken over
    the jump kappas and the limit kappa -> 0+."""
    return max(delta_star_exact(sx, sy, k) for k in jump_kappas_exact(sx, sy))


# ---------------------------------------------------------------------------
# full-scan coupling objectives
# ---------------------------------------------------------------------------

def dconc_pi_full_scan(X, Y, pi):
    """dconc_pi without pruning: every generator pair in both directions."""
    rows, cols = np.nonzero(pi > 0.0)
    w = pi[rows, cols]
    mu = gk.ProbVector(w / w.sum())
    fx, gy = X.generators[:, rows], Y.generators[:, cols]
    forward = max(min(gk.dist_to_orbit(f, g, Y.family, mu).value for g in gy) for f in fx)
    backward = max(min(gk.dist_to_orbit(g, f, X.family, mu).value for f in fx) for g in gy)
    return max(forward, backward)


def box_objective_full_scan(X, Y, pi, S):
    """box_objective without pruning: every generator pair in both directions."""
    rows = np.array([i for i, _ in S])
    cols = np.array([j for _, j in S])
    mass = float(pi[rows, cols].sum())
    fx, gy = X.generators[:, rows], Y.generators[:, cols]
    forward = max(min(gk.dist_to_orbit_sup(f, g, Y.family).value for g in gy) for f in fx)
    backward = max(min(gk.dist_to_orbit_sup(g, f, X.family).value for f in fx) for g in gy)
    return max(1.0 - mass, 2.0 * max(forward, backward))


# ---------------------------------------------------------------------------
# reference loops
# ---------------------------------------------------------------------------

def od_steps_loop(X):
    """(masses, values, near) of OdSteps.build one window at a time:
    every window of every generator's pushforward, then for each
    distinct window mass the largest over generators of the least width
    at or above it, keeping the masses where that value changes."""
    rows = []
    for row in X.generators:
        pf = gk.pushforward(row, X.mu)
        prefix = np.concatenate([[0.0], np.cumsum(pf.masses)])
        n = pf.values.size
        windows = sorted(
            (float(prefix[j + 1] - prefix[i]), float(pf.values[j] - pf.values[i]))
            for i in range(n) for j in range(i, n)
        )
        least = [w for _, w in windows]  # least width at or above each mass
        for k in range(len(least) - 2, -1, -1):
            least[k] = min(least[k], least[k + 1])
        rows.append(([m for m, _ in windows], least + [np.inf]))
    every = sorted({m for row_masses, _ in rows for m in row_masses})
    # a generator whose total rounds below the mass has no such window
    values = [max(least[bisect_left(row_masses, t)] for row_masses, least in rows) for t in every]
    steps = [(t, v) for k, (t, v) in enumerate(zip(every, values))
             if k + 1 == len(every) or v < values[k + 1]]
    ends = [t for t, _ in steps[1:]] + [np.inf]
    near = [max(m for m in every[bisect_left(every, t):bisect_left(every, end)] if m - t <= 2 * MASS_GUARD)
            for (t, _), end in zip(steps, ends)]
    return (np.array([t for t, _ in steps]), np.array([v for _, v in steps]), np.array(near))


def delta_star_loop(X, Y, kappa):
    """The smallest delta satisfying both od transfer inequalities at
    kappa, one candidate at a time: every window mass m of either space
    gives the candidate (1 - m) - kappa, and od comes from
    observable_diameter."""
    def od(Z, k):
        return 0.0 if k >= 1.0 else gk.observable_diameter(Z, k)

    masses = set()
    for Z in (X, Y):
        for row in Z.generators:
            prefix = np.concatenate([[0.0], np.cumsum(gk.pushforward(row, Z.mu).masses)])
            masses.update(float(b - a) for i, a in enumerate(prefix) for b in prefix[i + 1:])
    od_x, od_y = od(X, kappa), od(Y, kappa)
    deltas = sorted({0.0, 1.0 - kappa} | {d for d in ((1.0 - m) - kappa for m in masses) if 0.0 < d < 1.0 - kappa})
    for b, nxt in zip(deltas, deltas[1:] + [math.inf]):
        vx, vy = od(X, kappa + b), od(Y, kappa + b)
        if vx <= od_y + 2 * b and vy <= od_x + 2 * b:
            return b
        crossing = max((vx - od_y) / 2.0, (vy - od_x) / 2.0, b)
        if crossing < nxt:
            return crossing


def hausdorff_full_scan(scores_fwd, scores_bwd):
    """max(max_a min_b fwd[a, b], max_b min_a bwd[b, a]) over whole tables."""
    return max(float(scores_fwd.min(axis=1).max()), float(scores_bwd.min(axis=1).max()))


def check_metric_reference(D, tol=1e-9):
    """gdskit.core.check_metric as a whole-matrix check: the same axioms
    in the same order, with one n-by-n scratch buffer and one triangle
    pass per k, reporting the first violating triple in (k, i, j)
    order."""
    D = np.asarray(D, dtype=float)
    if D.ndim != 2 or D.shape[0] != D.shape[1]:
        raise NotAMetric("distance matrix must be square")
    if not np.all(np.isfinite(D)):
        i, j = np.argwhere(~np.isfinite(D))[0]
        raise ValidationError(f"non-finite distance at {(int(i), int(j))}")
    n = D.shape[0]
    if np.any(np.abs(np.diag(D)) > tol):
        i = int(np.argmax(np.abs(np.diag(D)) > tol))
        raise NotAMetric("nonzero diagonal", (i, i))
    buf = np.empty_like(D)
    asym = np.abs(np.subtract(D, D.T, out=buf), out=buf)
    if np.any(asym > tol):
        i, j = np.argwhere(asym > tol)[0]
        raise NotAMetric("asymmetric entry", (int(i), int(j)))
    if np.any(D < -tol):
        i, j = np.argwhere(D < -tol)[0]
        raise NotAMetric("negative distance", (int(i), int(j)))
    if n > 1:
        off = buf
        np.copyto(off, D)
        np.fill_diagonal(off, np.inf)
        if np.any(off <= 0.0):
            i, j = np.argwhere(off <= 0.0)[0]
            raise NotAMetric("zero distance between distinct points", (int(i), int(j)))
    for k in range(n):
        slack = np.subtract(D, np.add(D[:, k, None], D[k, None, :], out=buf), out=buf)
        if slack.max() > tol:
            i, j = np.argwhere(slack > tol)[0]
            raise NotAMetric("triangle inequality violated", (int(i), int(k), int(j)))
    return D


def point_classes_oracle(G):
    """Classes of equal columns of G from a dictionary of value tuples
    (-0.0 and 0.0 are one key), numbered by first appearance, and the
    first point of each class."""
    seen, classes, firsts = {}, [], []
    for i in range(G.shape[1]):
        key = tuple(G[:, i].tolist())
        if key not in seen:
            seen[key] = len(firsts)
            firsts.append(i)
        classes.append(seen[key])
    return classes, firsts


def first_equal_pair_oracle(G):
    """The first (i, j), i < j, in row order whose columns of G are equal,
    or None."""
    for i, j in combinations(range(G.shape[1]), 2):
        if np.all(G[:, i] == G[:, j]):
            return i, j
    return None


# ---------------------------------------------------------------------------
# law lower bound and exact box distance
# ---------------------------------------------------------------------------

def _hall_flow(wa, wb, linked):
    """Maximum flow from the masses wb to the masses wa over the pairs
    linked[j] (atoms of a) of each atom j of b, by Hall's theorem: the
    total less the largest deficiency wb(S) - wa(N(S)) over subsets S."""
    worst = Fraction(0)
    for size in range(1, len(wb) + 1):
        for S in combinations(range(len(wb)), size):
            reach = set().union(*(linked[j] for j in S))
            worst = max(worst, sum(wb[j] for j in S) - sum(wa[k] for k in reach))
    return sum(wb, Fraction(0)) - worst


def _law_positions(a, b, t, kind):
    """Positions of the atoms b under every vertex map of the family's
    arrangement at reach t: c in {a_i +- t - b_j}, R in {|a_k +- t|,
    |b_j|, 0}, and lo, hi in {a_k +- t} | {b_j + c} with lo <= hi."""
    if kind == "id":
        return {tuple(b)}
    shifts = {x + s * t - y for x in a for y in b for s in (-1, 1)}
    if kind == "T":
        return {tuple(y + c for y in b) for c in shifts}
    if kind == "B":
        radii = {abs(x + s * t) for x in a for s in (-1, 1)} | {abs(y) for y in b} | {Fraction(0)}
        return {tuple(max(-r, min(y, r)) for y in b) for r in radii}
    out = set()
    for c in shifts:
        levels = {x + s * t for x in a for s in (-1, 1)} | {y + c for y in b}
        for lo in levels:
            for hi in levels:
                if lo <= hi:
                    out.add(tuple(max(lo, min(y + c, hi)) for y in b))
    return out


def law_bound_oracle(a, wa, b, wb, kind, box):
    """The least eps at which some map p of the family routes mass
    1 - eps between the laws (a, wa) and p_*(b, wb) within t = eps (box:
    eps / 2), in Fractions, for id, T, B and TB; meant for at most 4
    atoms.

    Every map of the vertex arrangement is tried, and each flow comes
    from Hall's theorem. Acceptance grows with eps, and the most mass
    routed only changes at t = |u - v| or |u - v| / 2 for u, v among 0,
    +-a_k, +-b_j and a_i - b_j + b_l; bisection over those gives the
    first accepted e_k, and the value is min(e_k, 1 - routed at
    e_{k-1})."""
    a, wa, b, wb = ([Fraction(float(v)) for v in x] for x in (a, wa, b, wb))
    per_eps = Fraction(1, 2) if box else Fraction(1)
    sums = {Fraction(0)} | set(a) | {-x for x in a} | set(b) | {-y for y in b}
    sums |= {x - y + z for x in a for y in b for z in b}
    cuts = {abs(u - v) / d for u in sums for v in sums for d in (1, 2)}
    breaks = sorted({e / per_eps for e in cuts if e / per_eps < 1} | {Fraction(1)})

    def unrouted(eps):
        t = eps * per_eps
        flows = (
            _hall_flow(wa, wb, [{k for k, x in enumerate(a) if abs(x - y) <= t} for y in pos])
            for pos in _law_positions(a, b, t, kind)
        )
        return 1 - max(flows)

    lo, hi = 0, len(breaks) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if unrouted(breaks[mid]) <= breaks[mid]:
            hi = mid
        else:
            lo = mid + 1
    return breaks[0] if lo == 0 else min(breaks[lo], unrouted(breaks[lo - 1]))


def pairwise_bound_oracle(X, Y):
    """The pairwise (level 2) box bound of X and Y in Fractions, for id,
    T, B and TB: the largest, over two generators u and v of either side
    whose partners' family is not lip1, of the least eps at which some
    link set A of u and A' of v carry max-flow mass F(A & A') >= 1 - eps
    at t = eps / 2, or 0 with fewer than two such generators; meant for
    at most 3 points a side.

    A link set is the point pairs that one map of the whole vertex
    arrangement (_law_positions, on point values) and one partner link
    within t, and F comes from Hall's theorem. Acceptance grows with eps
    and the sets change only at t = |s - s'| or |s - s'| / 2 for s, s'
    among 0, +-a_k, +-b_j and a_i - b_j + b_l over u, v and their
    partners, so the value is found by bisection as in law_bound_oracle.
    """
    wx = [Fraction(float(m)) for m in X.masses]
    wy = [Fraction(float(m)) for m in Y.masses]
    gens = [
        (side, [Fraction(float(x)) for x in row], other)
        for side, (own, other) in enumerate(((X, Y), (Y, X)))
        if other.family.kind != "lip1"
        for row in own.generators
    ]

    def link_sets(gen, t):
        side, a, other = gen
        out = set()
        for row in other.generators:
            b = [Fraction(float(y)) for y in row]
            for pos in _law_positions(a, b, t, other.family.kind):
                linked = [(k, j) for k in range(len(a)) for j in range(len(b)) if abs(a[k] - pos[j]) <= t]
                out.add(frozenset(linked if side == 0 else [(j, k) for k, j in linked]))
        return out

    def unrouted(u, v, eps):
        most = Fraction(0)
        for A in link_sets(u, eps / 2):
            for B in link_sets(v, eps / 2):
                S = A & B
                most = max(most, _hall_flow(wx, wy, [{i for i, j in S if j == col} for col in range(len(wy))]))
        return 1 - most

    best = Fraction(0)
    for u, v in combinations(gens, 2):
        sums = {Fraction(0)}
        for _, a, other in (u, v):
            for row in other.generators:
                b = [Fraction(float(y)) for y in row]
                sums |= set(a) | {-x for x in a} | set(b) | {-y for y in b}
                sums |= {x - y + z for x in a for y in b for z in b}
        cuts = {abs(s - r) / d for s in sums for r in sums for d in (1, 2)}
        breaks = sorted({2 * e for e in cuts if 2 * e < 1} | {Fraction(1)})
        lo, hi = 0, len(breaks) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if unrouted(u, v, breaks[mid]) <= breaks[mid]:
                hi = mid
            else:
                lo = mid + 1
        best = max(best, breaks[0] if lo == 0 else min(breaks[lo], unrouted(u, v, breaks[lo - 1])))
    return best


def exact_box_oracle(X, Y):
    """The box distance of X and Y by exhaustion, for at most 8 point
    pairs: each nonempty support S scores max(1 - most coupling mass on
    S, 2 gap(S)), where the coupling mass is a maximum flow (Hall's
    theorem, in Fractions) and gap(S) the sup-norm orbit Hausdorff term
    of box_objective."""
    pairs = [(i, j) for i in range(X.n_points) for j in range(Y.n_points)]
    assert len(pairs) <= 8
    wx = [Fraction(float(m)) for m in X.masses]
    wy = [Fraction(float(m)) for m in Y.masses]
    best = math.inf
    for size in range(1, len(pairs) + 1):
        for S in combinations(pairs, size):
            linked = [{i for i, j in S if j == col} for col in range(Y.n_points)]
            missing = float(1 - _hall_flow(wx, wy, linked))
            rows = np.array([i for i, _ in S])
            cols = np.array([j for _, j in S])
            fx, gy = X.generators[:, rows], Y.generators[:, cols]
            gap = max(
                max(min(gk.dist_to_orbit_sup(f, g, Y.family).value for g in gy) for f in fx),
                max(min(gk.dist_to_orbit_sup(g, f, X.family).value for f in fx) for g in gy),
            )
            best = min(best, max(missing, 2.0 * gap))
    return best
