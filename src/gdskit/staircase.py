"""Truncated staircase and pyramid metrics between data sets.

Level N of the staircase associated with X collects the measurements of
X by at most N generators clipped into [-N, N]. The staircase metric is
the series over levels of Hausdorff box distances with weights
1 / (2 N 2^N). The pyramid of X realizes the same level-N measurement
sets as X itself, so this series is also the pyramid metric estimate.

Truncation at level L leaves a tail, which _tail bounds from above.
When both families contain translations, every per-level Hausdorff term
is at most 1 (a singleton support with a translated witness keeps the
box objective below 1); other families cap it by the largest observed
feature magnitude.

Sampled (non-exhaustive) levels bias the member sets in no controlled
direction, so their Hausdorff bracket keeps lower = 0 and is flagged an
estimate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import FiniteGDS
from .distances import Bracket, SearchConfig, box_bracket
from .errors import InvalidSpec, LevelMismatch
from .stats import hausdorff
from .transforms import enumerate_measurements


def series_weight(N: int) -> float:
    """Level weight 1 / (2 N 2^N). Scaling by 2^-N is exact above the
    subnormal range and, unlike 2.0**N, never overflows."""
    return math.ldexp(1.0 / (2.0 * N), -N)


def series_tail(L: int) -> float:
    """sum_{N > L} 1 / (2 N 2^N), never below its exact value (_tail)."""
    return _tail(L, lambda N: 1.0)


def _tail(L: int, cap) -> float:
    """sum_{N > L} cap(N) / (2 N 2^N), never below its exact value, for
    caps with cap(N) >= 0 and cap(N) / N not growing with N.

    math.fsum adds the terms t_N from N = L + 1 on; the first at most
    2^-61 of t_{L+1} is doubled instead, as the terms from it on sum to
    at most that. A term carries at most two roundings to nearest (cap,
    and cap / 2N; scaling by 2^-N is exact) and the sum one more, so it
    is at least 1 - 3 * 2^-53 of the exact tail, and scaling by
    1 + 2^-50 lifts it above. No closed form (log 2 - ...) / 2: a
    difference of nearly equal numbers, it can fall below the tail.
    """
    terms, N = [], L
    while True:
        N += 1
        t = math.ldexp(cap(N) / (2.0 * N), -N)
        if terms and t <= 2.0**-61 * terms[0]:
            return math.fsum(terms + [2.0 * t]) * (1.0 + 2.0**-50)
        terms.append(t)


@dataclass(frozen=True, eq=False)
class StaircaseLevel:
    """Level N members (measurements with R = N) of a staircase."""

    N: int
    members: tuple[FiniteGDS, ...]
    exhaustive: bool


@dataclass(frozen=True)
class SeriesBracket:
    """Partial series value with a certified tail bound.

    The reported interval is [lower_partial, partial + tail_bound].
    """

    partial: float
    tail_bound: float
    levels_used: int
    lower_partial: float = 0.0
    estimate: bool = False

    @property
    def interval(self) -> tuple[float, float]:
        return (self.lower_partial, self.partial + self.tail_bound)

    def to_json(self) -> dict:
        return {
            "partial": self.partial,
            "tail_bound": self.tail_bound,
            "levels": self.levels_used,
            "interval": list(self.interval),
            "estimate": self.estimate,
        }


def staircase_level(X: FiniteGDS, N: int, config: SearchConfig | None = None) -> StaircaseLevel:
    """Measurements of X by at most N generators clipped into [-N, N].

    Closure is a no-op at finite scale: there are finitely many
    generator subsets. At most config.level_budget of them are taken,
    sampled with seed config.seed + N when there are more.
    """
    if N < 1:
        raise InvalidSpec("level index must be at least 1")
    cfg = config or SearchConfig()
    sample = enumerate_measurements(X, N, float(N), cfg.level_budget, cfg.seed + N)
    return StaircaseLevel(N, sample.members, sample.exhaustive)


def level_hausdorff(A: StaircaseLevel, B: StaircaseLevel, config: SearchConfig | None = None) -> Bracket:
    """Hausdorff bracket between two same-index levels.

    Pairwise box brackets give an upper Hausdorff bound from the
    pairwise uppers and a lower bound from the pairwise lowers; both
    directions are certified only when both levels are exhaustive.
    Otherwise lower = 0 and the result is flagged an estimate.
    """
    if A.N != B.N:
        raise LevelMismatch(f"levels {A.N} and {B.N} cannot be compared")
    if not A.members or not B.members:
        raise LevelMismatch("levels must be nonempty")
    cfg = config or SearchConfig()
    lo = np.zeros((len(A.members), len(B.members)))
    up = np.zeros_like(lo)
    for i, a in enumerate(A.members):
        for j, b in enumerate(B.members):
            br = box_bracket(a, b, cfg)
            lo[i, j] = br.lower
            up[i, j] = br.upper
    rows, cols = range(len(A.members)), range(len(B.members))
    exhaustive = A.exhaustive and B.exhaustive
    upper = hausdorff(rows, cols, up)
    lower = hausdorff(rows, cols, lo) if exhaustive else 0.0
    return Bracket(
        lower=min(lower, upper),
        upper=upper,
        lower_witness="pairwise box lower bounds" if exhaustive else "sampled level: no lower certificate",
        upper_witness=f"{len(A.members)}x{len(B.members)} pairwise box uppers",
        estimate=not exhaustive,
    )


def _per_level_cap(X: FiniteGDS, Y: FiniteGDS, N: int) -> float:
    """Upper bound on the level-N Hausdorff term used for the tail."""
    if X.family.contains_translations and Y.family.contains_translations:
        return 1.0
    mx = min(float(N), float(np.max(np.abs(X.generators))))
    my = min(float(N), float(np.max(np.abs(Y.generators))))
    if X.family.contains_clips and Y.family.contains_clips:
        return 2.0 * max(mx, my)
    return 2.0 * (mx + my)


def staircase_distance(
    X: FiniteGDS, Y: FiniteGDS, L: int, config: SearchConfig | None = None
) -> SeriesBracket:
    """Truncated staircase series between the data sets.

    partial sums the per-level Hausdorff uppers with level weights;
    lower_partial sums the certified level lowers. The tail beyond L is
    bounded by _tail.
    """
    if L < 1:
        raise InvalidSpec("truncation level must be at least 1")
    cfg = config or SearchConfig()
    partial = 0.0
    lower = 0.0
    estimate = False
    for N in range(1, L + 1):
        a = staircase_level(X, N, cfg)
        b = staircase_level(Y, N, cfg)
        br = level_hausdorff(a, b, cfg)
        partial += series_weight(N) * br.upper
        lower += series_weight(N) * br.lower
        estimate = estimate or br.estimate
    return SeriesBracket(
        partial=partial,
        tail_bound=_tail(L, lambda N: _per_level_cap(X, Y, N)),
        levels_used=L,
        lower_partial=lower,
        estimate=estimate,
    )

