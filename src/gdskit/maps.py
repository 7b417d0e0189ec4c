"""The 1-Lipschitz maps that family orbits are made of.

ClipMap is a shift-then-clip map; translations, symmetric clips and
constants are its special cases, and compose_clips closes it under
composition. PLMap is a piecewise linear map, the witness of the lip1
orbit searches. families.py searches the orbits of these maps, and
`families.ClipMap` and `families.PLMap` still name them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidRange, ValidationError


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

    The lip1 orbit searches return one as their witness (_mcshane).
    The slope bound allows rounding at 1e-12 of the largest knot or
    value.
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
        slack = 1e-12 * max(np.abs(k).max(), np.abs(v).max())
        if np.any(np.abs(np.diff(v)) > gaps + slack):
            raise ValidationError("knot values violate the 1-Lipschitz bound")
        object.__setattr__(self, "knots", k)
        object.__setattr__(self, "values", v)

    def apply(self, values) -> np.ndarray:
        return np.interp(np.asarray(values, dtype=float), self.knots, self.values)

    def __call__(self, values) -> np.ndarray:
        return self.apply(values)
