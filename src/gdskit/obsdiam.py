"""Observable diameter of finite geometric data sets.

The kappa-observable diameter is the largest (1 - kappa)-partial
diameter of a pushforward of the measure through a feature. Composing
generators with declared family members never increases a partial
diameter (the maps are 1-Lipschitz) and the identity is always a
member, so the supremum over the whole feature family is attained on
the generator list; family composition is deliberately skipped.

`observable_diameter_hss` evaluates the same quantity directly on a
distance matrix whose rows serve as distance-to-point features, without
materializing the data set. Metric validation is cubic in the point
count; the per-row window scans cost O(n log n) after sorting. Both run
in O(n^2) memory.

Row evaluations are independent and may run in parallel; the final max
is order-independent, so results are deterministic under any schedule.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kernels import pd_rows
from .core import METRIC_TOL, FiniteGDS, check_metric
from .errors import InvalidKappa, MonotonicityViolation, ValidationError


def _check_kappa(kappa: float) -> float:
    if not (0.0 < kappa < 1.0):
        raise InvalidKappa(f"kappa must be in (0, 1), got {kappa!r}")
    return float(kappa)


@dataclass(frozen=True)
class OdProfile:
    """Observable diameter sampled on a kappa grid.

    Entries are (kappa, od) pairs with strictly increasing kappas and
    nonincreasing od values.
    """

    entries: tuple[tuple[float, float], ...]

    @property
    def kappas(self) -> list[float]:
        return [k for k, _ in self.entries]

    @property
    def values(self) -> list[float]:
        return [v for _, v in self.entries]


def observable_diameter(X: FiniteGDS, kappa: float) -> float:
    """Largest (1 - kappa)-partial diameter over the generator features."""
    return _od_rows(X.generators, X.masses, kappa)


def _od_rows(rows, masses, kappa: float) -> float:
    """Largest (1 - kappa)-partial diameter over the given feature rows."""
    return float(pd_rows(rows, masses, 1.0 - _check_kappa(kappa)).max())


def observable_diameter_hss(
    D, mu, kappa: float, tol: float = METRIC_TOL
) -> float:
    """Observable diameter of a metric-measure space via distance rows.

    Bit-identical to observable_diameter on the embedded data set (both
    paths run the same row kernel on the same matrix), but skips the
    embedding object entirely.
    """
    kappa = _check_kappa(kappa)
    D = check_metric(D, tol=tol)
    masses = mu.weights if hasattr(mu, "weights") else np.asarray(mu, dtype=float)
    if masses.shape != (D.shape[0],):
        raise ValidationError("weight count must match the matrix size")
    return _od_rows(D, masses, kappa)


def od_profile(X: FiniteGDS, kappas) -> OdProfile:
    """Evaluate observable_diameter on a strictly increasing kappa grid.

    The result is checked to be nonincreasing before returning; a
    violation would signal an internal bug and raises
    MonotonicityViolation.
    """
    kappas = [float(k) for k in kappas]
    if any(not (0.0 < k < 1.0) for k in kappas):
        raise InvalidKappa("grid values must lie in (0, 1)")
    if any(b <= a for a, b in zip(kappas, kappas[1:])):
        raise InvalidKappa("grid must be strictly increasing")
    values = [observable_diameter(X, k) for k in kappas]
    if any(b > a for a, b in zip(values, values[1:])):
        raise MonotonicityViolation("observable diameter increased along the grid")
    return OdProfile(tuple(zip(kappas, values)))
