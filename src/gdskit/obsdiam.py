"""Observable diameter of finite geometric data sets.

The kappa-observable diameter is the largest (1 - kappa)-partial
diameter of a pushforward of the measure through a feature. Composing
generators with declared family members never increases a partial
diameter (the maps are 1-Lipschitz) and the identity is always a
member, so the supremum over the whole feature family is attained on
the generator list; family composition is deliberately skipped.

`observable_diameter_hss` is the observable diameter of the
Hanika-Schneider-Stumme embedding of a metric-measure space: the data
set `core.embed_mm_space` builds, whose generators are the distance
rows. Validating the metric is cubic in the point count; the per-row
window scans cost O(n log n) after sorting. Both run in O(n^2) memory.

`OdSteps` holds the whole function kappa -> od as a step function, for
callers that need od at many kappas or its jumps (the certified lower
bound of `distances`); `FiniteGDS.od_steps` builds it once per data set.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kernels import MASS_GUARD, block_slices, pd_rows, sorted_unique
from .core import FiniteGDS, ProbVector, embed_mm_space, pushforward
from .errors import InvalidKappa, MonotonicityViolation


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
    def values(self) -> list[float]:
        return [v for _, v in self.entries]


@dataclass(frozen=True, eq=False)
class OdSteps:
    """The observable diameter of a data set as a step function of kappa.

    od(kappa) is the largest, over the generators, of the least width of
    a window of pushforward atoms with mass at least 1 - kappa. Window
    [i..j] of a pushforward with atom values v and mass prefix sums p
    has mass p[j + 1] - p[i] and width v[j] - v[i]. So od(kappa) =
    values[k] for the first k with masses[k] >= (1 - kappa) - MASS_GUARD,
    and it jumps only at kappa = 1 - masses[k]. Both arrays increase
    strictly; the last value is inf where some generator's total mass
    rounds below another's.

    Window masses that are equal in exact arithmetic can differ in their
    last bits, and MASS_GUARD gives all of them a jump's value: near[k]
    is the largest window mass m with masses[k] <= m < masses[k + 1]
    and m - masses[k] <= 2 MASS_GUARD.

    At every kappa this equals observable_diameter, which compares
    p[i] + ((1 - kappa) - MASS_GUARD) with p[j + 1] over points instead
    of atoms; the two tests differ only for a window mass within
    rounding of (1 - kappa) - MASS_GUARD.
    """

    masses: np.ndarray
    values: np.ndarray
    near: np.ndarray

    @classmethod
    def build(cls, X: FiniteGDS) -> "OdSteps":
        """One generator at a time: its least window width by window
        mass, then the upper envelope with the generators before it. A
        second pass over the window masses finds `near`. The scratch
        memory is one block of windows plus the steps.

        The second pass is skipped when every point mass is a multiple
        of 2^-38: then every window mass is exact, so two distinct ones
        lie more than 2 MASS_GUARD apart and near is masses itself.
        """
        masses, values = _row_steps(*_atoms(X.generators[0], X.mu))
        for row in X.generators[1:]:
            m, v = _row_steps(*_atoms(row, X.mu))
            union = sorted_unique(np.concatenate([masses, m]))
            top = np.maximum(_at_mass(masses, values, union), _at_mass(m, v, union))
            masses, values = _strict_steps(union, top)
        near = masses.copy()
        scaled = np.ldexp(X.masses, 38)
        if np.array_equal(scaled, np.round(scaled)):
            return cls(masses, values, near)
        for row in X.generators:
            _, prefix = _atoms(row, X.mu)
            for left, window in _window_blocks(prefix.size - 1):
                window_masses = (prefix[None, 1:] - prefix[left])[window]
                k = np.searchsorted(masses, window_masses, side="right") - 1
                hit = (k >= 0) & (window_masses - masses[k] <= 2.0 * MASS_GUARD)
                np.maximum.at(near, k[hit], window_masses[hit])
        return cls(masses, values, near)

    def __call__(self, kappa) -> np.ndarray:
        """od at each kappa in [0, inf): the limit kappa -> 0+ at 0, and
        0 from kappa = 1 on."""
        kappa = np.asarray(kappa, dtype=float)
        od = _at_mass(self.masses, self.values, (1.0 - kappa) - MASS_GUARD)
        return np.where(kappa >= 1.0, 0.0, od)


def _at_mass(masses, values, t):
    """The value of the first step with mass >= t, and inf past the last."""
    return np.append(values, np.inf)[np.searchsorted(masses, t)]


def _atoms(row, mu: ProbVector):
    """(values, mass prefix sums) of one generator's pushforward."""
    pf = pushforward(row, mu)
    return pf.values, np.concatenate([[0.0], np.cumsum(pf.masses)])


def _window_blocks(n: int):
    """(left ends as a column, mask of the windows [left..j]) for blocks
    of about BLOCK_ENTRIES windows of n atoms."""
    for rows in block_slices(n, n):
        left = np.arange(n)[rows, None]
        yield left, np.arange(n) >= left


def _row_steps(vals, prefix):
    """(masses, widths) of one generator: the least width of a window of
    mass >= t is widths[k] for the first masses[k] >= t. Each block of
    windows is folded into the steps found so far."""
    masses, widths = np.empty(0), np.empty(0)
    for left, window in _window_blocks(vals.size):
        masses = np.concatenate([masses, (prefix[None, 1:] - prefix[left])[window]])
        widths = np.concatenate([widths, (vals[None, :] - vals[left])[window]])
        order = np.argsort(masses)
        masses = masses[order]
        # least width over the windows of at least each mass
        widths = np.minimum.accumulate(widths[order][::-1])[::-1]
        first = np.empty(masses.size, dtype=bool)
        first[:1] = True
        np.not_equal(masses[1:], masses[:-1], out=first[1:])
        masses, widths = _strict_steps(masses[first], widths[first])
    return masses, widths


def _strict_steps(masses, values):
    """Drop each step whose value equals the next one's: the next step
    then answers for its masses too."""
    keep = np.empty(values.size, dtype=bool)
    keep[-1:] = True
    np.less(values[:-1], values[1:], out=keep[:-1])
    return masses[keep], values[keep]


def observable_diameter(X: FiniteGDS, kappa: float) -> float:
    """Largest (1 - kappa)-partial diameter over the generator features."""
    return float(pd_rows(X.generators, X.masses, 1.0 - _check_kappa(kappa)).max())


def observable_diameter_hss(D, mu, kappa: float) -> float:
    """Observable diameter of a metric-measure space (D, mu): that of its
    Hanika-Schneider-Stumme embedding, `embed_mm_space(D, mu)`, whose
    generators are the rows of D.

    D must be a metric within METRIC_TOL (else NotAMetric) and mu a
    probability vector, given as a ProbVector or a weight sequence
    (else a ValidationError).
    """
    kappa = _check_kappa(kappa)
    return observable_diameter(embed_mm_space(D, mu), kappa)


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
