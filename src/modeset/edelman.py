"""Confidence sets built from single-observation mode concentration
(methods m3 and m3p).

A single draw X from a unimodal law concentrates around the mode relative
to any fixed anchor point a: the classical single-observation interval
[x - (2/alpha - 1)|x - a|, x + (2/alpha + 1)|x - a|] covers the mode with
probability 1 - alpha.  Inverting that inequality turns each evaluation
point into a p-value

    p_i(theta) = 2 / (1 + |(X_i - theta) / (X_i - pilot)|),

where the pilot anchor comes from the other half of the sample.  Method m3
combines the p-values with the chi-square combination statistic
-2 * sum(log p_i); method m3p replaces the combination by a Markov bound on
the mean of the dampened ratios |(X_i - theta)/(X_i - pilot)|**(1/rho),
which stays valid under arbitrary dependence between observations.

Both statistics are concave between consecutive evaluation points and
diverge at infinity, so every connected component of a sublevel set
contains an evaluation point, which a scan anchored at those points finds.
A gap between two anchors that both lie in the set is found only if a scan
point falls in it; a missed gap enlarges the set, so coverage holds.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from .core import (
    ConfidenceSet,
    MethodInfeasibleError,
    check_alpha,
    make_confidence_set,
    run_edges,
)
from .numerics import qchisq

__all__ = [
    "edelman_single_interval",
    "fisher_combination_statistic",
    "markov_ratio_statistic",
]

_LOG2 = math.log(2.0)
# uniform scan points between the bracketing ends, before the anchors join
_SCAN_SIZE = 4096


def edelman_single_interval(x: float, a: float, alpha: float) -> ConfidenceSet:
    """Mode interval from one observation ``x`` and one anchor ``a``.

    Returns [x - (2/alpha - 1)|x - a|, x + (2/alpha + 1)|x - a|]; the
    asymmetric +/-1 coefficients are part of the inequality.
    """
    check_alpha(alpha)
    gap = abs(x - a)
    lo = x - (2.0 / alpha - 1.0) * gap
    hi = x + (2.0 / alpha + 1.0) * gap
    return make_confidence_set([(lo, hi)])


def _ratio_sums(points: np.ndarray, pilot: float, thetas, f) -> np.ndarray:
    """sum_i f(|X_i - theta| / |X_i - pilot|) for every theta."""
    thetas = np.atleast_1d(np.asarray(thetas, dtype=np.float64))
    denom = np.abs(points - pilot)
    out = np.empty(thetas.size, dtype=np.float64)
    # chunked so huge scan grids do not materialize a giant outer product
    chunk = max(1, 4_000_000 // max(points.size, 1))
    for i in range(0, thetas.size, chunk):
        block = thetas[i:i + chunk, None]
        ratio = np.abs(points[None, :] - block) / denom[None, :]
        out[i:i + chunk] = f(ratio).sum(axis=1)
    return out


def fisher_combination_statistic(points: np.ndarray, pilot: float, thetas) -> np.ndarray:
    """Combined p-value statistic -2 * sum_i log p_i(theta), vectorized in theta.

    ``points`` are the evaluation-half observations; requires every
    |X_i - pilot| > 0.
    """
    sums = _ratio_sums(points, pilot, thetas, np.log1p)
    return 2.0 * sums - 2.0 * points.size * _LOG2


def markov_ratio_statistic(
    points: np.ndarray, pilot: float, rho: float, thetas
) -> np.ndarray:
    """Dampened-ratio mean statistic of the dependence-robust set (m3p)."""
    prefactor = (rho - 1.0) / (rho + 1.0) / points.size
    return prefactor * _ratio_sums(points, pilot, thetas, lambda r: np.power(r, 1.0 / rho))


def _bisect_boundary(stat, cutoff: float, a: float, b: float, tol: float) -> float:
    """Boundary of {stat < cutoff} inside [a, b] where the sides differ."""
    fa = float(stat(a)[0]) < cutoff
    for _ in range(60):
        if b - a <= tol:
            break
        mid = 0.5 * (a + b)
        if (float(stat(mid)[0]) < cutoff) == fa:
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)


def _extract_level_set(stat, cutoff: float, anchors: np.ndarray) -> ConfidenceSet:
    """Sublevel set {theta : stat(theta) < cutoff} as closed intervals.

    ``anchors`` must include every point at which a component of the
    sublevel set could sit (here: the evaluation points and the pilot);
    both statistics are concave between consecutive anchors, so a component
    that contains no anchor cannot exist.  A gap that no scan point falls
    in is missed, which enlarges the set and keeps its coverage.  When 200
    doublings of the span do not bracket the set (m3p at a large rho, whose
    statistic grows too slowly), the whole line is returned: it contains
    the set, so coverage holds.
    """
    lo = float(anchors.min())
    hi = float(anchors.max())
    span = hi - lo
    margin = span if span > 0 else 1.0
    # widen until the statistic clears the cutoff at both ends
    for _ in range(200):
        edge = np.array([lo - margin, hi + margin])
        vals = stat(edge)
        if vals[0] > cutoff and vals[1] > cutoff:
            break
        margin *= 2.0
    else:
        return ConfidenceSet(((-math.inf, math.inf),))
    scan_lo, scan_hi = lo - margin, hi + margin
    grid = np.unique(np.concatenate([
        np.linspace(scan_lo, scan_hi, _SCAN_SIZE),
        anchors,
    ]))
    below = stat(grid) < cutoff
    # well inside the contracted 1e-9*range tolerance; ~40 halvings suffice
    tol = 1e-12 * max(span, 1e-300)
    # both scan ends sit above the cutoff, so every run edge e >= 1 brackets
    # a boundary in [grid[e - 1], grid[e]], and the edges alternate entry, exit
    bounds = [_bisect_boundary(stat, cutoff, grid[e - 1], grid[e], tol)
              for e in run_edges(below)]
    return make_confidence_set(zip(bounds[::2], bounds[1::2]))


def _concentration_set(points: np.ndarray, pilot: float, alpha: float,
                       rho: float | None) -> ConfidenceSet:
    """The m3 set for ``rho=None``, else the m3p set at that ``rho``.

    ``points`` is the sorted evaluation half and ``pilot`` the mode
    estimate from the other half.  m3 collects every theta whose
    combination statistic stays below the chi-square quantile with 2|S2|
    degrees of freedom; the set always contains the pilot (all p-values
    equal 1 there) and is bounded, but its width does not shrink with the
    sample size: the statistic's law of large numbers limit pins a fixed
    limiting set.  m3p is valid whenever the observations are identically
    distributed, without any independence assumption: Markov's inequality
    applied to the mean of the dampened ratios needs only the
    single-observation concentration bound, which requires rho > 1 for
    integrability.  A large rho can give the whole line (see
    :func:`_extract_level_set`).
    """
    if np.any(points == pilot):
        raise MethodInfeasibleError(
            "an evaluation point coincides with the pilot estimate; "
            "the p-value ratios are undefined for non-continuous data"
        )
    if rho is None:
        cutoff = qchisq(1.0 - alpha, 2 * points.size)
        stat = partial(fisher_combination_statistic, points, pilot)
    else:
        cutoff = 1.0 / alpha
        stat = partial(markov_ratio_statistic, points, pilot, rho)
    return _extract_level_set(stat, cutoff, np.append(points, pilot))
