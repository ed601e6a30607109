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
contains an evaluation point; a scan anchored at those points plus
bisection on each boundary crossing extracts the set exactly.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    ConfidenceSet,
    MethodInfeasibleError,
    make_confidence_set,
    split_sample,
    venter_pilot,
)
from .numerics import RngStream, qchisq

__all__ = [
    "edelman_single_interval",
    "fisher_combination_statistic",
    "markov_ratio_statistic",
    "m3_confidence_set",
    "m3prime_confidence_set",
]

_LOG2 = math.log(2.0)


def edelman_single_interval(x: float, a: float, alpha: float) -> ConfidenceSet:
    """Mode interval from one observation ``x`` and one anchor ``a``.

    Returns [x - (2/alpha - 1)|x - a|, x + (2/alpha + 1)|x - a|]; the
    asymmetric +/-1 coefficients are part of the inequality.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie strictly in (0, 1), got {alpha}")
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


def _extract_level_set(stat, cutoff: float, anchors: np.ndarray,
                       grid_points: int = 4096) -> ConfidenceSet:
    """Exact sublevel set {theta : stat(theta) < cutoff} as closed intervals.

    ``anchors`` must include every point at which a component of the
    sublevel set could sit (here: the evaluation points and the pilot);
    both statistics are concave between consecutive anchors, so a component
    that contains no anchor cannot exist.
    """
    lo = float(anchors.min())
    hi = float(anchors.max())
    span = hi - lo
    margin = span if span > 0 else 1.0
    # widen until the statistic clears the cutoff at both ends; the
    # statistics diverge at infinity so this terminates
    for _ in range(200):
        edge = np.array([lo - margin, hi + margin])
        vals = stat(edge)
        if vals[0] > cutoff and vals[1] > cutoff:
            break
        margin *= 2.0
    else:
        raise RuntimeError("level-set scan failed to bracket the sublevel set")
    scan_lo, scan_hi = lo - margin, hi + margin
    grid = np.unique(np.concatenate([
        np.linspace(scan_lo, scan_hi, grid_points),
        anchors,
    ]))
    below = stat(grid) < cutoff
    # well inside the contracted 1e-9*range tolerance; ~40 halvings suffice
    tol = 1e-12 * max(span, 1e-300)
    intervals: list[tuple[float, float]] = []
    start: float | None = None
    for i in range(1, grid.size):
        if below[i] and not below[i - 1]:
            start = _bisect_boundary(stat, cutoff, grid[i - 1], grid[i], tol)
        elif below[i - 1] and not below[i]:
            end = _bisect_boundary(stat, cutoff, grid[i - 1], grid[i], tol)
            intervals.append((start if start is not None else grid[i - 1], end))
            start = None
    # both scan ends sit above the cutoff, so every entry has a matching exit
    return make_confidence_set(intervals)


def _split_pilot_points(data, split_stream, split_fraction, pilot_r):
    split = split_sample(data, split_stream, split_fraction)
    pilot = venter_pilot(split.s1, pilot_r)
    points = split.s2.values
    if np.any(points == pilot):
        raise MethodInfeasibleError(
            "an evaluation point coincides with the pilot estimate; "
            "the p-value ratios are undefined for non-continuous data"
        )
    return points, pilot


def m3_confidence_set(
    data,
    alpha: float,
    *,
    split_stream: RngStream = RngStream(0, 0),
    split_fraction: float = 0.5,
    pilot_r: int | None = None,
    grid_points: int = 4096,
) -> ConfidenceSet:
    """Combined p-value confidence set for the mode (method m3).

    Collects every theta whose combination statistic stays below the
    chi-square quantile with 2|S2| degrees of freedom.  The set always
    contains the pilot (all p-values equal 1 there) and is bounded, but its
    width does not shrink with the sample size: the statistic's law of
    large numbers limit pins a fixed limiting set.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie strictly in (0, 1), got {alpha}")
    points, pilot = _split_pilot_points(data, split_stream, split_fraction, pilot_r)
    cutoff = qchisq(1.0 - alpha, 2 * points.size)

    def stat(thetas):
        return fisher_combination_statistic(points, pilot, thetas)

    anchors = np.append(points, pilot)
    return _extract_level_set(stat, cutoff, anchors, grid_points)


def m3prime_confidence_set(
    data,
    alpha: float,
    rho: float = 2.0,
    *,
    split_stream: RngStream = RngStream(0, 0),
    split_fraction: float = 0.5,
    pilot_r: int | None = None,
    grid_points: int = 4096,
) -> ConfidenceSet:
    """Dependence-robust confidence set for the mode (method m3p).

    Valid whenever the observations are identically distributed, without
    any independence assumption: Markov's inequality applied to the mean of
    the dampened ratios needs only the single-observation concentration
    bound, which requires rho > 1 for integrability.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie strictly in (0, 1), got {alpha}")
    if not rho > 1.0:
        raise ValueError(f"rho must exceed 1, got {rho}")
    points, pilot = _split_pilot_points(data, split_stream, split_fraction, pilot_r)
    cutoff = 1.0 / alpha

    def stat(thetas):
        return markov_ratio_statistic(points, pilot, rho, thetas)

    anchors = np.append(points, pilot)
    return _extract_level_set(stat, cutoff, anchors, grid_points)
