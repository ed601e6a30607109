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
valid under any dependence at a fixed anchor, so with this pilot only
when the pilot half is independent of the evaluation half.

Both statistics have the form scale * sum_i f(|X_i - theta| / d_i) + shift,
with d_i = |X_i - pilot| and f increasing and concave on [0, inf):
log1p for m3 and r**(1/rho) for m3p.  Three facts certify the sublevel set
{theta : statistic < cutoff} without a scan grid:

- every term grows with |X_i - theta|, so over a range [a, b] the sum is at
  least sum_i f(dist(X_i, [a, b]) / d_i) and at most
  sum_i f(max(|X_i - a|, |X_i - b|) / d_i);
- every term is concave in theta on each side of X_i, so the statistic is
  concave between consecutive anchors (the evaluation points and the
  pilot), and the part of such a gap outside the set is one interval;
- outside the anchor hull every term grows away from the hull, so each side
  holds exactly one boundary.

Ranges of anchors are decided by the bounds, the gaps they leave open by
concavity, and each boundary by bisection of the statistic itself, so a
narrow excursion above the cutoff between anchors is found, not stepped
over.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from .core import (
    ConfidenceSet,
    MethodInfeasibleError,
    make_confidence_set,
)
from .numerics import qchisq

__all__ = ["concentration_statistic"]

_LOG2 = math.log(2.0)
_EPS = float(np.finfo(np.float64).eps)


def _terms(size: int, rho: float | None):
    """``(f, scale, shift)`` of the m3 statistic (``rho`` None) or the m3p
    one at ``rho``: statistic = scale * sum_i f(|X_i - theta| / |X_i - pilot|)
    + shift over ``size`` evaluation points."""
    if rho is None:
        return np.log1p, 2.0, -2.0 * size * _LOG2
    return (lambda r: np.power(r, 1.0 / rho)), (rho - 1.0) / (rho + 1.0) / size, 0.0


def concentration_statistic(points: np.ndarray, pilot, thetas,
                            rho: float | None = None) -> np.ndarray:
    """The m3 statistic -2 * sum_i log p_i(theta) (``rho`` None) or the m3p
    dampened-ratio mean at ``rho``, for every theta.

    ``points`` are the evaluation-half observations, ``(m,)`` with a scalar
    ``pilot`` or ``(k, m)`` with k pilots; the result has one value per
    theta, in one row per sample for a matrix.  Requires every
    |X_i - pilot| > 0.
    """
    f, scale, shift = _terms(points.shape[-1], rho)
    thetas = np.atleast_1d(np.asarray(thetas, dtype=np.float64))
    denom = np.abs(points - np.asarray(pilot)[..., None])[..., None, :]
    points = points[..., None, :]
    out = np.empty(points.shape[:-2] + thetas.shape, dtype=np.float64)
    # chunked so a long theta batch does not materialize a giant outer product
    chunk = max(1, 4_000_000 // max(points.size, 1))
    for i in range(0, thetas.size, chunk):
        ratio = np.abs(points - thetas[i:i + chunk, None]) / denom
        out[..., i:i + chunk] = f(ratio).sum(axis=-1)
    return scale * out + shift


def _stat_bounds(points: np.ndarray, pilot: float, rho: float | None,
                 a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper bounds of the m3 (``rho`` None) or m3p statistic
    over each theta range [a_k, b_k].

    Each term grows with |X_i - theta|, so on a range it is least at the
    distance from X_i to the range and largest at the farther end.  The
    bounds are widened by a margin that holds the rounding of these sums
    and of the statistic's own evaluation: a float sum of n nonnegative
    terms errs by less than n ulps of its size.
    """
    f, scale, shift = _terms(points.size, rho)
    denom = np.abs(points - pilot)
    low = np.empty(a.size, dtype=np.float64)
    up = np.empty(a.size, dtype=np.float64)
    # a quarter of concentration_statistic's chunk: each block holds about
    # six temporaries
    chunk = max(1, 1_000_000 // points.size)
    for i in range(0, a.size, chunk):
        to_a = points - a[i:i + chunk, None]
        to_b = points - b[i:i + chunk, None]
        near = np.maximum(np.maximum(-to_a, to_b), 0.0)
        far = np.maximum(np.abs(to_a), np.abs(to_b))
        low[i:i + chunk] = f(near / denom).sum(axis=1)
        up[i:i + chunk] = f(far / denom).sum(axis=1)
    margin = 2.0 * (points.size + 8) * _EPS * (scale * up + abs(shift))
    return scale * low + shift - margin, scale * up + shift + margin


def _gap_peaks(stat, bounds, cutoff: float, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """A theta in each gap [a_k, b_k] where ``stat`` reaches ``cutoff``,
    or NaN where the whole gap lies below it.

    Both ends of every gap lie below the cutoff and the statistic is
    concave on each, so a ternary search closes in on its maximum.  A gap
    is settled by a probe at or above the cutoff, or by an upper bound
    below it over the bracket that holds the maximum; comparing probes
    that differ by rounding only can drop a piece of the bracket whose
    values exceed the kept ones by that rounding, which the bound's margin
    covers.  A gap whose maximum sits within rounding of the cutoff
    settles neither way and is kept whole, which keeps the coverage.
    """
    peak = np.full(a.size, np.nan)
    left, right = a.copy(), b.copy()
    todo = np.arange(a.size)
    for _ in range(100):
        if todo.size == 0:
            break
        lo, hi = left[todo], right[todo]
        third = (hi - lo) / 3.0
        probe = np.concatenate([lo + third, hi - third])
        vals = stat(probe)
        k = todo.size
        hit = np.where(vals[:k] >= cutoff, probe[:k],
                       np.where(vals[k:] >= cutoff, probe[k:], np.nan))
        peak[todo] = hit
        rising = vals[:k] < vals[k:]
        left[todo] = np.where(rising, probe[:k], lo)
        right[todo] = np.where(rising, hi, probe[k:])
        below = bounds(left[todo], right[todo])[1] < cutoff
        todo = todo[np.isnan(hit) & ~below]
    return peak


def _bisect(stat, cutoff: float, lo: np.ndarray, hi: np.ndarray,
            in_lo: np.ndarray, tol: float) -> np.ndarray:
    """The boundary of {stat < cutoff} inside each bracket [lo_k, hi_k],
    whose ends lie on opposite sides; ``in_lo`` marks the brackets whose
    lower end lies inside."""
    lo, hi = lo.copy(), hi.copy()
    while True:
        mid = 0.5 * (lo + hi)
        todo = np.flatnonzero((hi - lo > tol) & (lo < mid) & (mid < hi))
        if todo.size == 0:
            return mid
        up = (stat(mid[todo]) < cutoff) == in_lo[todo]
        lo[todo[up]] = mid[todo[up]]
        hi[todo[~up]] = mid[todo[~up]]


def _extract_level_set(stat, bounds, cutoff: float, anchors: np.ndarray) -> ConfidenceSet:
    """Sublevel set {theta : stat(theta) < cutoff} as closed intervals.

    ``stat`` evaluates the statistic at thetas; ``bounds(a, b)`` gives a
    lower and an upper bound of its values over each range [a_k, b_k],
    with a margin for the rounding of ``stat``.  The statistic must be
    concave between consecutive ``anchors`` and monotone outside their
    hull (see the module docstring).

    Ranges of the sorted anchors are halved level by level, one batch of
    bounds per level: a range is out when its lower bound reaches the
    cutoff, in when its upper bound stays below it, and split otherwise.
    A single gap left open is out when both ends are out, holds one
    boundary when one end is, and else loses at most one interval around
    its maximum (:func:`_gap_peaks`).  Each hull side holds one boundary,
    in a bracket doubled until the statistic clears the cutoff.  Every
    boundary is bisected on ``stat`` to 1e-12 of the anchor range.  When
    200 doublings do not bracket the set (m3p at a large rho, whose
    statistic grows too slowly), or a bracket end or the statistic there
    stops being finite, the whole line is returned: it contains the set,
    so coverage holds.
    """
    anchors = np.unique(anchors)
    lo, hi = float(anchors[0]), float(anchors[-1])
    span = hi - lo
    margin = span if span > 0 else 1.0
    # widen until the statistic clears the cutoff at both ends
    bracketed = False
    for _ in range(200):
        vals = stat(np.array([lo - margin, hi + margin]))
        if not np.all(np.isfinite(vals)):
            break
        if vals.min() > cutoff:
            bracketed = True
            break
        margin *= 2.0
    if not bracketed:
        return ConfidenceSet(((-math.inf, math.inf),))

    # the two hull sides join the open gaps as gaps whose outer end is out
    starts, stops, gap_lo, gap_hi = [], [], [[lo - margin], [hi]], [[lo], [hi + margin]]
    first, last = np.array([0]), np.array([anchors.size - 1])
    while first.size:
        low, up = bounds(anchors[first], anchors[last])
        inside = up < cutoff
        starts.append(anchors[first[inside]])
        stops.append(anchors[last[inside]])
        undecided = ~inside & (low < cutoff)
        one_gap = undecided & (last - first <= 1)
        gap_lo.append(anchors[first[one_gap]])
        gap_hi.append(anchors[last[one_gap]])
        first, last = first[undecided & ~one_gap], last[undecided & ~one_gap]
        mid = (first + last) // 2
        first, last = np.concatenate([first, mid]), np.concatenate([mid, last])

    a, b = np.concatenate(gap_lo), np.concatenate(gap_hi)
    in_a = stat(a) < cutoff
    in_b = stat(b) < cutoff
    both = in_a & in_b
    peak = _gap_peaks(stat, bounds, cutoff, a[both], b[both])
    split = ~np.isnan(peak)
    starts.append(a[both][~split])
    stops.append(b[both][~split])
    # every boundary sits in a bracket [b_lo, b_hi]; in_lo marks an inside b_lo
    one = in_a != in_b
    b_lo = np.concatenate([a[one], a[both][split], peak[split]])
    b_hi = np.concatenate([b[one], peak[split], b[both][split]])
    in_lo = np.concatenate([in_a[one], np.ones(split.sum(), bool), np.zeros(split.sum(), bool)])
    cut = _bisect(stat, cutoff, b_lo, b_hi, in_lo, 1e-12 * max(span, 1e-300))
    starts.append(np.where(in_lo, b_lo, cut))
    stops.append(np.where(in_lo, cut, b_hi))
    return make_confidence_set(np.column_stack((np.concatenate(starts), np.concatenate(stops))))


def _cutoff(points: np.ndarray, pilot, alpha: float, rho: float | None) -> float:
    """Cutoff of the m3 (``rho`` None) or m3p statistic over the points on
    the last axis; raises when one coincides with its row's ``pilot``."""
    if np.any(points == pilot):
        raise MethodInfeasibleError(
            "an evaluation point coincides with the pilot estimate; "
            "the p-value ratios are undefined for non-continuous data"
        )
    return qchisq(1.0 - alpha, 2 * points.shape[-1]) if rho is None else 1.0 / alpha


def _concentration_set(points: np.ndarray, pilot: float, alpha: float,
                       rho: float | None) -> ConfidenceSet:
    """The m3 set for ``rho=None``, else the m3p set at that ``rho``.

    ``points`` is the sorted evaluation half and ``pilot`` the mode
    estimate from the other half.  m3 collects every theta whose
    combination statistic stays below the chi-square quantile with 2|S2|
    degrees of freedom; the set always contains the pilot (all p-values
    equal 1 there) and is bounded, but its width does not shrink with the
    sample size: the statistic's law of large numbers limit pins a fixed
    limiting set.  m3p is valid for identically distributed observations
    whose pilot half is independent of the evaluation half: Markov's
    inequality on the mean of the dampened ratios needs only each ratio's
    single-observation bound at a fixed anchor (rho > 1 for integrability),
    so it holds under any dependence within the evaluation half.  A large
    rho can give the whole line (see :func:`_extract_level_set`).
    """
    cutoff = _cutoff(points, pilot, alpha, rho)
    stat = partial(concentration_statistic, points, pilot, rho=rho)
    bounds = partial(_stat_bounds, points, pilot, rho)
    return _extract_level_set(stat, bounds, cutoff, np.append(points, pilot))


def _concentration_covers(points: np.ndarray, pilots: np.ndarray, x: float,
                          alpha: float, rho: float | None) -> np.ndarray:
    """Whether each row's m3 (``rho`` None) or m3p set contains ``x``, for
    the (k, m) evaluation halves ``points`` and their ``pilots``: exactly
    statistic(x) < cutoff.  The extracted set differs from this only within
    its bisection tolerance, in a gap kept whole within rounding, or when
    it is the whole line."""
    cutoff = _cutoff(points, pilots[:, None], alpha, rho)
    return concentration_statistic(points, pilots, x, rho)[:, 0] < cutoff
