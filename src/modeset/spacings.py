"""Nested order-statistic spacing interval (method m1).

The construction compares equally-spaced order-statistic blocks across a
dyadic hierarchy of block widths.  At the coarsest level the narrowest
block marks the highest-density region; a run of neighbours whose widths
are within a Beta-quantile ratio of the narrowest survives, and the
procedure descends to finer blocks inside the surviving run.  A tail
inflation covers a mode that falls outside the sample range.  The result
is always a single closed interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import (
    ConfidenceSet,
    MethodInfeasibleError,
    SortedSample,
    check_alpha,
    make_confidence_set,
)
from .numerics import qbeta

__all__ = [
    "SpacingsPlan",
    "build_plan",
    "lanke_inflation",
    "m1_bounds",
    "m1_confidence_interval",
]


def lanke_inflation(n: int, alpha: float) -> float:
    """Tail inflation factor (alpha/2)**(-1/(n-1)) - 1.

    Inflating the sample range by this factor on each side covers a mode
    that falls outside the observed range with probability 1 - alpha/2.
    """
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise ValueError(f"the inflation factor needs n >= 2, got {n}")
    check_alpha(alpha)
    return (alpha / 2.0) ** (-1.0 / (n - 1)) - 1.0


@dataclass(frozen=True)
class SpacingsPlan:
    """All derived quantities of the spacing construction for one (n, alpha).

    Attributes
    ----------
    s_n : int
        Base block exponent, ceil(log2(ln n)), capped at floor(log2(n / 8))
        for n >= 32; the blocks and the Beta quantiles both use it.
    b_max : int
        Coarsest level; level B uses blocks of 2**(B + s_n) spacings.
    n_b : tuple of int
        Number of complete blocks per level, index B in [0, b_max].
    t_n : float
        Normalizer sum_{B=0}^{b_max} 1/(B+2) for the per-level error split.
    h_b : tuple of float
        Width-ratio tolerances per level (upper over lower Beta quantile
        at complementary tail levels); always >= 1.
    lam : float
        Tail inflation factor (alpha/2)**(-1/(n-1)) - 1.
    """

    s_n: int
    b_max: int
    n_b: tuple[int, ...]
    t_n: float
    h_b: tuple[float, ...]
    lam: float


@lru_cache(maxsize=256)
def _cached_plan(n: int, alpha: float) -> SpacingsPlan:
    # ceil(log2(ln n)) steps up at n = 55, before floor(log2(n / 8)) does at
    # n = 64, which would leave no level at n = 55..63; the cap keeps one
    # level there (b_max = 0) and changes no other n >= 32.  The blocks and
    # the Beta quantiles below both use this s_n.  Below 32 the cap would
    # open a level too; those samples stay infeasible.
    s_n = math.ceil(math.log2(math.log(n)))
    if n >= 32:
        s_n = min(s_n, math.floor(math.log2(n / 8)))
    b_max = math.floor(math.log2(n / 8)) - s_n
    if b_max < 0:
        raise MethodInfeasibleError(
            f"sample too small for the spacing interval: n={n} gives no usable level"
        )
    n_b = []
    for b in range(b_max + 1):
        count = (n - 1) // (1 << (b + s_n))
        if count < 1:
            raise MethodInfeasibleError(
                f"sample too small for the spacing interval: level {b} has no block"
            )
        n_b.append(count)
    t_n = sum(1.0 / (b + 2) for b in range(b_max + 1))
    h_b = []
    for b in range(b_max + 1):
        a_shape = float(1 << (b + s_n))
        b_shape = float(n + 1 - (1 << (b + s_n)))
        level = alpha / (4.0 * (b + 2) * n_b[b] * t_n)
        upper = qbeta(1.0 - level, a_shape, b_shape)
        lower = qbeta(level, a_shape, b_shape)
        h_b.append(upper / lower)
    lam = lanke_inflation(n, alpha)
    return SpacingsPlan(
        s_n=s_n,
        b_max=b_max,
        n_b=tuple(n_b),
        t_n=t_n,
        h_b=tuple(h_b),
        lam=lam,
    )


def build_plan(n: int, alpha: float) -> SpacingsPlan:
    """Derive every plan quantity for a sample size and confidence level.

    Raises
    ------
    MethodInfeasibleError
        When n is too small to form even one coarse block (b_max < 0).
    """
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise MethodInfeasibleError(
            f"sample too small for the spacing interval: n={n}"
        )
    check_alpha(alpha)
    return _cached_plan(int(n), float(alpha))


def m1_bounds(rows, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Endpoints of the m1 interval for each row of a (k, n) matrix.

    Every row must be sorted ascending and finite; one plan serves all
    rows.  Each level masks the blocks outside a row's candidate range
    with inf, takes the first narrowest block per row, and grows the run
    of blocks within ``h_b`` times that width on both sides of it.

    Returns
    -------
    lo, hi : ndarray of shape (k,)
    """
    v = np.asarray(rows, dtype=np.float64)
    k, n = v.shape
    plan = build_plan(n, alpha)
    pick = np.arange(k)
    cand_lo = np.zeros(k, dtype=np.intp)  # 0-based block ids, inclusive
    cand_hi = np.full(k, plan.n_b[plan.b_max] - 1)
    for b in range(plan.b_max, -1, -1):
        w = 1 << (b + plan.s_n)
        n_b = plan.n_b[b]
        pts = v[:, : n_b * w + 1 : w]
        widths = pts[:, 1:] - pts[:, :-1]
        blocks = np.arange(n_b)
        outside = (blocks < cand_lo[:, None]) | (blocks > cand_hi[:, None])
        masked = np.where(outside, np.inf, widths)
        narrowest = masked.argmin(axis=1)
        bound = plan.h_b[b] * masked[pick, narrowest]
        stop = outside | (widths > bound[:, None])
        # the run around the narrowest block ends at the nearest stop on each
        # side; the right end is found on the reversed rows
        left = np.maximum.accumulate(np.where(stop, blocks + 1, 0), axis=1)
        right = np.minimum.accumulate(np.where(stop, blocks - 1, n_b - 1)[:, ::-1], axis=1)
        lo_run, hi_run = left[pick, narrowest], right[pick, n_b - 1 - narrowest]
        if b > 0:
            # Finer blocks are halves of the surviving coarse blocks; only
            # those wholly inside the surviving run remain candidates.  The
            # trailing order statistics lie in no coarse block, so no
            # comparison at this level has excluded the finer blocks over
            # them: a run that reaches the last coarse block keeps every
            # finer block to its right.
            cand_lo = 2 * lo_run
            cand_hi = np.where(hi_run == n_b - 1, plan.n_b[b - 1] - 1, 2 * hi_run + 1)
    w0 = 1 << plan.s_n
    first, last = v[:, 0], v[:, -1]
    span = last - first
    lo = np.where(lo_run == 0, first - plan.lam * span, v[pick, lo_run * w0])
    hi = np.where(
        hi_run == plan.n_b[0] - 1, last + plan.lam * span, v[pick, (hi_run + 1) * w0]
    )
    return lo, hi


def m1_confidence_interval(sample: SortedSample, alpha: float) -> ConfidenceSet:
    """Spacing-based confidence interval for the mode (method m1).

    Parameters
    ----------
    sample : SortedSample
    alpha : float
        Miscoverage level in (0, 1).

    Returns
    -------
    ConfidenceSet
        A single closed interval; its endpoints lie within
        [X_(1) - lam*range, X_(n) + lam*range].
    """
    lo, hi = m1_bounds(sample.values[None, :], alpha)
    return make_confidence_set([(float(lo[0]), float(hi[0]))])
