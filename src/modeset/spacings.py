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

from .core import MethodInfeasibleError, check_alpha, sort_rows
from .numerics import is_count, qbeta

__all__ = [
    "SpacingsPlan",
    "build_plan",
    "lanke_inflation",
    "m1_bounds",
]


def lanke_inflation(n: int, alpha: float) -> float:
    """Tail inflation factor (alpha/2)**(-1/(n-1)) - 1.

    Inflating the sample range by this factor on each side covers a mode
    that falls outside the observed range with probability 1 - alpha/2.
    """
    if not is_count(n) or n < 2:
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
def build_plan(n: int, alpha: float) -> SpacingsPlan:
    """Derive every plan quantity for a sample size and confidence level.

    Raises
    ------
    MethodInfeasibleError
        When n is too small to form even one coarse block (b_max < 0).
    """
    if not is_count(n) or n < 2:
        raise MethodInfeasibleError(
            f"sample too small for the spacing interval: n={n}"
        )
    check_alpha(alpha)
    n, alpha = int(n), float(alpha)
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
    # b <= b_max keeps 2**(b + s_n) <= n / 8, so every level has >= 7 blocks
    n_b = [(n - 1) // (1 << (b + s_n)) for b in range(b_max + 1)]
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


def m1_bounds(rows, alpha: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Endpoints of the m1 interval for each row of a (k, n) matrix.

    The rows may be in any order: a sorted copy is taken, so the caller's
    array is left as it is, and a value that is not finite raises ``ValueError``.

    Returns
    -------
    lo, hi, tied : ndarray of shape (k,)
    """
    return _m1_descent(*_m1_order_statistics(sort_rows(np.asarray(rows, dtype=np.float64)), alpha))


def _m1_order_statistics(rows: np.ndarray, alpha: float):
    """``(stats, plan)`` for a (k, n) matrix of ascending rows: each row's order statistics
    0, 2**s_n, ... and then its maximum."""
    plan = build_plan(rows.shape[1], alpha)
    return np.concatenate((rows[:, :: 1 << plan.s_n], rows[:, -1:]), axis=1), plan


def _m1_descent(stats, plan: SpacingsPlan, x: float | None = None):
    """``(lo, hi, tied)`` of :func:`m1_bounds` from each row's ``stats``, under one plan.

    Each level masks the blocks outside a row's candidate range with inf, takes the
    first narrowest block per row, and ends its run at the nearest block on each side
    that is masked or wider than ``h_b`` times the narrowest.  A row is ``tied`` once a
    narrowest block has zero width: its run is one atom.  Given ``x``, a row leaves with
    ``nan`` ends once its run settles that its interval misses ``x``, if no finest block
    of it has zero width: a block of zero width holds one, so no other row is ever tied.
    """
    k = len(stats)
    rows = np.arange(k)  # the rows still descending
    may_leave = None if x is None else (stats[:, 1:-1] > stats[:, :-2]).all(axis=1)
    cand_lo = np.zeros(k, dtype=np.intp)  # 0-based block ids, inclusive
    cand_hi = np.full(k, plan.n_b[plan.b_max] - 1)
    tied = np.zeros(k, dtype=bool)
    for b in range(plan.b_max, -1, -1):
        step = 1 << b
        n_b = plan.n_b[b]
        pick = np.arange(len(stats))
        pts = stats[:, : n_b * step + 1 : step]
        widths = pts[:, 1:] - pts[:, :-1]
        blocks = np.arange(n_b, dtype=np.int32)  # halves the index temporaries
        outside = (blocks < cand_lo[:, None]) | (blocks > cand_hi[:, None])
        widths[outside] = np.inf
        narrowest = widths.argmin(axis=1)
        least = widths[pick, narrowest]
        tied[rows] |= least == 0.0
        bound = plan.h_b[b] * least
        stop = outside | (widths > bound[:, None])
        before = blocks < narrowest[:, None]
        lo_run = np.where(stop & before, blocks + 1, 0).max(axis=1)
        hi_run = np.where(stop & ~before, blocks - 1, n_b - 1).min(axis=1)
        if b > 0:
            # Finer blocks are halves of the surviving coarse blocks; only
            # those wholly inside the surviving run remain candidates.  The
            # trailing order statistics lie in no coarse block, so no
            # comparison at this level has excluded the finer blocks over
            # them: a run that reaches the last coarse block keeps every
            # finer block to its right.
            cand_lo = 2 * lo_run
            cand_hi = np.where(hi_run == n_b - 1, plan.n_b[b - 1] - 1, 2 * hi_run + 1)
            if x is not None:
                # the final run lies within this one: its interval reaches no further
                out = ((lo_run > 0) & (pts[pick, lo_run] > x)
                       | (hi_run < n_b - 1) & (pts[pick, hi_run + 1] < x))
                stay = ~(out & may_leave)
                stats, rows, may_leave, cand_lo, cand_hi = (
                    a[stay] for a in (stats, rows, may_leave, cand_lo, cand_hi))
    first, last = stats[:, 0], stats[:, -1]
    span = last - first
    lo = np.where(lo_run == 0, first - plan.lam * span, stats[pick, lo_run])
    hi = np.where(hi_run == plan.n_b[0] - 1, last + plan.lam * span, stats[pick, hi_run + 1])
    ends = np.full((2, k), np.nan)
    ends[:, rows] = lo, hi
    return *ends, tied
