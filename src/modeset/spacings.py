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

    The rows may be in any order; they are sorted here, and a value that is
    not finite raises ``ValueError``.  One plan serves all rows.  Each level
    masks the blocks outside a row's candidate range with inf, takes the
    first narrowest block per row, and ends its run at the nearest block on
    each side that is masked or wider than ``h_b`` times the narrowest.  A
    row is ``tied`` once a narrowest block has zero width: its run is one atom.

    Returns
    -------
    lo, hi, tied : ndarray of shape (k,)
    """
    v = sort_rows(np.asarray(rows, dtype=np.float64))
    k, n = v.shape
    plan = build_plan(n, alpha)
    pick = np.arange(k)
    cand_lo = np.zeros(k, dtype=np.intp)  # 0-based block ids, inclusive
    cand_hi = np.full(k, plan.n_b[plan.b_max] - 1)
    tied = np.zeros(k, dtype=bool)
    for b in range(plan.b_max, -1, -1):
        w = 1 << (b + plan.s_n)
        n_b = plan.n_b[b]
        pts = v[:, : n_b * w + 1 : w]
        widths = pts[:, 1:] - pts[:, :-1]
        blocks = np.arange(n_b)
        outside = (blocks < cand_lo[:, None]) | (blocks > cand_hi[:, None])
        masked = np.where(outside, np.inf, widths)
        narrowest = masked.argmin(axis=1)
        least = masked[pick, narrowest]
        tied |= least == 0.0
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
    w0 = 1 << plan.s_n
    first, last = v[:, 0], v[:, -1]
    span = last - first
    lo = np.where(lo_run == 0, first - plan.lam * span, v[pick, lo_run * w0])
    hi = np.where(
        hi_run == plan.n_b[0] - 1, last + plan.lam * span, v[pick, (hi_run + 1) * w0]
    )
    return lo, hi, tied
