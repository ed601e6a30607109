"""Special-function quantiles and reproducible random streams.

Three operations: the Beta quantile, which gives the spacing plans their
width tolerances; the chi-square quantile, which gives the m3 cutoff; and a
counter-based uniform sampler whose streams can be addressed by id for
parallel replication.

The plans take Beta(2**k, n + 1 - 2**k) quantiles, integer shapes only, so
``qbeta`` computes the Beta cdf as a binomial tail.  The m3 cutoff takes
chi-square quantiles at even degrees of freedom only, so ``qchisq`` computes
the chi-square cdf as a Poisson tail.  Both need numpy and ``math`` alone, and
share one root finder.  Both quantiles certify their result: a cdf residual
above 1e-10 raises ``ArithmeticError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RngStream",
    "qbeta",
    "qchisq",
    "sample_uniform",
]

_UINT64_MAX = 2**64 - 1


def is_count(value) -> bool:
    """Whether ``value`` is an integer: an ``int`` or NumPy integer, not a ``bool``."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass(frozen=True)
class RngStream:
    """Addressable deterministic random stream.

    A ``(seed, stream_id)`` pair names one infinite random sequence.  The
    generator is counter-based (Philox), so distinct stream ids give
    independent-by-construction sequences and a simulation replication ``r``
    can draw from its own stream without advancing anyone else's.

    Parameters
    ----------
    seed : int
        Base seed, 64-bit unsigned.
    stream_id : int
        Substream selector, 64-bit unsigned.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        for name in ("seed", "stream_id"):
            value = getattr(self, name)
            if not is_count(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if not 0 <= value <= _UINT64_MAX:
                raise ValueError(f"{name} must fit in an unsigned 64-bit integer, got {value}")

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this stream."""
        key = np.array([self.seed, self.stream_id], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))


def qbeta(p: float, a: int, b: int) -> float:
    """Beta(a, b) quantile for positive integer shapes: the x with I_x(a, b) = p,
    where I is the regularized incomplete beta function.

    For integer shapes I_x(a, b) = P(Binomial(a + b - 1, x) >= a), the law of
    the a-th of a + b - 1 uniform order statistics (David and Nagaraja 2003,
    Order Statistics, section 2.2); :func:`_beta_tails` sums that binomial
    tail.  Endpoints map to the support limits: ``qbeta(0, ., .) == 0`` and
    ``qbeta(1, ., .) == 1``.  The result satisfies ``|I_x(a, b) - p| <=
    1e-10``; a miss raises ``ArithmeticError``.
    """
    if not is_count(a) or a < 1:
        raise ValueError(f"shape a must be a positive integer, got {a!r}")
    if not is_count(b) or b < 1:
        raise ValueError(f"shape b must be a positive integer, got {b!r}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    if p == 0.0:
        return 0.0
    if p == 1.0:
        return 1.0
    a, b = int(a), int(b)
    x = _cdf_root(p, lambda t: _beta_tails(t, a, b), a / (a + b), 1.0)
    lower, upper, _ = _beta_tails(x, a, b)
    resid = abs(upper - p if p <= 0.5 else lower - (1.0 - p))
    if not resid <= 1e-10:
        raise ArithmeticError(f"qbeta({p!r}, {a!r}, {b!r}) residual {resid!r} exceeds 1e-10")
    return x


def _cdf_root(p: float, tails, x: float, top: float) -> float:
    """The x in (0, top) where the cdf is p, searched from the start ``x``.

    ``tails(x)`` gives ``(1 - cdf, cdf, density)``.  Newton steps on log x
    against the log of the tail that holds p (the cdf for p <= 1/2, else 1 - cdf,
    whose complement 1 - p is exact), kept inside a bracket of the root; a step
    that leaves it bisects instead, or doubles x while the bracket has no upper end.
    """
    rising = p <= 0.5  # whether the tail solved for grows with x
    target = math.log(p if rising else 1.0 - p)
    lo, hi = 0.0, top
    for _ in range(200):
        survival, cdf, density = tails(x)
        tail = cdf if rising else survival
        if tail == 0.0:  # underflow: the root lies toward the tail's bulk
            lo, hi = (x, hi) if rising else (lo, x)
            step = math.inf
        else:
            gap = math.log(tail) - target
            if gap == 0.0:
                return x
            lo, hi = (x, hi) if (gap < 0.0) == rising else (lo, x)
            # d log(tail) / d log(x) is x times the density over the tail, with
            # the sign of the tail's slope
            slope = x * density / tail
            step = gap / slope if slope > 0.0 else math.inf
        # a step past e**700 would overflow; it leaves the bracket, so fall back below
        nxt = x * math.exp(-step if rising else step) if abs(step) < 700.0 else math.nan
        if abs(nxt - x) <= 2.0**-50 * x:
            return nxt if lo < nxt < hi else x  # x when the root rounds to top
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi) if hi < math.inf else 2.0 * x
            if not lo < nxt < hi:  # no float lies strictly inside the bracket
                return x
        x = nxt
    return x


def _beta_tails(x: float, a: int, b: int) -> tuple[float, float, float]:
    """``(1 - I_x(a, b), I_x(a, b), density)`` at 0 < x < 1 for integer shapes.

    With n = a + b - 1 and t_k = P(Binomial(n, x) = k), I_x(a, b) is the upper
    tail sum of t_k over k >= a.  The tail on the side of a away from the mode
    (n + 1) x is summed outward from its boundary term, whose terms fall
    monotonically, by :func:`_tail_sum`.  The other tail is the complement.
    The Beta(a, b) density at x is the boundary term times a / x or b / (1 - x).
    """
    n = a + b - 1
    upper = a > (n + 1) * x
    k = a if upper else a - 1  # boundary term of the summed tail
    odds = x / (1.0 - x)
    sd = math.sqrt(n * x * (1.0 - x))
    if upper:  # t_(k+j+1) / t_(k+j)
        total = _tail_sum(lambda j: (n - k - j) / (k + 1 + j) * odds, n - k, sd)
    else:  # t_(k-j-1) / t_(k-j)
        total = _tail_sum(lambda j: (k - j) / (n - k + 1 + j) / odds, k, sd)
    term = math.exp(_log_binomial_term(k, n, x))
    tail = term * total
    if upper:
        return 1.0 - tail, tail, a * term / x
    return tail, 1.0 - tail, b * term / (1.0 - x)


def _tail_sum(ratios, span, sd: float) -> float:
    """A tail sum in units of its boundary term: 1 plus the running products of
    the term ratios ``ratios(j)``, j = 0, 1, ..., span - 1, each below 1.

    One ``cumprod`` over about ten standard deviations ``sd``, doubled while its
    last term is above 1e-17 of the sum.
    """
    width = min(span, math.ceil(10.0 * sd) + 16)
    while True:
        terms = np.cumprod(ratios(np.arange(width, dtype=np.float64)))
        total = 1.0 + float(terms.sum())
        if width == span or terms[-1] <= 1e-17 * total:
            return total
        width = min(span, 2 * width)


_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def _log_binomial_term(k: int, n: int, x: float) -> float:
    """log P(Binomial(n, x) = k), in the saddle-point form of Loader (2000), "Fast
    and accurate computation of binomial probabilities": Stirling remainders and
    deviances, so no large log-gamma values cancel."""
    if k == 0:
        return n * math.log1p(-x)
    if k == n:
        return n * math.log(x)
    return (_stirling_remainder(n) - _stirling_remainder(k) - _stirling_remainder(n - k)
            - _deviance(k, n * x) - _deviance(n - k, n * (1.0 - x))
            + 0.5 * math.log(n / (k * (n - k))) - _HALF_LOG_2PI)


def _log_poisson_term(m: int, lam: float) -> float:
    """log P(Poisson(lam) = m), in Loader's (2000) form."""
    if m == 0:
        return -lam
    return -_stirling_remainder(m) - _deviance(m, lam) - 0.5 * math.log(m) - _HALF_LOG_2PI


def _stirling_remainder(m: int) -> float:
    """log(m!) - ((m + 1/2) log m - m + log(2 pi) / 2), for m >= 1."""
    if m < 16:
        return math.lgamma(m + 1.0) - (m + 0.5) * math.log(m) + m - _HALF_LOG_2PI
    mm = float(m) * m
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / mm) / mm) / mm) / mm) / m


def _deviance(k: int, mean: float) -> float:
    """k log(k / mean) + mean - k, summed as a series in v = (k - mean) / (k + mean)
    when k is near mean, where the direct form cancels."""
    if abs(k - mean) >= 0.1 * (k + mean):
        return k * math.log(k / mean) + mean - k
    v = (k - mean) / (k + mean)
    total, power = (k - mean) * v, 2.0 * k * v
    j = 1
    while True:
        power *= v * v
        nxt = total + power / (2 * j + 1)
        if nxt == total:
            return total
        total, j = nxt, j + 1


def qchisq(p: float, df: int) -> float:
    """Chi-square quantile for positive even ``df``, the only degrees of freedom
    m3's cutoff uses.

    For df = 2k the cdf is a Poisson tail, P(chi2_2k <= x) = P(Poisson(x / 2)
    >= k); :func:`_chisq_tails` sums it.  ``qchisq(0, .) == 0`` and
    ``qchisq(1, .) == inf``.  The result satisfies ``|CDF(result) - p| <=
    1e-10``; a miss raises ``ArithmeticError``.
    """
    if not is_count(df) or df <= 0 or df % 2:
        raise ValueError(f"df must be a positive even integer, got {df!r}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    if p == 0.0:
        return 0.0
    if p == 1.0:
        return math.inf
    k = int(df) // 2
    x = _cdf_root(p, lambda t: _chisq_tails(t, k), 2.0 * k, math.inf)
    survival, cdf, _ = _chisq_tails(x, k)
    resid = abs(cdf - p if p <= 0.5 else survival - (1.0 - p))
    if not resid <= 1e-10:
        raise ArithmeticError(f"qchisq({p!r}, {df!r}) residual {resid!r} exceeds 1e-10")
    return x


def _chisq_tails(x: float, k: int) -> tuple[float, float, float]:
    """``(1 - F, F, density)`` at x > 0 for the chi-square law with 2k degrees of
    freedom, where F(x) = P(Poisson(x / 2) >= k).

    With lam = x / 2 and t_j = P(Poisson(lam) = j), the tail on the side of k
    away from lam is summed outward from its boundary term, t_k upward or
    t_(k-1) downward, whose terms fall monotonically, by :func:`_tail_sum`: the
    term ratios are lam / (j + 1) or j / lam.  The other tail is the complement.
    The density is t_(k-1) / 2.
    """
    lam = 0.5 * x
    upper = k > lam
    m = k if upper else k - 1  # boundary term of the summed tail
    if upper:
        total = _tail_sum(lambda j: lam / (m + 1 + j), math.inf, math.sqrt(lam))
    else:
        total = _tail_sum(lambda j: (m - j) / lam, m, math.sqrt(lam))
    term = math.exp(_log_poisson_term(m, lam))
    tail = term * total
    if upper:
        return 1.0 - tail, tail, 0.5 * term * k / lam
    return tail, 1.0 - tail, 0.5 * term


def sample_uniform(stream: RngStream, n: int) -> np.ndarray:
    """Draw ``n`` reproducible uniforms on the open interval (0, 1).

    The same ``(seed, stream_id, n)`` triple yields a bit-identical vector
    on every run and platform.  Values are of the form (k + 1/2) / 2**53,
    so 0 and 1 are never produced.
    """
    if not is_count(n) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    raw = stream.generator().integers(0, 1 << 53, size=int(n), dtype=np.uint64)
    return (raw.astype(np.float64) + 0.5) * 2.0**-53
