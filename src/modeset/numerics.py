"""Special-function quantiles and reproducible random streams.

Three operations: the Beta quantile, which gives the spacing plans their
width tolerances; the chi-square quantile, which gives the m3 cutoff; and a
counter-based uniform sampler whose streams can be addressed by id for
parallel replication.

The plans take Beta(2**k, n + 1 - 2**k) quantiles, integer shapes only, so
``qbeta`` computes the Beta cdf as a binomial tail with numpy alone.  Only
``qchisq`` needs SciPy, and imports it when called: importing modeset and
every method but m3 leave SciPy unloaded.  Both quantiles certify their
result: a cdf residual above 1e-10 raises ``ArithmeticError``.
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
    x = _beta_root(p, a, b)
    lower, upper, _ = _beta_tails(x, a, b)
    resid = abs(upper - p if p <= 0.5 else lower - (1.0 - p))
    if not resid <= 1e-10:
        raise ArithmeticError(f"qbeta({p!r}, {a!r}, {b!r}) residual {resid!r} exceeds 1e-10")
    return x


def _beta_root(p: float, a: int, b: int) -> float:
    """The x in (0, 1) with I_x(a, b) = p.

    Newton steps on log x against the log of the tail that holds p (the upper
    binomial tail I for p <= 1/2, else 1 - I, whose complement 1 - p is exact),
    kept inside a bracket of the root; a step that leaves it bisects instead.
    """
    rising = p <= 0.5  # whether the tail solved for grows with x
    target = math.log(p if rising else 1.0 - p)
    lo, hi = 0.0, 1.0
    x = a / (a + b)
    for _ in range(200):
        lower, upper, density = _beta_tails(x, a, b)
        tail = upper if rising else lower
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
        # a step past e**700 would overflow; it leaves the bracket, so bisect
        nxt = x * math.exp(-step if rising else step) if abs(step) < 700.0 else math.nan
        if abs(nxt - x) <= 2.0**-50 * x:
            return nxt if lo < nxt < hi else x  # x when the root rounds to 1
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
            if not lo < nxt < hi:  # no float lies strictly inside the bracket
                return x
        x = nxt
    return x


def _beta_tails(x: float, a: int, b: int) -> tuple[float, float, float]:
    """``(1 - I_x(a, b), I_x(a, b), density)`` at 0 < x < 1 for integer shapes.

    With n = a + b - 1 and t_k = P(Binomial(n, x) = k), I_x(a, b) is the upper
    tail sum of t_k over k >= a.  The tail on the side of a away from the mode
    (n + 1) x is summed outward from its boundary term, whose terms fall
    monotonically: one ``cumprod`` of term ratios over about ten standard
    deviations, widened while its last term is above 1e-17 of the sum.  The
    other tail is the complement.  The Beta(a, b) density at x is the boundary
    term times a / x or b / (1 - x).
    """
    n = a + b - 1
    upper = a > (n + 1) * x
    k = a if upper else a - 1  # boundary term of the summed tail
    odds = x / (1.0 - x)
    span = n - k if upper else k  # terms beyond the boundary
    width = min(span, math.ceil(10.0 * math.sqrt(n * x * (1.0 - x))) + 16)
    while True:
        j = np.arange(width, dtype=np.float64)
        if upper:
            ratios = (n - k - j) / (k + 1 + j) * odds  # t_(k+j+1) / t_(k+j)
        else:
            ratios = (k - j) / (n - k + 1 + j) / odds  # t_(k-j-1) / t_(k-j)
        terms = np.cumprod(ratios)
        total = 1.0 + float(terms.sum())
        if width == span or terms[-1] <= 1e-17 * total:
            break
        width = min(span, 2 * width)
    term = math.exp(_log_binomial_term(k, n, x))
    tail = term * total
    if upper:
        return 1.0 - tail, tail, a * term / x
    return tail, 1.0 - tail, b * term / (1.0 - x)


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
    """Chi-square quantile with ``df`` degrees of freedom.

    Computed through SciPy's inverse regularized lower incomplete gamma
    function, imported here: m3's cutoff is the only use of SciPy in modeset.
    The result satisfies ``|CDF(result) - p| <= 1e-10``; a miss raises
    ``ArithmeticError``.
    """
    if not is_count(df) or df <= 0:
        raise ValueError(f"df must be a positive integer, got {df}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    if p == 0.0:
        return 0.0
    if p == 1.0:
        return math.inf
    from scipy import special

    x = float(2.0 * special.gammaincinv(df / 2.0, p))
    resid = abs(float(special.gammainc(df / 2.0, x / 2.0)) - p)
    if not resid <= 1e-10:
        raise ArithmeticError(f"qchisq({p!r}, {df!r}) residual {resid!r} exceeds 1e-10")
    return x


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
