"""Special-function quantiles and reproducible random streams.

Three operations: the Beta quantile, which gives the spacing plans their
width tolerances; the chi-square quantile, which gives the m3 cutoff; and a
counter-based uniform sampler whose streams can be addressed by id for
parallel replication.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

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


def qbeta(p: float, a: float, b: float) -> float:
    """Beta(a, b) quantile: the x with I_x(a, b) = p, where I is the
    regularized incomplete beta function.

    Endpoints map to the support limits: ``qbeta(0, ., .) == 0`` and
    ``qbeta(1, ., .) == 1``.  The result satisfies ``|I_x(a, b) - p| <=
    1e-10`` across the shape ranges used by the spacing plans; a miss
    raises ``ArithmeticError``.
    """
    if not (a > 0 and math.isfinite(a)):
        raise ValueError(f"shape a must be a positive finite real, got {a}")
    if not (b > 0 and math.isfinite(b)):
        raise ValueError(f"shape b must be a positive finite real, got {b}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    if p == 0.0:
        return 0.0
    if p == 1.0:
        return 1.0
    x = float(special.betaincinv(a, b, p))
    resid = abs(float(special.betainc(a, b, x)) - p)
    if not resid <= 1e-10:
        raise ArithmeticError(f"qbeta({p!r}, {a!r}, {b!r}) residual {resid!r} exceeds 1e-10")
    return x


def qchisq(p: float, df: int) -> float:
    """Chi-square quantile with ``df`` degrees of freedom.

    Computed through the inverse regularized lower incomplete gamma
    function; ``|CDF(result) - p| <= 1e-10``.
    """
    if not is_count(df) or df <= 0:
        raise ValueError(f"df must be a positive integer, got {df}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    if p == 0.0:
        return 0.0
    if p == 1.0:
        return math.inf
    return float(2.0 * special.gammaincinv(df / 2.0, p))


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
