"""Single dispatch point mapping method codes to the univariate constructions.

This is the only module that branches on a method code; the simulator,
the CLI and the multivariate lift all go through it.  Errors keep their
classes: invalid arguments raise ``ValueError`` and a sample the method
cannot handle (too small, or an evaluation point tied with the pilot)
raises ``MethodInfeasibleError``.
"""

from __future__ import annotations

import numpy as np

from .core import ConfidenceSet, SortedSample, check_alpha
from .edelman import m3_confidence_set, m3prime_confidence_set
from .mest import m2_adaptive_details, m2_details
from .numerics import RngStream
from .spacings import m1_bounds, m1_confidence_interval

__all__ = ["METHOD_CODES", "compute_confidence_set", "run_method"]

METHOD_CODES = ("m1", "m2", "m2a", "m3", "m3p")


def run_method(
    data,
    alpha: float,
    method: str,
    *,
    h: float | None = None,
    h_grid: tuple[float, ...] | None = None,
    rho: float = 2.0,
    pilot_r: int | None = None,
    split_stream: RngStream = RngStream(0, 0),
) -> tuple[ConfidenceSet, bool]:
    """Run one univariate mode confidence-set construction by code.

    Returns the set and whether its threshold was vacuous (only ``m2`` and
    ``m2a`` can be).  ``m1`` needs no extra options; ``m2`` needs ``h``;
    ``m2a`` accepts an optional ``h_grid``; ``m3p`` accepts ``rho`` (> 1).
    The split-based methods take ``pilot_r`` and ``split_stream``.
    Options a method does not use are ignored.
    """
    # checked first, so a bad alpha is reported before any sample-size check
    check_alpha(alpha)
    if method == "m1":
        return m1_confidence_interval(SortedSample.from_data(data), alpha), False
    split = dict(split_stream=split_stream, pilot_r=pilot_r)
    if method == "m2":
        res = m2_details(data, alpha, h, **split)
        return res.confidence_set, res.vacuous
    if method == "m2a":
        res = m2_adaptive_details(data, alpha, h_grid, **split)
        return res.confidence_set, res.vacuous
    if method == "m3":
        return m3_confidence_set(data, alpha, **split), False
    if method == "m3p":
        return m3prime_confidence_set(data, alpha, rho, **split), False
    raise ValueError(f"unknown method {method!r}; choose one of {METHOD_CODES}")


def compute_confidence_set(data, alpha: float, method: str, **options) -> ConfidenceSet:
    """The set of :func:`run_method`, which takes the same keyword options."""
    return run_method(data, alpha, method, **options)[0]


def covers(rows, x: float, alpha: float, method: str, **options) -> np.ndarray:
    """Whether each row's set (of :func:`run_method`) contains ``x``.

    ``rows`` is a (k, n) matrix holding k samples of equal size n >= 1.
    ``m1`` runs as one batch over all rows; every other method runs row
    by row.
    """
    check_alpha(alpha)
    if method != "m1":
        return np.array(
            [run_method(row, alpha, method, **options)[0].contains(x) for row in rows],
            dtype=bool,
        )
    values = np.sort(np.asarray(rows, dtype=np.float64), axis=1)
    # sorted, so -inf is first in its row and +inf or NaN last
    if not np.all(np.isfinite(values[:, 0]) & np.isfinite(values[:, -1])):
        raise ValueError("data must contain only finite values")
    lo, hi = m1_bounds(values, alpha)
    return (lo <= x) & (x <= hi)
