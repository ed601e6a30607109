"""Single dispatch point mapping method codes to the univariate constructions.

This is the only module that branches on a method code; the simulator,
the CLI and the multivariate lift all go through it.  Errors keep their
classes: invalid arguments raise ``ValueError`` and a sample the method
cannot handle (too small, tied for ``m1``, or an evaluation point tied
with the pilot) raises ``MethodInfeasibleError``.
"""

from __future__ import annotations

import math
import numpy as np

from .core import (
    ConfidenceSet,
    MethodInfeasibleError,
    ModeResult,
    ModeSetError,
    _as_finite_1d,
    check_alpha,
    split_and_pilot,
)
from .edelman import _concentration_covers, _concentration_set
from .mest import _sweep, default_bandwidth_grid, dkw_count_slack, hoeffding_count_slack
from .numerics import RngStream
from .spacings import m1_bounds

__all__ = ["METHOD_CODES", "METHOD_OPTIONS", "SCAN_CODES", "compute_confidence_set", "run_method"]

# the keyword options of run_method that each method takes; it ignores the rest
METHOD_OPTIONS = {
    "m1": (),
    "m2": ("h", "pilot_r", "split_stream"),
    "m2a": ("h_grid", "pilot_r", "split_stream"),
    "m3": ("pilot_r", "split_stream"),
    "m3p": ("rho", "pilot_r", "split_stream"),
}
METHOD_CODES = tuple(METHOD_OPTIONS)
# the methods that run with defaults alone: every option but h has one
SCAN_CODES = tuple(m for m, options in METHOD_OPTIONS.items() if "h" not in options)
_RHO = 2.0  # m3p's default damping exponent, also the one covers uses
_SPLIT_STREAM = RngStream(0, 0)
_TIED = "tied data: an m1 block of order statistics has zero width"


def _check_options(alpha, methods, h, h_grid, rho):
    """Check alpha, then each method's code and own option; returns ``h_grid`` as an array."""
    check_alpha(alpha)
    for method in methods:
        if method not in METHOD_OPTIONS:
            raise ValueError(f"unknown method {method!r}; choose one of {METHOD_CODES}")
        taken = METHOD_OPTIONS[method]
        if "h" in taken:
            if h is None:
                raise ValueError(f"method {method} requires a fixed bandwidth h")
            if not 0 < h < math.inf:
                raise ValueError(f"bandwidth h must be positive and finite, got {h}")
        elif "h_grid" in taken and h_grid is not None:
            h_grid = np.asarray(h_grid, dtype=np.float64)
            if h_grid.ndim != 1 or h_grid.size == 0:
                raise ValueError(
                    f"h_grid must be a nonempty 1-D sequence, got shape {h_grid.shape}")
            if not np.all((0 < h_grid) & (h_grid < math.inf)):
                raise ValueError("h_grid entries must be positive and finite")
            if np.any(np.diff(h_grid) <= 0):
                raise ValueError("h_grid must be strictly ascending")
        elif "rho" in taken and not 1.0 < rho < math.inf:
            raise ValueError(f"rho must exceed 1 and be finite, got {rho}")
    return h_grid


def _method_columns(rows, alpha, methods, h=None, h_grid=None, rho=_RHO, pilot_r=None,
                    split_stream=_SPLIT_STREAM):
    """Yield each method's column for the (k, m) matrix ``rows``: ``column[i]`` is row i's
    ``ModeResult`` or the ``ModeSetError`` it raised, as :func:`run_method` gives it.

    The options are :func:`run_method`'s, checked by ``_check_options``;
    ``split_stream`` is one stream for all rows or one per row.  ``m1`` runs
    all rows as one batch and the split methods share one split.
    """
    split = None
    for method in methods:
        try:
            if method == "m1":
                lo, hi, tied = m1_bounds(rows, alpha)
                column = [MethodInfeasibleError(_TIED) if t else
                          ModeResult(ConfidenceSet(((a, b),)))
                          for a, b, t in zip(lo.tolist(), hi.tolist(), tied)]
            else:
                split = split or split_and_pilot(rows, split_stream, pilot_r)
                grids = (default_bandwidth_grid(split[0]) if method == "m2a" and h_grid is None
                         else [h_grid] * len(rows))
                column = [grid if isinstance(grid, ModeSetError) else
                          _split_result(method, p, float(c), alpha, h, grid, rho)
                          for p, c, grid in zip(*split, grids)]
        except ModeSetError as exc:  # no m1 plan or no pilot for this sample size
            column = [exc] * len(rows)
        yield column


def _split_result(method, points, pilot, alpha, h, h_grid, rho) -> ModeResult | ModeSetError:
    """A split method's result on one sorted evaluation half, or its ``ModeSetError``."""
    try:
        if method == "m2":
            return _sweep(points, pilot, np.array([h]), hoeffding_count_slack(points.size, alpha))
        if method == "m2a":
            return _sweep(points, pilot, h_grid, dkw_count_slack(points.size, alpha))
        cs = _concentration_set(points, pilot, alpha, rho if method == "m3p" else None)
        return ModeResult(cs, pilot=pilot)
    except ModeSetError as exc:
        return exc


def run_method(data, alpha: float, method: str, *, h: float | None = None, h_grid=None,
               rho: float = _RHO, pilot_r: int | None = None,
               split_stream: RngStream = _SPLIT_STREAM) -> ModeResult:
    """Run one univariate mode confidence-set construction by code.

    - ``m1``: the spacing interval, always one closed interval within
      [X_(1) - lam*range, X_(n) + lam*range]; no diagnostics; tied data are infeasible.
    - ``m2``: the fixed-bandwidth window-count set; ``h`` is required.
    - ``m2a``: the width-minimizing window-count set over ``h_grid``, a
      nonempty 1-D sequence of strictly ascending, positive, finite
      bandwidths, by default a geometric grid from the evaluation half's
      resolution to its range.  Every candidate uses the DKW slack, which
      holds simultaneously over all h, so minimizing the dilated width
      over the grid keeps the coverage guarantee; ties go to the smallest h.
    - ``m3``: the combined p-value set.  It is bounded and contains the
      pilot, but its width does not shrink with the sample size.
    - ``m3p``: the dampened-ratio set, valid under any dependence within the
      identically distributed evaluation half if it is independent of the
      pilot half; ``rho`` must exceed 1, and a large ``rho`` can give the whole line.

    Every method but ``m1`` splits the sample with ``split_stream`` and
    takes its pilot from one half, with window ``pilot_r``, and reports it
    in ``pilot``; ``m2``/``m2a`` also report ``h``, ``pre_dilation`` and
    ``vacuous``.  Alpha and the named method's own option are checked
    before the sample; options a method does not take (``METHOD_OPTIONS``)
    are ignored.  This is the one-row case of :func:`_method_columns`.
    """
    # checked first, so a bad alpha is reported before any sample-size check
    h_grid = _check_options(alpha, [method], h, h_grid, rho)
    [result], = _method_columns(_as_finite_1d(data)[None, :], alpha, [method], h, h_grid, rho,
                                pilot_r, split_stream)
    if isinstance(result, ModeSetError):
        raise result
    return result


def compute_confidence_set(data, alpha: float, method: str, **options) -> ConfidenceSet:
    """The set of :func:`run_method`, which takes the same keyword options."""
    return run_method(data, alpha, method, **options).confidence_set


def covers(rows, x: float, alpha: float, method: str) -> np.ndarray:
    """Whether each row's set (of :func:`run_method` with its defaults) contains ``x``.

    ``rows`` is a (k, n) matrix holding k samples of equal size n >= 1 and
    ``method`` one of ``SCAN_CODES``.  Every method but ``m2a``, which
    builds each row's set, tests all rows as one batch.
    """
    check_alpha(alpha)
    if method not in SCAN_CODES:
        raise ValueError(f"method {method!r} is not one of {SCAN_CODES}, which need no options")
    rows = np.asarray(rows, dtype=np.float64)
    if method == "m1":
        lo, hi, tied = m1_bounds(rows, alpha)
        if tied.any():
            raise MethodInfeasibleError(_TIED)
        return (lo <= x) & (x <= hi)
    if method == "m2a":
        [results] = _method_columns(rows, alpha, [method])
        for res in results:
            if isinstance(res, ModeSetError):
                raise res
        return np.array([res.confidence_set.contains(x) for res in results], dtype=bool)
    points, pilots = split_and_pilot(rows, _SPLIT_STREAM, None)
    return _concentration_covers(points, pilots, x, alpha, _RHO if method == "m3p" else None)
