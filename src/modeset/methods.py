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
    sort_rows,
    split_and_pilot,
    venter_pilot,
)
from .edelman import _concentration_covers, _concentration_set
from .mest import _sweep, default_bandwidth_grid, dkw_count_slack
from .numerics import RngStream
from .spacings import _m1_descent, _m1_order_statistics

__all__ = ["METHOD_CODES", "METHOD_OPTIONS", "SCAN_CODES", "compute_confidence_set", "run_method"]

# the keyword options of run_method that each method takes; it ignores the rest
METHOD_OPTIONS = {
    "m1": (),
    "m2": ("h",),
    "m2a": (),
    "m3": ("split_stream",),
    "m3p": ("rho", "split_stream"),
}
METHOD_CODES = tuple(METHOD_OPTIONS)
# the methods that run with defaults alone: every option but h has one
SCAN_CODES = tuple(m for m, options in METHOD_OPTIONS.items() if "h" not in options)
_RHO = 2.0  # m3p's default damping exponent, also the one covers uses
_SPLIT_STREAM = RngStream(0, 0)
_TIED = "tied data: an m1 block of order statistics has zero width"
_M1_BATCH = 2**15  # order statistics that covers holds for one m1 descent


def _check_method(method):
    """``ValueError`` unless ``method`` is one of ``METHOD_CODES``."""
    if method not in METHOD_CODES:
        raise ValueError(f"unknown method {method!r}; choose one of {METHOD_CODES}")


def _check_options(alpha, method, h, rho):
    """Check alpha, then the method's code and its own option."""
    check_alpha(alpha)
    _check_method(method)
    taken = METHOD_OPTIONS[method]
    if "h" in taken:
        if h is None:
            raise ValueError(f"method {method} requires a fixed bandwidth h")
        if not 0 < h < math.inf:
            raise ValueError(f"bandwidth h must be positive and finite, got {h}")
    elif "rho" in taken and not 1.0 < rho < math.inf:
        raise ValueError(f"rho must exceed 1 and be finite, got {rho}")


def _method_columns(rows, alpha, methods, h=None, rho=_RHO, split_stream=_SPLIT_STREAM):
    """Yield each method's column for the (k, m) matrix ``rows``: ``column[i]`` is row i's
    ``ModeResult`` or the ``ModeSetError`` it raised, as :func:`run_method` gives it.

    The options are :func:`run_method`'s, checked by ``_check_options``;
    ``split_stream`` is one stream for all rows or one per row.  ``m1``, ``m2`` and ``m2a``
    share one sort of the rows: ``m1`` runs them as one batch, and ``m2``/``m2a`` sweep each
    sorted row from one whole-sample pilot, ``m2`` at its one bandwidth ``h``.  ``m3`` and
    ``m3p`` share one split.
    """
    k, points, pilots, split = len(rows), None, None, None
    for method in methods:
        try:
            if points is None and method in ("m1", "m2", "m2a"):
                points = sort_rows(rows)
            if pilots is None and method in ("m2", "m2a"):
                pilots = venter_pilot(points)
            if method == "m1":
                lo, hi, tied = _m1_descent(*_m1_order_statistics(points, alpha))
                column = [MethodInfeasibleError(_TIED) if t else
                          ModeResult(ConfidenceSet(((a, b),)))
                          for a, b, t in zip(lo.tolist(), hi.tolist(), tied)]
            elif method in ("m2", "m2a"):
                grids = default_bandwidth_grid(points) if method == "m2a" else [np.array([h])] * k
                column = [grid if isinstance(grid, ModeSetError) else
                          _sweep(p, float(c), grid, dkw_count_slack(p.size, alpha))
                          for p, c, grid in zip(points, pilots, grids)]
            else:
                split = split or split_and_pilot(rows, split_stream)
                column = [_split_result(p, float(c), alpha, rho if method == "m3p" else None)
                          for p, c in zip(*split)]
        except ModeSetError as exc:  # no m1 plan or no pilot for this sample size
            column = [exc] * k
        yield column


def _split_result(points, pilot, alpha, rho) -> ModeResult | ModeSetError:
    """``m3``'s result (``rho`` None) or ``m3p``'s on one sorted evaluation half, or its
    ``ModeSetError``."""
    try:
        return ModeResult(_concentration_set(points, pilot, alpha, rho), pilot=pilot)
    except ModeSetError as exc:
        return exc


def run_method(data, alpha: float, method: str, *, h: float | None = None, rho: float = _RHO,
               split_stream: RngStream = _SPLIT_STREAM) -> ModeResult:
    """Run one univariate mode confidence-set construction by code.

    - ``m1``: the spacing interval, always one closed interval within
      [X_(1) - lam*range, X_(n) + lam*range]; no diagnostics; tied data are infeasible.
    - ``m2``: the window-count set at one fixed bandwidth ``h``, which is required: ``m2a``'s
      sweep over the grid ``[h]``.
    - ``m2a``: the width-minimizing window-count set over a geometric grid of bandwidths from
      the sample's resolution to its range.  Every candidate uses the DKW slack, which holds
      for all windows at once, so for any h and any pilot: ``m2``/``m2a`` need no split, and
      minimizing the dilated width over the grid keeps the coverage guarantee; ties go to the
      smallest h.  If the count condition excludes nothing at every h, the set is the whole
      line, ``vacuous``.
    - ``m3``: the combined p-value set.  It is bounded and contains the
      pilot, but its width does not shrink with the sample size.
    - ``m3p``: the dampened-ratio set, valid under any dependence within the
      identically distributed evaluation half if it is independent of the
      pilot half; ``rho`` must exceed 1, and a large ``rho`` can give the whole line.

    ``m3`` and ``m3p`` split the sample with ``split_stream`` and take their pilot from one
    half, ``m2`` and ``m2a`` from the whole sample, and report it in ``pilot``; ``m2``/``m2a``
    also report ``h``, ``pre_dilation`` and ``vacuous``.  Alpha and the named method's own
    option are checked before the sample; options a method does not take (``METHOD_OPTIONS``)
    are ignored.  This is the one-row case of :func:`_method_columns`.
    """
    # checked first, so a bad alpha is reported before any sample-size check
    _check_options(alpha, method, h, rho)
    [result], = _method_columns(_as_finite_1d(data)[None, :], alpha, [method], h, rho,
                                split_stream)
    if isinstance(result, ModeSetError):
        raise result
    return result


def compute_confidence_set(data, alpha: float, method: str, **options) -> ConfidenceSet:
    """The set of :func:`run_method`, which takes the same keyword options."""
    return run_method(data, alpha, method, **options).confidence_set


def covers(chunks, x: float, alpha: float, method: str, transform=None):
    """For each (k, n) matrix of ``chunks`` in turn, yield whether each row's set (of
    :func:`run_method` with its defaults) contains ``x``; the matrices are left as they are.

    All rows have one size n >= 1; ``method`` is one of ``SCAN_CODES``.  ``m1`` answers
    the matrices with one descent per ``_M1_BATCH`` order statistics held, from which a
    row leaves once its interval misses ``x``.  ``m3`` and ``m3p`` test each matrix as
    one batch, and ``m2a`` builds each row's set.  Rows are tested as their image under
    ``transform``, a nondecreasing elementwise map that may overwrite and return its array:
    ``m1`` maps only the order statistics it reads, the others a copy of each matrix.
    """
    check_alpha(alpha)
    if method not in SCAN_CODES:
        raise ValueError(f"method {method!r} is not one of {SCAN_CODES}, which need no options")
    held, sizes = np.empty((0, 0)), []  # m1: order statistics awaiting a descent, rows per matrix
    for rows in chunks:
        rows = np.asarray(rows, dtype=np.float64)
        if transform is not None and method != "m1":
            rows = transform(rows.copy())
        if method == "m1":
            stats, plan = _m1_order_statistics(sort_rows(rows), alpha)  # a fresh array
            stats = stats if transform is None else transform(stats)
            if sizes and sum(sizes) + len(stats) > len(held):
                yield from _m1_hits(held, sizes, x, plan)
                sizes = []
            if len(stats) > len(held):
                held = np.empty((max(len(stats), _M1_BATCH // stats.shape[1]), stats.shape[1]))
            held[sum(sizes) : sum(sizes) + len(stats)] = stats
            sizes.append(len(stats))
        elif method == "m2a":
            [results] = _method_columns(rows, alpha, [method])
            for res in results:
                if isinstance(res, ModeSetError):
                    raise res
            yield np.array([res.confidence_set.contains(x) for res in results], dtype=bool)
        else:
            points, pilots = split_and_pilot(rows, _SPLIT_STREAM)
            yield _concentration_covers(points, pilots, x, alpha,
                                        _RHO if method == "m3p" else None)
    if sizes:
        yield from _m1_hits(held, sizes, x, plan)


def _m1_hits(held, sizes, x, plan):
    """``covers`` for ``m1`` on the first ``sum(sizes)`` rows ``held``, one array per size."""
    lo, hi, tied = _m1_descent(held[: sum(sizes)], plan, x)
    if tied.any():
        raise MethodInfeasibleError(_TIED)
    return np.split((lo <= x) & (x <= hi), np.cumsum(sizes[:-1]))
