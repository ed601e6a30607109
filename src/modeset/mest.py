"""Window-count M-estimation confidence sets (methods m2 and m2a).

A pilot mode estimate comes from the whole sample; the set collects every
location whose +/-h window catches nearly as many points as the pilot's
window.  The window count N(theta) is piecewise constant with jumps only at
the points X_i -/+ h, and the points a window catches are consecutive order
statistics, so the level set is read off exactly from the sorted shifted
points, then dilated by h to transfer coverage from the smoothed mode back
to the mode.

The defining inequality compares window averages scaled by 1/(2h); the
bandwidth cancels, leaving an integer count condition

    N(theta) >= N(pilot) - slack(n, alpha)

with a DKW-based slack, which bounds every window at once: any h, and any
pilot, one taken from the same sample included.  m2 is the sweep at its
one bandwidth, m2a the narrowest set over a grid.
"""

from __future__ import annotations

import math

import numpy as np

from .core import ConfidenceSet, MethodInfeasibleError, ModeResult, join_runs

__all__ = [
    "default_bandwidth_grid",
    "dkw_count_slack",
]

DEFAULT_GRID_SIZE = 64  # bandwidths in an m2a grid


def dkw_count_slack(n: int, alpha: float) -> float:
    """Count slack 2*sqrt(2n*log(2/alpha)), simultaneously valid over all h."""
    return 2.0 * math.sqrt(2.0 * n * math.log(2.0 / alpha))


def _level_runs(points: np.ndarray, h: float, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Endpoints (lo, hi) of pieces whose union is the set N(theta) >= k, for 1 <= k <= n.

    Over the sorted ``points``, s_i = X_i - h and e_i = X_i + h (each slice
    shifted once taken: the same floats).  The points a window catches are
    contiguous, so N(theta) >= k exactly when s_{j+k-1} <= theta < e_j for
    some j: the nonempty such pieces, whose end arrays ascend, as
    :func:`join_runs` takes them.
    """
    lo, hi = points[k - 1:] - h, points[:points.size - k + 1] + h
    keep = lo < hi
    return (lo, hi) if keep.all() else (lo[keep], hi[keep])


def _pilot_counts(points: np.ndarray, pilot: float, hs: np.ndarray) -> np.ndarray:
    """N(pilot) for every bandwidth in ``hs``: the windows [X_i - h, X_i + h) holding it.

    Rounding is monotone, so the count of X_i + s <= pilot (s = -h for the
    starts, +h for the ends) is the j with X_{j-1} + s <= pilot < X_j + s.
    One ``searchsorted`` guesses every j = #(X_i <= pilot - s); a guess stands
    where the true shifted values pass that test, else it is recounted from X + s.
    """
    m, shifts = points.size, np.concatenate((-hs, hs))
    j = np.searchsorted(points, pilot - shifts, side="right")
    bad = (j > 0) & (points[j - 1] + shifts > pilot)  # j = 0 reads X_{m-1}, masked
    bad |= (j < m) & (points[np.minimum(j, m - 1)] + shifts <= pilot)
    for i in np.flatnonzero(bad):
        j[i] = np.searchsorted(points + shifts[i], pilot, side="right")
    return j[:hs.size] - j[hs.size:]


def _sweep(points: np.ndarray, pilot: float, grid, slack: float) -> ModeResult:
    """The narrowest dilated level set over the ascending bandwidth ``grid``
    for the sorted ``points``, with its bandwidth and diagnostics.

    On integer counts N(theta) >= N(pilot) - slack is N(theta) >= K =
    N(pilot) - floor(slack).  K is taken from floor(min(slack * (1 + 2^-49),
    n)): :func:`dkw_count_slack` is within a relative 5 * 2^-53 of its
    formula if ``math.log`` is within one ulp (glibc's is), so K never
    exceeds the exact K.  N(pilot) never falls as h rises (rounding is
    monotone), so the informative bandwidths (K >= 1) come last; with none,
    the set is the whole line at the first h.  The walk builds them in
    ascending h, in Python floats (the same doubles), each one's pieces
    shifted by h.  Their ends still ascend, so one comparison finds the
    gaps; only where one exists are the pieces joined (no gap closed by the
    shift reopens) and the runs' widths summed left to right as
    ``ConfidenceSet.width`` sums them, else the set is one run.  The first
    replaces the whole line, then only a strictly narrower set, so ties go
    to the smaller h.  An informative set holds the pilot, so its width is
    at least (pilot + h) - (pilot - h), which grows with h: the walk stops
    once that floor reaches the best width.
    """
    hs = np.asarray(grid, dtype=np.float64)
    ks = _pilot_counts(points, pilot, hs) - math.floor(min(slack * (1 + 2**-49), points.size))
    line = np.array([[-math.inf], [math.inf]])  # the ends of the whole line
    best = math.inf, float(hs[0]), *line, *line
    informative = [(h, k) for h, k in zip(hs.tolist(), ks.tolist()) if k > 0]
    with np.errstate(over="ignore"):  # a huge h gives infinite ends, as with Python floats
        for built, (h, k) in enumerate(informative):
            if built and (pilot + h) - (pilot - h) >= best[0]:
                break
            lo, hi = _level_runs(points, h, k)
            dlo, dhi = lo - h, hi + h
            # the one run's ends as copies: views would keep full-length arrays alive across builds
            dlo, dhi = join_runs(dlo, dhi) if (dlo[1:] > dhi[:-1]).any() else (dlo[[0]], dhi[[-1]])
            width = np.cumsum(dhi - dlo)[-1] if dlo.size > 1 else dhi[0] - dlo[0]
            if not built or width < best[0]:
                best = width, h, lo, hi, dlo, dhi
    _, h, lo, hi, dlo, dhi = best
    return ModeResult(ConfidenceSet.from_runs(dlo, dhi), vacuous=bool(ks[-1] <= 0), pilot=pilot,
                      h=h, pre_dilation=ConfidenceSet.from_runs(*join_runs(lo, hi)))


def default_bandwidth_grid(rows, size: int = DEFAULT_GRID_SIZE) -> list:
    """For a (k, m) matrix of ascending rows, each row's grid of ``size`` geometric bandwidths,
    all from one call, from half the row's finest gap (at least 5e-324) to its range as an
    ascending float64 array, or a ``MethodInfeasibleError`` for a row whose range is zero or
    past the largest float."""
    if size < 1:
        raise ValueError(f"bandwidth grid size must be at least 1, got {size}")
    rows = np.asarray(rows, dtype=np.float64)
    with np.errstate(over="ignore"):  # a range past the largest float is inf
        spans, gaps = rows[:, -1] - rows[:, 0], np.diff(rows, axis=1)
    fine = np.where(gaps > 0, gaps, math.inf).min(axis=1, initial=math.inf) / 2.0
    ok = (0 < spans) & (spans < math.inf)
    grids = iter(grid if np.all(grid[1:] > grid[:-1]) else np.unique(grid)  # rounding can repeat
                 for grid in np.geomspace(np.maximum(fine[ok], 5e-324), spans[ok], size, axis=-1))
    return [next(grids) if good else MethodInfeasibleError(
        "bandwidth grid needs a sample with positive, finite range") for good in ok]
