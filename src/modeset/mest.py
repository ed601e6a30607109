"""Window-count M-estimation confidence sets (methods m2 and m2a).

Half the sample produces a pilot mode estimate; on the other half the set
collects every location whose +/-h window catches nearly as many points as
the pilot's window.  The window count N(theta) is piecewise constant with
jumps only at the points X_i -/+ h, and the points a window catches are
consecutive order statistics, so the level set is read off exactly from
the sorted shifted points, then dilated by h to transfer coverage from the
smoothed mode back to the mode itself.

The defining inequality compares window averages scaled by 1/(2h); the
bandwidth cancels, leaving an integer count condition

    N(theta) >= N(pilot) - slack(n, alpha)

with a Hoeffding-type slack for the fixed-bandwidth method and a
DKW-based slack (simultaneous over all h) for the width-minimizing one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    ConfidenceSet,
    MethodInfeasibleError,
    check_alpha,
    split_and_pilot,
)
from .numerics import RngStream

__all__ = [
    "MEstResult",
    "WindowStatistic",
    "default_bandwidth_grid",
    "dkw_count_slack",
    "hoeffding_count_slack",
    "m2_adaptive_details",
    "m2_details",
]


def hoeffding_count_slack(n: int, alpha: float) -> float:
    """Count slack sqrt(6n) * (sqrt(log(1/alpha)) + 2) for the fixed-h set."""
    return math.sqrt(6.0 * n) * (math.sqrt(math.log(1.0 / alpha)) + 2.0)


def dkw_count_slack(n: int, alpha: float) -> float:
    """Count slack 2*sqrt(2n*log(2/alpha)), simultaneously valid over all h."""
    return 2.0 * math.sqrt(2.0 * n * math.log(2.0 / alpha))


def _level_runs(starts: np.ndarray, ends: np.ndarray,
                cutoff: float) -> tuple[np.ndarray, np.ndarray]:
    """Endpoints (lo, hi) of the runs of N(theta) >= cutoff, ascending.

    ``starts`` and ``ends`` are X_i - h and X_i + h over the sorted points.
    The points a window catches form a contiguous block, so for K =
    ceil(cutoff) >= 1, N(theta) >= K exactly when s_{j+K-1} <= theta < e_j
    for some j.  Both endpoint sequences ascend: dropping the empty pieces
    and joining each piece to the previous one unless a gap separates them
    gives the maximal runs.  Every count is >= 0, so a cutoff <= 0 gives
    the knot hull [s_0, e_{n-1}].
    """
    if cutoff <= 0.0:
        return starts[:1], ends[-1:]
    k = math.ceil(cutoff)
    lo, hi = starts[k - 1:], ends[:max(ends.size - k + 1, 0)]
    keep = lo < hi
    return _join_runs(lo[keep], hi[keep])


def _join_runs(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # lo and hi ascend; a run ends wherever the next piece starts past it
    if lo.size == 0:
        return lo, hi
    cut = np.flatnonzero(lo[1:] > hi[:-1])
    return lo[np.concatenate(([0], cut + 1))], hi[np.concatenate((cut, [-1]))]


def _dilated_width(lo: np.ndarray, hi: np.ndarray, h: float) -> float:
    """``dilate(make_confidence_set(runs), h).width`` from the run arrays,
    summed left to right as ``ConfidenceSet.width`` sums it."""
    lo, hi = _join_runs(lo - h, hi + h)
    return float(np.cumsum(hi - lo)[-1]) if lo.size else 0.0


@dataclass(frozen=True)
class WindowStatistic:
    """Piecewise-constant window occupancy N(theta) over one point set.

    N(theta) counts points with theta - h < X_i <= theta + h, i.e. the
    indicator of point i is 1 exactly on [X_i - h, X_i + h).  ``starts``
    and ``ends`` hold the sorted X_i - h and X_i + h.
    """

    h: float
    starts: np.ndarray  # sorted X_i - h
    ends: np.ndarray  # sorted X_i + h

    @classmethod
    def from_points(cls, points, h: float) -> "WindowStatistic":
        if not h > 0:
            raise ValueError(f"bandwidth h must be positive, got {h}")
        pts = np.sort(np.asarray(points, dtype=np.float64))
        if pts.size == 0:
            raise ValueError("window statistic needs at least one point")
        return cls(h=float(h), starts=pts - h, ends=pts + h)

    @property
    def breakpoints(self) -> np.ndarray:
        """The sorted distinct knots {X_i - h} union {X_i + h}."""
        return np.unique(np.concatenate([self.starts, self.ends]))

    @property
    def counts(self) -> np.ndarray:
        """``counts[k]`` is N on [breakpoints[k], breakpoints[k+1]); N = 0
        outside the knot hull."""
        return self.at(self.breakpoints)

    def at(self, theta) -> np.ndarray | int:
        """Exact window count at one or many locations."""
        n = np.searchsorted(self.starts, theta, side="right") - np.searchsorted(
            self.ends, theta, side="right"
        )
        return n

    def level_set(self, cutoff: float) -> list[tuple[float, float]]:
        """Closed intervals where N(theta) >= cutoff.

        Internal segments are right-open; emission closes them, a
        measure-zero enlargement.  Every count is >= 0, so a cutoff <= 0
        gives the knot hull [breakpoints[0], breakpoints[-1]].
        """
        lo, hi = _level_runs(self.starts, self.ends, cutoff)
        return list(zip(lo.tolist(), hi.tolist()))


@dataclass(frozen=True)
class MEstResult:
    """Confidence set plus the diagnostics a coverage study wants."""

    confidence_set: ConfidenceSet
    pre_dilation: ConfidenceSet
    h: float
    pilot: float
    vacuous: bool


def _sweep(points: np.ndarray, pilot: float, grid, slack: float) -> MEstResult:
    # narrowest dilated level set over the bandwidth grid for the sorted
    # points; the strict comparison sends ties to the smallest h, and only
    # the winner's sets are built, from the run arrays that ranked it
    best = None
    for h in grid:
        starts, ends = points - h, points + h
        count = np.searchsorted(starts, pilot, side="right") - np.searchsorted(
            ends, pilot, side="right"
        )
        cutoff = float(count) - slack
        runs = _level_runs(starts, ends, cutoff)
        width = _dilated_width(*runs, h)
        if best is None or width < best[0]:
            best = (width, h, cutoff, runs)
    _, h, cutoff, (lo, hi) = best
    dlo, dhi = _join_runs(lo - h, hi + h)
    pre = ConfidenceSet(tuple(zip(lo.tolist(), hi.tolist())))
    dilated = ConfidenceSet(tuple(zip(dlo.tolist(), dhi.tolist())))
    return MEstResult(confidence_set=dilated, pre_dilation=pre, h=h,
                      pilot=pilot, vacuous=cutoff <= 0.0)


def m2_details(
    data,
    alpha: float,
    h: float | None = None,
    *,
    split_stream: RngStream = RngStream(0, 0),
    pilot_r: int | None = None,
) -> MEstResult:
    """Fixed-bandwidth M-estimation set with diagnostics (method m2).

    ``h`` is required.  ``pilot_r`` overrides the pilot window size; the
    split is a deterministic function of ``split_stream``.  A cutoff <= 0
    excludes nothing: the set is then the dilated knot hull and
    ``vacuous`` is set.
    """
    check_alpha(alpha)
    if h is None:
        raise ValueError("method m2 requires a fixed bandwidth h (--h)")
    if not h > 0:
        raise ValueError(f"bandwidth h must be positive, got {h}")
    points, pilot = split_and_pilot(data, split_stream, pilot_r)
    return _sweep(points, pilot, (h,), hoeffding_count_slack(points.size, alpha))


def default_bandwidth_grid(points, size: int = 64) -> tuple[float, ...]:
    """Geometric bandwidth grid from half the finest point gap to the range."""
    pts = np.sort(np.asarray(points, dtype=np.float64))
    span = float(pts[-1] - pts[0])
    if span <= 0:
        raise MethodInfeasibleError("bandwidth grid needs a sample with positive range")
    gaps = np.diff(pts)
    positive = gaps[gaps > 0]
    lo = float(positive.min()) / 2.0
    grid = np.geomspace(lo, span, size)
    return tuple(float(h) for h in np.unique(grid))


def m2_adaptive_details(
    data,
    alpha: float,
    h_grid: tuple[float, ...] | None = None,
    *,
    split_stream: RngStream = RngStream(0, 0),
    pilot_r: int | None = None,
) -> MEstResult:
    """Width-minimizing bandwidth M-estimation set with diagnostics (m2a).

    ``h_grid`` holds the candidate bandwidths, positive and strictly
    ascending; it defaults to a geometric grid spanning the evaluation
    half's resolution to its range.  Every candidate uses the DKW slack,
    which is simultaneously valid over all h, so minimizing the dilated
    width over the grid keeps the coverage guarantee.  Ties go to the
    smallest bandwidth.
    """
    check_alpha(alpha)
    if h_grid is not None:
        h_grid = tuple(float(h) for h in h_grid)
        if len(h_grid) == 0:
            raise ValueError("h_grid must be nonempty")
        if any(h <= 0 for h in h_grid):
            raise ValueError("h_grid entries must be positive")
        if any(b <= a for a, b in zip(h_grid, h_grid[1:])):
            raise ValueError("h_grid must be strictly ascending")
    points, pilot = split_and_pilot(data, split_stream, pilot_r)
    grid = h_grid if h_grid is not None else default_bandwidth_grid(points)
    return _sweep(points, pilot, grid, dkw_count_slack(points.size, alpha))
