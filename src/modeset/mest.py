"""Window-count M-estimation confidence sets (methods m2 and m2a).

Half the sample produces a pilot mode estimate; on the other half the set
collects every location whose +/-h window catches nearly as many points as
the pilot's window.  The window count N(theta) is piecewise constant with
jumps only at the points X_i -/+ h, so the level set is read off exactly
from a breakpoint sweep, then dilated by h to transfer coverage from the
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
    dilate,
    make_confidence_set,
    split_sample,
    venter_pilot,
)
from .numerics import RngStream

__all__ = [
    "MEstConfig",
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


@dataclass(frozen=True)
class MEstConfig:
    """Configuration for the M-estimation sets.

    ``h`` is the fixed bandwidth (m2); ``h_grid`` the candidate bandwidths
    for the width-minimizing variant (m2a, defaults to a geometric grid
    spanning the evaluation half's resolution to its range).  ``pilot_r``
    overrides the pilot window size; the split is a deterministic function
    of ``split_stream``.
    """

    alpha: float
    h: float | None = None
    h_grid: tuple[float, ...] | None = None
    pilot_r: int | None = None
    split_stream: RngStream = RngStream(0, 0)
    split_fraction: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie strictly in (0, 1), got {self.alpha}")
        if self.h is not None and not self.h > 0:
            raise ValueError(f"bandwidth h must be positive, got {self.h}")
        if self.h_grid is not None:
            grid = tuple(float(h) for h in self.h_grid)
            if len(grid) == 0:
                raise ValueError("h_grid must be nonempty")
            if any(h <= 0 for h in grid):
                raise ValueError("h_grid entries must be positive")
            if any(b <= a for a, b in zip(grid, grid[1:])):
                raise ValueError("h_grid must be strictly ascending")
            object.__setattr__(self, "h_grid", grid)


@dataclass(frozen=True)
class WindowStatistic:
    """Piecewise-constant window occupancy N(theta) over one point set.

    N(theta) counts points with theta - h < X_i <= theta + h, i.e. the
    indicator of point i is 1 exactly on [X_i - h, X_i + h).  ``breakpoints``
    holds the sorted distinct knots {X_i - h} union {X_i + h}; ``counts[k]``
    is N on [breakpoints[k], breakpoints[k+1]), with N = 0 outside the knot
    hull.
    """

    h: float
    starts: np.ndarray  # sorted X_i - h
    ends: np.ndarray  # sorted X_i + h
    breakpoints: np.ndarray
    counts: np.ndarray

    @classmethod
    def from_points(cls, points, h: float) -> "WindowStatistic":
        if not h > 0:
            raise ValueError(f"bandwidth h must be positive, got {h}")
        pts = np.sort(np.asarray(points, dtype=np.float64))
        if pts.size == 0:
            raise ValueError("window statistic needs at least one point")
        starts = pts - h
        ends = pts + h
        breakpoints = np.unique(np.concatenate([starts, ends]))
        counts = np.searchsorted(starts, breakpoints, side="right") - np.searchsorted(
            ends, breakpoints, side="right"
        )
        return cls(h=float(h), starts=starts, ends=ends,
                   breakpoints=breakpoints, counts=counts)

    def at(self, theta) -> np.ndarray | int:
        """Exact window count at one or many locations."""
        n = np.searchsorted(self.starts, theta, side="right") - np.searchsorted(
            self.ends, theta, side="right"
        )
        return n

    def level_set(self, cutoff: float) -> list[tuple[float, float]]:
        """Closed intervals where N(theta) >= cutoff, for cutoff > 0.

        Internal segments are right-open; emission closes them, a
        measure-zero enlargement.
        """
        mask = self.counts[:-1] >= cutoff
        out: list[tuple[float, float]] = []
        i = 0
        m = mask.size
        while i < m:
            if mask[i]:
                j = i
                while j + 1 < m and mask[j + 1]:
                    j += 1
                out.append((float(self.breakpoints[i]), float(self.breakpoints[j + 1])))
                i = j + 1
            i += 1
        return out


@dataclass(frozen=True)
class MEstResult:
    """Confidence set plus the diagnostics a coverage study wants."""

    confidence_set: ConfidenceSet
    pre_dilation: ConfidenceSet
    h: float
    pilot: float
    vacuous: bool


def _level_set_with_clamp(ws: WindowStatistic, cutoff: float) -> tuple[ConfidenceSet, bool]:
    # cutoff <= 0 excludes nothing (N >= 0 everywhere): clamp to the knot
    # hull so the reported set stays finite, and flag the vacuous threshold.
    if cutoff <= 0.0:
        pre = make_confidence_set([(float(ws.breakpoints[0]), float(ws.breakpoints[-1]))])
        return pre, True
    return make_confidence_set(ws.level_set(cutoff)), False


def _split_and_pilot(data, cfg: MEstConfig):
    split = split_sample(data, cfg.split_stream, cfg.split_fraction)
    pilot = venter_pilot(split.s1, cfg.pilot_r)
    return split.s2.values, pilot


def m2_details(data, cfg: MEstConfig) -> MEstResult:
    """Fixed-bandwidth M-estimation set with diagnostics (method m2)."""
    if cfg.h is None:
        raise ValueError("method m2 requires a fixed bandwidth h (--h)")
    s2, pilot = _split_and_pilot(data, cfg)
    ws = WindowStatistic.from_points(s2, cfg.h)
    cutoff = float(ws.at(pilot)) - hoeffding_count_slack(s2.size, cfg.alpha)
    pre, vacuous = _level_set_with_clamp(ws, cutoff)
    return MEstResult(
        confidence_set=dilate(pre, cfg.h),
        pre_dilation=pre,
        h=cfg.h,
        pilot=pilot,
        vacuous=vacuous,
    )


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


def m2_adaptive_details(data, cfg: MEstConfig) -> MEstResult:
    """Width-minimizing bandwidth M-estimation set with diagnostics (m2a).

    Every candidate bandwidth uses the DKW slack, which is simultaneously
    valid over all h, so minimizing the dilated width over the grid keeps
    the coverage guarantee.  Ties go to the smallest bandwidth.
    """
    s2, pilot = _split_and_pilot(data, cfg)
    grid = cfg.h_grid if cfg.h_grid is not None else default_bandwidth_grid(s2)
    slack = dkw_count_slack(s2.size, cfg.alpha)
    best: MEstResult | None = None
    for h in grid:
        ws = WindowStatistic.from_points(s2, h)
        cutoff = float(ws.at(pilot)) - slack
        pre, vacuous = _level_set_with_clamp(ws, cutoff)
        cs = dilate(pre, h)
        if best is None or cs.width < best.confidence_set.width:
            best = MEstResult(
                confidence_set=cs, pre_dilation=pre, h=h, pilot=pilot, vacuous=vacuous
            )
    assert best is not None
    return best
