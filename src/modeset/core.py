"""Shared data model: sorted samples, interval-union confidence sets,
sample splitting, and the spacing-based pilot mode estimate."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .numerics import RngStream

__all__ = [
    "ModeSetError",
    "MethodInfeasibleError",
    "SortedSample",
    "ConfidenceSet",
    "ModeResult",
    "SampleSplit",
    "make_confidence_set",
    "dilate",
    "split_sample",
    "venter_pilot",
]


class ModeSetError(Exception):
    """Base class for errors raised by this package."""


class MethodInfeasibleError(ModeSetError):
    """A method's preconditions cannot be met by the given sample."""


def check_alpha(alpha: float) -> None:
    """Raise ``ValueError`` unless the level ``alpha`` lies strictly in (0, 1)."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie strictly in (0, 1), got {alpha}")


def run_edges(mask) -> np.ndarray:
    """Start and stop indices of the runs of True in ``mask``, interleaved:
    run k is ``mask[edges[2k]:edges[2k + 1]]``."""
    padded = np.concatenate(([False], np.asarray(mask, dtype=bool), [False]))
    return np.flatnonzero(padded[1:] != padded[:-1])


def _as_finite_1d(data, name="data") -> np.ndarray:
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    if arr.size == 0:
        raise ValueError(f"{name} must be nonempty")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must contain only finite values")
    return arr


@dataclass(frozen=True)
class SortedSample:
    """Validated ascending observation vector, the view used by every
    interval construction."""

    values: np.ndarray

    @classmethod
    def from_data(cls, data) -> "SortedSample":
        values = np.sort(_as_finite_1d(data))
        values.setflags(write=False)
        return cls(values=values)

    @property
    def n(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True)
class ConfidenceSet:
    """Finite union of disjoint closed intervals on the extended real line.

    Construct through :func:`make_confidence_set`, which canonicalizes
    arbitrary interval collections.  Intervals are sorted, pairwise
    disjoint, and closed; membership is exact at endpoints.
    """

    intervals: tuple[tuple[float, float], ...] = field(default=())

    def __post_init__(self):
        prev_hi = -math.inf
        first = True
        for lo, hi in self.intervals:
            if math.isnan(lo) or math.isnan(hi):
                raise ValueError("interval endpoints must not be NaN")
            if lo > hi:
                raise ValueError(f"interval [{lo}, {hi}] has lo > hi")
            if not first and lo <= prev_hi:
                raise ValueError("intervals must be disjoint and ascending")
            prev_hi = hi
            first = False

    @property
    def is_empty(self) -> bool:
        return not self.intervals

    @property
    def width(self) -> float:
        """Total length; infinite if any interval is unbounded."""
        total = 0.0
        for lo, hi in self.intervals:
            total += hi - lo
        return total

    def contains(self, x: float) -> bool:
        """Membership with closed endpoints."""
        return any(lo <= x <= hi for lo, hi in self.intervals)

    def hull(self) -> tuple[float, float]:
        if self.is_empty:
            raise ValueError("empty set has no hull")
        return self.intervals[0][0], self.intervals[-1][1]

    def to_json_dict(self, alpha: float | None = None, method: str | None = None) -> dict:
        """Serializable form: intervals, width, and optional labelling.

        An unbounded endpoint, and the infinite width it gives, become
        ``None`` (JSON ``null``, as ``JSON.stringify`` writes them), so the
        form dumps as strict JSON.
        """
        def number(x):
            return x if math.isfinite(x) else None

        out = {
            "intervals": [[number(lo), number(hi)] for lo, hi in self.intervals],
            "width": number(self.width),
        }
        if alpha is not None:
            out["alpha"] = alpha
        if method is not None:
            out["method"] = method
        return out


@dataclass(frozen=True)
class ModeResult:
    """A method's confidence set and the diagnostics it computed on the way.

    ``vacuous`` is set when the ``m2``/``m2a`` count condition excluded
    nothing.  ``pilot`` is the pilot mode estimate of a split method;
    ``h`` and ``pre_dilation`` are the bandwidth ``m2``/``m2a`` used and
    the level set before dilation by it.  A method leaves a diagnostic it
    does not compute at its default.
    """

    confidence_set: ConfidenceSet
    vacuous: bool = False
    pilot: float | None = None
    h: float | None = None
    pre_dilation: ConfidenceSet | None = None


def make_confidence_set(raw) -> ConfidenceSet:
    """Canonicalize a collection of (lo, hi) pairs into a ConfidenceSet.

    Overlapping or touching intervals are merged, the result is sorted,
    and the operation is idempotent.  Raises on lo > hi or NaN.
    """
    cleaned = []
    for lo, hi in raw:
        lo = float(lo)
        hi = float(hi)
        if math.isnan(lo) or math.isnan(hi):
            raise ValueError("interval endpoints must not be NaN")
        if lo > hi:
            raise ValueError(f"interval [{lo}, {hi}] has lo > hi")
        cleaned.append((lo, hi))
    cleaned.sort()
    merged: list[list[float]] = []
    for lo, hi in cleaned:
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return ConfidenceSet(tuple((lo, hi) for lo, hi in merged))


def dilate(cs: ConfidenceSet, h: float) -> ConfidenceSet:
    """Minkowski dilation: every point within distance ``h`` of the set.

    Each interval [lo, hi] becomes [lo - h, hi + h]; gaps narrower than 2h
    close up during canonicalization.
    """
    if not h >= 0:
        raise ValueError(f"dilation radius must be nonnegative, got {h}")
    return make_confidence_set([(lo - h, hi + h) for lo, hi in cs.intervals])


@dataclass(frozen=True)
class SampleSplit:
    """Disjoint partition of a sample into a pilot half and an evaluation half."""

    s1: SortedSample
    s2: SortedSample


def split_sample(data, stream: RngStream) -> SampleSplit:
    """Random partition of ``data`` into two disjoint halves.

    The evaluation half ``s2`` gets ``round(m / 2)`` of the m points
    (half to even), the pilot half ``s1`` the rest.  The partition is a
    deterministic function of ``stream``.
    """
    arr = _as_finite_1d(data)
    m = arr.size
    if m < 2:
        raise ValueError("splitting requires at least 2 observations")
    n2 = round(m / 2)
    perm = stream.generator().permutation(m)
    s2 = SortedSample.from_data(arr[perm[:n2]])
    s1 = SortedSample.from_data(arr[perm[n2:]])
    return SampleSplit(s1=s1, s2=s2)


def split_and_pilot(data, stream: RngStream, r: int | None) -> tuple[np.ndarray, float]:
    """The sorted evaluation half of a split and the pilot mode estimate
    from the other half: the first step of every split-based method."""
    split = split_sample(data, stream)
    try:
        pilot = venter_pilot(split.s1, r)
    except MethodInfeasibleError as exc:
        raise MethodInfeasibleError(
            f"{exc} (pilot half of a {split.s1.n + split.s2.n}-point sample)"
        ) from exc
    return split.s2.values, pilot


def venter_pilot(sample: SortedSample, r: int | None = None) -> float:
    """Shortest-spacing mode estimate.

    Scans windows of 2r+1 consecutive order statistics and returns X_(K)
    where K minimizes X_(j+r) - X_(j-r) over j in [r+1, n-r], ties broken by
    the smallest j.  Defaults to r = ceil(sqrt(n)) clamped into the valid
    range; a window of that width is consistent for the mode of any
    unimodal density.
    """
    n = sample.n
    if r is None:
        if n < 3:
            raise MethodInfeasibleError(
                f"pilot mode estimate needs at least 3 points, got {n}"
            )
        r = min(math.ceil(math.sqrt(n)), (n - 1) // 2)
    if not isinstance(r, (int, np.integer)) or r < 1:
        raise ValueError(f"window size r must be a positive integer, got {r}")
    if n < 2 * r + 1:
        raise MethodInfeasibleError(
            f"pilot window r={r} needs n >= {2 * r + 1}, got n={n}"
        )
    v = sample.values
    gaps = v[2 * r:] - v[:-2 * r]
    k = int(np.argmin(gaps))  # first minimum: smallest j
    return float(v[r + k])
