"""Shared data model: interval-union confidence sets, sample splitting,
and the spacing-based pilot mode estimate."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .numerics import RngStream

__all__ = [
    "ModeSetError",
    "MethodInfeasibleError",
    "ConfidenceSet",
    "ModeResult",
    "make_confidence_set",
    "join_runs",
    "sort_rows",
    "split_and_pilot",
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


def _as_finite_1d(data) -> np.ndarray:
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError("data must be one-dimensional")
    if arr.size == 0:
        raise ValueError("data must be nonempty")
    if not np.all(np.isfinite(arr)):
        raise ValueError("data must contain only finite values")
    return arr


def sort_rows(rows: np.ndarray) -> np.ndarray:
    """Every row of a (k, m) matrix, m >= 1, sorted ascending; raises
    ``ValueError`` unless all its values are finite."""
    values = np.sort(rows, axis=1)
    # sorted, so -inf is first in its row and +inf or NaN last
    if not np.all(np.isfinite(values[:, 0]) & np.isfinite(values[:, -1])):
        raise ValueError("data must contain only finite values")
    return values


@dataclass(frozen=True)
class ConfidenceSet:
    """Finite union of disjoint closed intervals on the extended real line.

    Construct through :meth:`from_runs`, which takes the runs of
    :func:`join_runs`, or :func:`make_confidence_set`, which sorts any
    interval collection into such runs.  Intervals are sorted, pairwise
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

    @classmethod
    def from_runs(cls, lo: np.ndarray, hi: np.ndarray) -> ConfidenceSet:
        """The set of the disjoint ascending intervals [lo_i, hi_i], as from :func:`join_runs`."""
        return cls(tuple(zip(lo.tolist(), hi.tolist())))

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

    ``vacuous``: the set is the whole line, as the ``m2``/``m2a`` count
    condition excluded nothing at every bandwidth.  ``pilot`` is the pilot
    mode estimate (of the whole sample for ``m2``/``m2a``, else of the pilot
    half); ``h`` and ``pre_dilation`` are the bandwidth ``m2``/``m2a`` used
    and the level set before dilation by it.  A method leaves a diagnostic it does
    not compute at its default.
    """

    confidence_set: ConfidenceSet
    vacuous: bool = False
    pilot: float | None = None
    h: float | None = None
    pre_dilation: ConfidenceSet | None = None


def make_confidence_set(raw) -> ConfidenceSet:
    """The union of (lo, hi) pairs, as a list, a ``zip`` or a (k, 2) array:
    sorted as tuples, then :func:`join_runs` of the starts and the running
    maximum ends, so overlapping, nested and touching intervals merge; a
    run ends at its first end to reach its maximum, fixing a zero's sign.
    Anything but pairs, or a pair with NaN or lo > hi, raises ``ValueError``."""
    ends = np.array(list(raw) or np.empty((0, 2)), dtype=np.float64)
    if ends.ndim != 2 or ends.shape[1] != 2:
        raise ValueError(f"intervals must be (lo, hi) pairs, got shape {ends.shape}")
    bad = ends[~(ends[:, 0] <= ends[:, 1])]  # NaN or lo > hi
    ConfidenceSet(tuple(map(tuple, bad[:1].tolist())))  # its checks name the first
    lo, hi = ends[np.lexsort((ends[:, 1], ends[:, 0]))].T
    top = np.maximum.accumulate(hi)
    starts, tops = join_runs(lo, top)
    return ConfidenceSet.from_runs(starts, hi[np.searchsorted(top, tops)])


def join_runs(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Endpoints of the maximal runs of the intervals [lo_i, hi_i], whose
    end arrays both ascend: an interval joins the run before it unless it
    starts past that run's end, so touching intervals join."""
    if lo.size == 0:
        return lo, hi
    cut = np.flatnonzero(lo[1:] > hi[:-1])
    return lo[np.concatenate(([0], cut + 1))], hi[np.concatenate((cut, [-1]))]


def split_and_pilot(
    rows: np.ndarray, streams: RngStream | list[RngStream]
) -> tuple[np.ndarray, np.ndarray]:
    """Split each row of a (k, m) matrix by a permutation of range(m), one
    per row from a list of k ``streams`` or one for all rows from a single
    stream, as ``m3`` and ``m3p`` do first.  Returns the sorted evaluation
    halves (each permutation's first round(m / 2) positions, half to even)
    and each row's :func:`venter_pilot` of the other."""
    k, m = rows.shape
    if m < 2:
        raise MethodInfeasibleError(f"splitting needs at least 2 observations, got {m}")
    n2 = round(m / 2)
    if isinstance(streams, RngStream):  # a plain take: several times faster than the gather
        halves = [rows.take(p, axis=1) for p in np.split(streams.generator().permutation(m), [n2])]
    elif len(streams) == k:
        perms = np.stack([s.generator().permutation(m) for s in streams])
        halves = [np.take_along_axis(rows, p, axis=1) for p in np.split(perms, [n2], axis=1)]
    else:
        raise ValueError(f"need one split stream or one per row, got {len(streams)} for {k} rows")
    points = sort_rows(halves[0])
    try:
        pilots = venter_pilot(sort_rows(halves[1]))
    except MethodInfeasibleError as exc:
        raise MethodInfeasibleError(f"{exc} (pilot half of a {m}-point sample)") from exc
    return points, pilots


def venter_pilot(values: np.ndarray) -> np.ndarray:
    """Shortest-spacing mode estimate of every row of a (k, n) matrix of
    ascending rows, n >= 3.

    Scans windows of 2r+1 consecutive order statistics, r = min(ceil(sqrt(n)),
    floor((n - 1) / 2)), and returns X_(K) where K minimizes X_(j+r) - X_(j-r)
    over j in [r+1, n-r], ties broken by the smallest j.  A window of that
    width is consistent for the mode of any unimodal density.
    """
    n = values.shape[1]
    if n < 3:
        raise MethodInfeasibleError(f"pilot mode estimate needs at least 3 points, got {n}")
    r = min(math.ceil(math.sqrt(n)), (n - 1) // 2)
    with np.errstate(over="ignore"):  # a gap past the largest float is inf: never the narrowest
        gaps = values[:, 2 * r:] - values[:, :-2 * r]
    j = np.argmin(gaps, axis=1)  # first minimum: smallest j
    return values[np.arange(values.shape[0]), r + j]
