"""Multivariate lift: mode confidence sets for star-unimodal data (method m4).

A d-dimensional distribution is gamma-unimodal about its mode when it can
be written as U**(1/gamma) * Z with U uniform on (0, 1) independent of Z.
For such data the radial transform ||X_i - theta||_2**gamma produces, at
theta equal to the true mode, a univariate sample that is unimodal about
0.  A candidate theta therefore belongs to the lifted confidence set
exactly when 0 belongs to a univariate confidence set built on the
transformed sample; scanning candidates over a grid gives a finite
representation of the region.  As n grows, the region tends to the set of theta
whose radial law has its mode at 0: it contains the mode but is not the mode, and
for N(0, I_2) at gamma 2 it is the disk of radius sqrt(2) about the mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import MethodInfeasibleError
from .methods import covers
from .numerics import is_count

__all__ = [
    "MembershipGrid",
    "PointCloud",
    "contains_mode_candidate",
    "radial_transform",
    "scan_region",
]

_MAX_CELLS = 10_000_000
# cells per scan chunk times the sample size stays within this many
# float64 values, which bounds every (cells, n) temporary of a chunk
_CHUNK_VALUES = 2**16


@dataclass(frozen=True)
class PointCloud:
    """Observations in R^d together with the unimodality exponent gamma."""

    points: np.ndarray
    gamma: float

    @classmethod
    def from_points(cls, points, gamma: float) -> "PointCloud":
        arr = np.asarray(points, dtype=np.float64)
        if arr.ndim == 1:
            arr = arr[:, None]
        if arr.ndim != 2 or arr.shape[0] == 0 or arr.shape[1] == 0:
            raise ValueError("points must form a nonempty (n, d) array")
        if not np.all(np.isfinite(arr)):
            raise ValueError("points must be finite")
        if not 0 < gamma < np.inf:
            raise ValueError(f"gamma must be positive and finite, got {gamma}")
        arr = arr.copy()
        arr.setflags(write=False)
        return cls(points=arr, gamma=float(gamma))

    @property
    def n(self) -> int:
        return int(self.points.shape[0])

    @property
    def d(self) -> int:
        return int(self.points.shape[1])


def radial_transform(cloud: PointCloud, theta) -> np.ndarray:
    """Transformed sample {||X_i - theta||_2 ** gamma} of one candidate ``theta`` of
    shape (d,), giving shape (n,); zero exactly at X_i = theta."""
    theta = np.asarray(theta, dtype=np.float64)
    if theta.shape != (cloud.d,):
        raise ValueError(f"candidate theta must have shape ({cloud.d},), got {theta.shape}")
    with np.errstate(over="ignore"):
        return _finite_radii(np.square(cloud.points - theta), cloud.gamma)


def _finite_radii(squares: np.ndarray, gamma: float) -> np.ndarray:
    """:func:`_radii_power` of the rows of the (n, d) ``squares`` summed left to right from
    0.0, as every transform sums them; ``MethodInfeasibleError`` if one overflows to inf."""
    radii = _radii_power(sum(squares.T, 0.0), gamma)
    if np.isinf(radii).any():
        raise MethodInfeasibleError(f"radial transform overflows to inf at gamma {gamma}")
    return radii


def _radii_power(squares: np.ndarray, gamma: float) -> np.ndarray:
    """``sqrt(squares) ** gamma``, in place; nondecreasing, so it commutes with sorting
    bit for bit: ``sqrt`` is correctly rounded, numpy runs ``**= 2.0`` as an exact square,
    and other gammas rely on libm's ``pow`` being monotone, which the tests check."""
    np.sqrt(squares, out=squares)
    squares **= gamma
    return squares


def contains_mode_candidate(
    cloud: PointCloud,
    theta,
    alpha: float,
    algorithm: str = "m1",
) -> bool:
    """True when 0 lies in the univariate set built on the radial transform.

    ``theta`` is one candidate of shape (d,); ``algorithm`` is one of
    ``methods.SCAN_CODES``, the method codes that run with their defaults,
    or ``ValueError`` is raised; an overflowing transform raises ``MethodInfeasibleError``.
    The spacing interval m1 is the default: it needs no sample split, and
    its left tail extension handles a mode sitting at the support boundary 0.
    """
    [hits] = covers([radial_transform(cloud, theta)[None, :]], 0.0, alpha, algorithm)
    return bool(hits[0])


def _cell_centers(lo: float, hi: float, k: int) -> np.ndarray:
    """Centers of the k equal cells that split [lo, hi]."""
    return lo + (hi - lo) / k * (np.arange(k) + 0.5)


@dataclass(frozen=True)
class MembershipGrid:
    """Boolean mask of candidate cells whose centers pass the lift test."""

    box: tuple[tuple[float, float], ...]
    resolution: tuple[int, ...]
    mask: np.ndarray

    def centers(self, axis: int) -> np.ndarray:
        return _cell_centers(*self.box[axis], self.resolution[axis])


def scan_region(
    cloud: PointCloud,
    box,
    resolution,
    alpha: float,
    algorithm: str = "m1",
) -> MembershipGrid:
    """Evaluate the lift test at every cell center of a rectangular grid.

    ``box`` is a per-dimension sequence of finite (lo, hi); ``resolution``
    an int or per-dimension counts.  Restricted to d <= 3 and at most 1e7
    cells.  Cells go block by block along the last axis (index order when one
    block spans it), in chunks of 2**16 // n (at least one) that add their rows'
    squares to each block's squared distances in one broadcast.  The chunks go in
    turn to :func:`methods.covers`, which applies :func:`_radii_power` (``m1`` to
    the order statistics it reads alone, in one level descent for several chunks;
    ``m3``/``m3p`` test a chunk as one batch, ``m2a`` builds each cell's set), and
    each answer fills its chunk's slice of the mask.  An overflowing transform
    raises ``MethodInfeasibleError``, checked once at each point's farthest cell.
    """
    d = cloud.d
    if d > 3:
        raise ValueError("grid scanning is limited to 1, 2, or 3 dimensions")
    box = tuple((float(lo), float(hi)) for lo, hi in box)
    if len(box) != d:
        raise ValueError(f"box has {len(box)} dimensions, cloud has {d}")
    if not np.all(np.isfinite(box)):
        raise ValueError(f"box sides must be finite, got {box}")
    if any(hi <= lo for lo, hi in box):
        raise ValueError("box sides must have positive length")
    counts = (resolution,) * d if np.isscalar(resolution) else tuple(resolution)
    if len(counts) != d or not all(is_count(k) and k >= 1 for k in counts):
        raise ValueError(f"resolution needs a positive integer per dimension, got {resolution!r}")
    resolution = tuple(map(int, counts))
    cells = math.prod(resolution)
    if cells > _MAX_CELLS:
        raise ValueError(f"grid of {cells} cells exceeds the {_MAX_CELLS} cell limit")
    axes = [_cell_centers(lo, hi, k) for (lo, hi), k in zip(box, resolution)]
    with np.errstate(over="ignore"):  # the same sum the scan takes at each point's farthest cell
        far = np.square(cloud.points - np.array([axis[[0, -1]] for axis in axes]).T[:, None])
        _finite_radii(far.max(axis=0), cloud.gamma)
    rows, width, n = math.prod(resolution[:-1]), resolution[-1], cloud.n
    mask = np.empty((rows, width), dtype=bool)
    chunk = max(1, _CHUNK_VALUES // n)  # cells: a block of the last axis by a group of rows
    block, group = min(width, chunk), max(1, chunk // width)
    places = (mask[r : r + group, b : b + block]
              for b in range(0, width, block) for r in range(0, rows, group))

    def chunks():  # the squared distances of the cells of each place, in the same order
        # no sum overflows: none exceeds its point's farthest-cell sum, checked finite above
        for b in range(0, width, block):
            last = np.square(cloud.points[:, -1] - axes[-1][b : b + block, None])
            for r in range(0, rows, group):
                idx = np.unravel_index(np.arange(r, min(r + group, rows)), resolution[:-1] or (1,))
                squares = np.zeros((idx[0].size, 1, n))  # summed left to right from 0.0
                for j in range(d - 1):
                    squares += np.square(cloud.points[:, j] - axes[j][idx[j], None, None])
                yield (squares + last).reshape(-1, n)

    for place, hits in zip(places, covers(chunks(), 0.0, alpha, algorithm,
                                          lambda squares: _radii_power(squares, cloud.gamma))):
        place[...] = hits.reshape(place.shape)
    mask = mask.reshape(resolution)
    mask.setflags(write=False)
    return MembershipGrid(box=box, resolution=resolution, mask=mask)
