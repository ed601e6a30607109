"""Multivariate lift: mode confidence sets for star-unimodal data (method m4).

A d-dimensional distribution is gamma-unimodal about its mode when it can
be written as U**(1/gamma) * Z with U uniform on (0, 1) independent of Z.
For such data the radial transform ||X_i - theta||_2**gamma produces, at
theta equal to the true mode, a univariate sample that is unimodal about
0.  A candidate theta therefore belongs to the lifted confidence set
exactly when 0 belongs to a univariate confidence set built on the
transformed sample; scanning candidates over a grid gives a finite
representation of the region.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .methods import covers

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
_CHUNK_VALUES = 2**15


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
    """Transformed sample {||X_i - theta||_2 ** gamma}; zero exactly at X_i = theta.

    ``theta`` is one candidate of shape (d,), giving shape (n,), or k
    candidates of shape (k, d), giving one row per candidate, (k, n).
    """
    theta = np.asarray(theta, dtype=np.float64)
    if theta.ndim < 2:
        theta = theta.reshape(-1)
    if theta.ndim > 2 or theta.shape[-1] != cloud.d:
        raise ValueError(
            f"candidate points must have shape (d,) or (k, d) with d = {cloud.d}, "
            f"got {theta.shape}"
        )
    # one coordinate at a time: no (k, n, d) temporary.  An overflow gives
    # inf, which the methods' finite-data check reports
    squares = 0.0
    with np.errstate(over="ignore"):
        for j in range(cloud.d):
            squares = squares + np.square(cloud.points[:, j] - theta[..., j, None])
        return np.sqrt(squares) ** cloud.gamma


def contains_mode_candidate(
    cloud: PointCloud,
    theta,
    alpha: float,
    algorithm: str = "m1",
) -> bool:
    """True when 0 lies in the univariate set built on the radial transform.

    ``algorithm`` is a univariate method code (m1, m2a, m3 or m3p), run
    with its defaults; m2 cannot run here, since it needs a bandwidth h.
    The spacing interval m1 is the default: it needs no sample split, and
    its left tail extension handles a mode sitting at the support boundary 0.
    """
    transformed = radial_transform(cloud, theta)
    return bool(covers(transformed[None, :], 0.0, alpha, algorithm)[0])


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

    def rows(self):
        """Yield (center coordinates..., in_set) per cell in index order."""
        axes = [self.centers(i).tolist() for i in range(len(self.resolution))]
        for idx in itertools.product(*(range(k) for k in self.resolution)):
            coords = tuple(axes[i][j] for i, j in enumerate(idx))
            yield coords + (bool(self.mask[idx]),)


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
    cells.  Cells are tested in index order, in chunks of 2**15 // n of
    them (at least one); ``m1`` tests a whole chunk as one batch.
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
    if np.isscalar(resolution):
        resolution = (int(resolution),) * d
    else:
        resolution = tuple(int(k) for k in resolution)
    if len(resolution) != d or any(k < 1 for k in resolution):
        raise ValueError("resolution must give a positive count per dimension")
    cells = int(np.prod(resolution))
    if cells > _MAX_CELLS:
        raise ValueError(f"grid of {cells} cells exceeds the {_MAX_CELLS} cell limit")
    axes = [_cell_centers(lo, hi, k) for (lo, hi), k in zip(box, resolution)]
    mask = np.empty(cells, dtype=bool)
    chunk = max(1, _CHUNK_VALUES // cloud.n)
    for start in range(0, cells, chunk):
        idx = np.unravel_index(np.arange(start, min(start + chunk, cells)), resolution)
        thetas = np.column_stack([axis[i] for axis, i in zip(axes, idx)])
        transformed = radial_transform(cloud, thetas)
        mask[start : start + chunk] = covers(transformed, 0.0, alpha, algorithm)
    mask = mask.reshape(resolution)
    mask.setflags(write=False)
    return MembershipGrid(box=box, resolution=resolution, mask=mask)
