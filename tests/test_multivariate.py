import itertools

import numpy as np
import pytest
from test_spacings import scalar_m1

from modeset import (
    PointCloud,
    RngStream,
    SortedSample,
    compute_confidence_set,
    contains_mode_candidate,
    m1_confidence_interval,
    radial_transform,
    sample_uniform,
    scan_region,
)


def disk_points(stream, n, center=(0.0, 0.0), radius=1.0):
    # uniform on a disk: radius sqrt(U), angle 2*pi*V
    u = sample_uniform(stream, 2 * n)
    r = radius * np.sqrt(u[:n])
    ang = 2.0 * np.pi * u[n:]
    return np.column_stack([center[0] + r * np.cos(ang), center[1] + r * np.sin(ang)])


def test_radial_transform_examples():
    cloud = PointCloud.from_points([[3.0, 4.0], [1.0, 1.0]], gamma=2.0)
    y = radial_transform(cloud, [0.0, 0.0])
    assert y[0] == pytest.approx(25.0, abs=1e-12)  # 5**2
    # zero exactly at a data point
    assert radial_transform(cloud, [1.0, 1.0])[1] == 0.0


def test_radial_transform_1d_gamma1_is_absolute_value():
    cloud = PointCloud.from_points([-2.0, 0.5, 3.0], gamma=1.0)
    y = radial_transform(cloud, [1.0])
    assert np.allclose(y, [3.0, 0.5, 2.0])


def test_radial_transform_dimension_mismatch():
    cloud = PointCloud.from_points([[0.0, 0.0]], gamma=1.0)
    with pytest.raises(ValueError):
        radial_transform(cloud, [1.0, 2.0, 3.0])


@pytest.mark.parametrize("d", [1, 2, 3])
def test_radial_transform_rows_match_single_candidates(d):
    gen = RngStream(70, d).generator()
    pts = gen.normal(size=(300, d))
    thetas = gen.normal(size=(25, d))
    for gamma in (0.5, 1.0, 2.0, 3.7):
        cloud = PointCloud.from_points(pts, gamma)
        rows = radial_transform(cloud, thetas)
        assert rows.shape == (25, 300)
        assert np.array_equal(rows, np.stack([radial_transform(cloud, t) for t in thetas]))
        # the same values as the norm of the difference, bit for bit
        norms = np.stack([np.linalg.norm(cloud.points - t, axis=1) for t in thetas])
        assert np.array_equal(rows, norms**gamma)
    with pytest.raises(ValueError):
        radial_transform(cloud, gen.normal(size=(25, d + 1)))
    with pytest.raises(ValueError):
        radial_transform(cloud, gen.normal(size=(2, 25, d)))


def test_radial_transform_rotation_invariance():
    gen = RngStream(71, 0).generator()
    pts = gen.normal(size=(50, 2))
    theta = np.array([0.3, -0.2])
    ang = 0.6458  # arbitrary rotation about theta
    rot = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
    rotated = (pts - theta) @ rot.T + theta
    a = radial_transform(PointCloud.from_points(pts, 2.0), theta)
    b = radial_transform(PointCloud.from_points(rotated, 2.0), theta)
    assert np.allclose(a, b, atol=1e-9)


def test_membership_scale_consistency_gamma1():
    # scaling data and candidate by an exact power of two leaves the
    # spacing construction's decisions unchanged
    gen = RngStream(72, 0).generator()
    data = gen.normal(size=128)
    cloud = PointCloud.from_points(data, gamma=1.0)
    scaled = PointCloud.from_points(2.0 * data, gamma=1.0)
    for theta in (-0.5, 0.0, 0.4, 2.0):
        a = contains_mode_candidate(cloud, [theta], 0.05)
        b = contains_mode_candidate(scaled, [2.0 * theta], 0.05)
        assert a == b


def test_membership_unrolls_to_univariate_m1():
    data = RngStream(73, 0).generator().normal(size=256)
    cloud = PointCloud.from_points(data, gamma=1.0)
    theta = 0.2
    direct = m1_confidence_interval(
        SortedSample.from_data(np.abs(data - theta)), 0.05
    ).contains(0.0)
    assert contains_mode_candidate(cloud, [theta], 0.05) == direct


def test_scan_region_single_cell_matches_membership():
    cloud = PointCloud.from_points(disk_points(RngStream(74, 0), 300), gamma=2.0)
    box = [(-0.2, 0.2), (-0.2, 0.2)]
    grid = scan_region(cloud, box, 1, 0.05)
    assert grid.mask.shape == (1, 1)
    assert grid.mask[0, 0] == contains_mode_candidate(cloud, [0.0, 0.0], 0.05)


def test_scan_region_center_cell_detected():
    cloud = PointCloud.from_points(disk_points(RngStream(75, 0), 1000), gamma=2.0)
    grid = scan_region(cloud, [(-1.1, 1.1), (-1.1, 1.1)], 9, 0.05)
    assert grid.mask[4, 4]  # cell containing the true center
    rows = list(grid.rows())
    assert len(rows) == 81
    assert rows[4 * 9 + 4][2]  # same cell through the row iterator


def test_scan_region_empty_mask_reported():
    # candidates far from the data: the transformed sample stays away from
    # 0, so no cell passes; empty masks are a result, not an error
    cloud = PointCloud.from_points(
        disk_points(RngStream(76, 0), 500, center=(25.0, 25.0)), gamma=2.0
    )
    grid = scan_region(cloud, [(-1.0, 1.0), (-1.0, 1.0)], 4, 0.05)
    assert not grid.mask.any()


def test_scan_region_guards():
    cloud2 = PointCloud.from_points(disk_points(RngStream(77, 0), 100), gamma=2.0)
    with pytest.raises(ValueError):
        scan_region(cloud2, [(-1, 1), (-1, 1)], 4000, 0.05)  # 1.6e7 cells
    gen = RngStream(78, 0).generator()
    cloud4 = PointCloud.from_points(gen.normal(size=(50, 4)), gamma=2.0)
    with pytest.raises(ValueError):
        scan_region(cloud4, [(-1, 1)] * 4, 4, 0.05)
    with pytest.raises(ValueError):
        scan_region(cloud2, [(-1, 1)], 4, 0.05)  # box dimension mismatch
    with pytest.raises(ValueError):
        scan_region(cloud2, [(-1, 1), (1, -1)], 4, 0.05)
    for side in ((np.nan, 1.0), (0.0, np.inf)):
        with pytest.raises(ValueError, match="box sides must be finite"):
            scan_region(cloud2, [side, (0.0, 1.0)], 4, 0.05)


def test_point_cloud_validation():
    with pytest.raises(ValueError):
        PointCloud.from_points([[1.0, np.nan]], gamma=2.0)
    with pytest.raises(ValueError):
        PointCloud.from_points([[1.0, 2.0]], gamma=0.0)
    with pytest.raises(ValueError, match="finite"):
        PointCloud.from_points([[1.0, 2.0]], gamma=np.inf)
    with pytest.raises(ValueError):
        PointCloud.from_points(np.empty((0, 2)), gamma=1.0)


def test_disk_transform_is_uniform():
    # for uniform-on-disk data, ||X - center||^2 is Uniform(0,1): the
    # distributional fact behind the coverage example, checked by KS
    pts = disk_points(RngStream(79, 0), 20000)
    y = radial_transform(PointCloud.from_points(pts, 2.0), [0.0, 0.0])
    u = np.sort(y)
    i = np.arange(1, u.size + 1)
    ks = max(np.max(i / u.size - u), np.max(u - (i - 1) / u.size))
    assert ks <= 1.63 / np.sqrt(u.size)  # 1% KS band


def test_scan_region_deterministic():
    cloud = PointCloud.from_points(disk_points(RngStream(80, 0), 400), gamma=2.0)
    box = [(-1.0, 1.0), (-1.0, 1.0)]
    a = scan_region(cloud, box, 5, 0.05)
    b = scan_region(cloud, box, 5, 0.05)
    assert np.array_equal(a.mask, b.mask)
    assert a.box == b.box and a.resolution == b.resolution


def _cell_oracle(cloud, grid, alpha):
    """Per-cell loop of the scalar m1 descent over each centre's transform."""
    axes = [grid.centers(i) for i in range(cloud.d)]
    want = np.zeros(grid.resolution, dtype=bool)
    for idx in itertools.product(*(range(k) for k in grid.resolution)):
        theta = [axes[i][j] for i, j in enumerate(idx)]
        lo, hi = scalar_m1(np.sort(radial_transform(cloud, theta)), alpha)
        want[idx] = lo <= 0.0 <= hi
    return want


@pytest.mark.parametrize(
    "n, resolution",
    # chunks of 2**15 // n cells: 163, 109 and 218 cells, none dividing the grid
    [(200, (400,)), (300, (37, 5)), (150, (9, 7, 5))],
)
def test_scan_region_matches_per_cell_oracle(n, resolution):
    d = len(resolution)
    gen = RngStream(81, d).generator()
    cloud = PointCloud.from_points(gen.normal(size=(n, d)), gamma=2.0 if d > 1 else 1.0)
    box = [(-2.0, 2.5)] * d
    grid = scan_region(cloud, box, resolution, 0.05)
    want = _cell_oracle(cloud, grid, 0.05)
    assert np.array_equal(grid.mask, want)
    assert want.any() and not want.all()


def test_scan_region_m2a_matches_per_cell_sets():
    cloud = PointCloud.from_points(disk_points(RngStream(82, 0), 200), gamma=2.0)
    grid = scan_region(cloud, [(-0.6, 0.6), (-0.6, 0.6)], (3, 2), 0.05, "m2a")
    for i, j in itertools.product(range(3), range(2)):
        theta = [grid.centers(0)[i], grid.centers(1)[j]]
        cs = compute_confidence_set(radial_transform(cloud, theta), 0.05, "m2a")
        assert grid.mask[i, j] == cs.contains(0.0)


def test_scan_region_rejects_an_overflowing_transform():
    # finite points whose squared distances overflow to inf
    cloud = PointCloud.from_points(np.full((100, 2), 1e200), gamma=2.0)
    with pytest.raises(ValueError, match="finite"):
        scan_region(cloud, [(-1.0, 1.0), (-1.0, 1.0)], 2, 0.05)
    with pytest.raises(ValueError, match="finite"):
        contains_mode_candidate(cloud, [0.0, 0.0], 0.05)
