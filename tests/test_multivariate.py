import itertools
import re
import tracemalloc

import numpy as np
import pytest
from test_spacings import scalar_m1

from modeset import (
    MethodInfeasibleError,
    PointCloud,
    RngStream,
    compute_confidence_set,
    contains_mode_candidate,
    radial_transform,
    run_method,
    sample_uniform,
    scan_region,
)
from modeset.multivariate import _CHUNK_VALUES, _cell_centers, _radii_power
from modeset.spacings import build_plan, m1_bounds


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
        for theta in thetas:
            # the same values as the norm of the difference, bit for bit
            norms = np.linalg.norm(cloud.points - theta, axis=1)
            assert np.array_equal(radial_transform(cloud, theta), norms**gamma)
    for shape in ((d + 1,), (25, d), (2, 25, d), ()):
        with pytest.raises(ValueError, match=re.escape(f"must have shape ({d},), got {shape}")):
            radial_transform(cloud, gen.normal(size=shape))


@pytest.mark.parametrize("gamma", [0.5, 0.7, 1.0, 2.0, 3.3, 3.7])
def test_radii_power_is_nondecreasing_so_it_commutes_with_sorting(gamma):
    # covers raises only the order statistics m1 reads, which is exact only if
    # sqrt(s) ** gamma never decreases from one double to the next
    starts = np.logspace(-30, 30, 1000).view(np.int64)
    squares = (starts[:, None] + np.arange(1001)).view(np.float64)  # runs of adjacent doubles
    assert np.array_equal(np.nextafter(squares[:, :-1], np.inf), squares[:, 1:])
    radii = _radii_power(squares.ravel(), gamma)
    assert (np.diff(radii) >= 0).all() and np.isfinite(radii).all()
    gen = RngStream(75, 0).generator()
    for _ in range(20):
        points, theta = gen.normal(size=(1000, 2)), gen.normal(size=2)
        for s in (np.square(points - theta).sum(axis=1), np.exp(40.0 * points[:, 0]),
                  np.round(np.square(points[:, 0] - theta[0]), 2)):  # wide, and tied
            assert np.array_equal(_radii_power(np.sort(s), gamma).view(np.int64),
                                  np.sort(_radii_power(s.copy(), gamma)).view(np.int64))


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
    direct = run_method(np.abs(data - theta), 0.05, "m1").confidence_set.contains(0.0)
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
    assert grid.mask.shape == (9, 9)
    assert grid.mask.ravel()[4 * 9 + 4]  # same cell in the row-major order mode2d prints


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


@pytest.mark.parametrize("resolution", [2.7, (3.9, 1.5), True, (4, True), (4, "4"), (4, 0)])
def test_scan_region_rejects_counts_that_are_not_positive_integers(resolution):
    cloud = PointCloud.from_points(disk_points(RngStream(77, 0), 100), gamma=2.0)
    message = f"resolution needs a positive integer per dimension, got {resolution!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        scan_region(cloud, [(-1, 1), (-1, 1)], resolution, 0.05)
    grid = scan_region(cloud, [(-1, 1), (-1, 1)], (np.int64(3), np.int32(2)), 0.05)
    assert grid.resolution == (3, 2) and all(type(k) is int for k in grid.resolution)


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
    # chunks of 2**16 // n cells: 327, 218, 436 and 65, so (400,) splits into
    # blocks of 327 and 73 centres and each of the next two fits one chunk;
    # at the benchmarked shape, 64-cell blocks feed four chunks to each m1 descent
    [(200, (400,)), (300, (37, 5)), (150, (9, 7, 5)), (1000, (64, 64))],
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


@pytest.mark.parametrize(
    "n, resolution, gamma, half",
    [
        # 65-cell chunks: the last axis splits into blocks of 65, 65 and 20
        # centres, or of 65 and 5 under each of nine leading rows
        (1000, (3, 150), 2.0, 3.0),
        (1000, (3, 3, 70), 0.7, 0.05),
        # 109-cell chunks of five-cell rows: groups of 21 rows, then 16
        (600, (37, 5), 3.3, 6.0),
        (600, (37, 5), 0.7, 0.05),
        # five levels; 16-cell chunks: blocks of 16, 16, 16 and 2 centres
        # under each of three rows.  An m1 descent holds 130 rows, so the
        # first takes eight chunks and the last, partial one the other four;
        # cells leave the descent at each of the levels 4 to 1
        (4000, (3, 50), 0.7, 0.05),
    ],
)
def test_scan_region_blocks_and_row_groups_match_per_cell_oracle(n, resolution, gamma, half):
    d = len(resolution)
    gen = RngStream(86, d).generator()
    # gamma-unimodal about 0: U**(1/gamma) times a standard normal point
    pts = gen.uniform(size=(n, 1)) ** (1.0 / gamma) * gen.normal(size=(n, d))
    cloud = PointCloud.from_points(pts, gamma)
    grid = scan_region(cloud, [(-half, half)] * d, resolution, 0.05)
    want = _cell_oracle(cloud, grid, 0.05)
    assert np.array_equal(grid.mask, want)
    assert want.any() and not want.all()


def _leaves_at_the_coarsest_level(v, alpha, x):
    """Whether the coarsest run of the m1 descent of the sorted sample ``v``,
    found as ``scalar_m1`` finds it, settles that the interval misses ``x``."""
    plan = build_plan(v.size, alpha)
    w = 1 << (plan.b_max + plan.s_n)
    pts = v[: plan.n_b[plan.b_max] * w + 1 : w]
    widths = np.diff(pts)
    bound = plan.h_b[plan.b_max] * widths.min()
    left = right = int(np.argmin(widths))
    while left > 0 and widths[left - 1] <= bound:
        left -= 1
    while right < widths.size - 1 and widths[right + 1] <= bound:
        right += 1
    return (left > 0 and pts[left] > x) or (right < widths.size - 1 and pts[right + 1] < x)


@pytest.mark.parametrize(
    "seed, tied, early",
    # seed 5: the one tied cell has a coarsest run that settles its interval
    # misses 0, so only the finest-block guard keeps it in the descent to
    # the level that flags it
    [(5, 1, 1), (6, 3, 1), (8, 2, 0), (0, 0, 0)],
)
def test_m1_scan_of_a_rounded_cloud_is_tied_exactly_when_a_cell_is(seed, tied, early):
    # points on a 0.1 grid share radii, so some cells' transforms hold
    # zero-width blocks; the per-cell m1_bounds oracle says which are tied
    points = np.round(RngStream(89, seed).generator().normal(size=(1000, 2)), 1)
    cloud = PointCloud.from_points(points, 2.0)
    centers = _cell_centers(-2.5, 2.5, 4)
    flagged = []
    for theta in itertools.product(centers, centers):
        v = np.sort(radial_transform(cloud, theta))
        if m1_bounds(v[None, :], 0.05)[2][0]:
            flagged.append(_leaves_at_the_coarsest_level(v, 0.05, 0.0))
    assert (len(flagged), sum(flagged)) == (tied, early)
    if flagged:
        with pytest.raises(MethodInfeasibleError, match="^tied data"):
            scan_region(cloud, [(-2.5, 2.5)] * 2, 4, 0.05)
    else:
        assert scan_region(cloud, [(-2.5, 2.5)] * 2, 4, 0.05).mask.any()


def test_scan_region_memory_stays_within_a_few_chunks():
    # no array but the block's squared distances of the last axis and the m1
    # order statistics covers holds for one descent (at most 2**15 values)
    # outlives its chunk, and none holds more than a chunk of 2**16 values, so
    # the peak does not grow with the resolution
    gen = RngStream(87, 0).generator()
    for d, resolution in ((1, (5000,)), (2, (4, 3000))):
        cloud = PointCloud.from_points(gen.normal(size=(1000, d)), gamma=2.0)
        tracemalloc.start()
        try:
            grid = scan_region(cloud, [(-3.0, 3.0)] * d, resolution, 0.05)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        kept = grid.mask.nbytes + 8 * sum(resolution)  # the mask and the axes' centres
        assert peak < 8 * 8 * _CHUNK_VALUES + kept


def test_scan_region_cell_limit_is_exact():
    # 2**22 * 2**21 * 2**21 = 2**64 cells, which a 64-bit product wraps to 0
    cloud = PointCloud.from_points(RngStream(88, 0).generator().normal(size=(50, 3)), 2.0)
    with pytest.raises(ValueError, match=f"grid of {2**64} cells exceeds the 10000000 cell"):
        scan_region(cloud, [(-1.0, 1.0)] * 3, (2**22, 2**21, 2**21), 0.05)


def test_scan_region_m2a_matches_per_cell_sets():
    cloud = PointCloud.from_points(disk_points(RngStream(82, 0), 200), gamma=2.0)
    grid = scan_region(cloud, [(-0.6, 0.6), (-0.6, 0.6)], (3, 2), 0.05, "m2a")
    for i, j in itertools.product(range(3), range(2)):
        theta = [grid.centers(0)[i], grid.centers(1)[j]]
        cs = compute_confidence_set(radial_transform(cloud, theta), 0.05, "m2a")
        assert grid.mask[i, j] == cs.contains(0.0)


@pytest.mark.parametrize("method, alpha", [("m3", 0.05), ("m3p", 0.9)])
def test_scan_region_m3_m3p_match_per_cell_sets(method, alpha):
    cloud = PointCloud.from_points(disk_points(RngStream(83, 0), 300), gamma=2.0)
    grid = scan_region(cloud, [(-6.0, 6.0), (-6.0, 6.0)], (8, 8), alpha, method)
    for i, j in itertools.product(range(8), range(8)):
        theta = [grid.centers(0)[i], grid.centers(1)[j]]
        cs = compute_confidence_set(radial_transform(cloud, theta), alpha, method)
        assert grid.mask[i, j] == cs.contains(0.0)
    assert grid.mask.any() and not grid.mask.all()


@pytest.mark.parametrize("method, alpha", [("m2a", 0.05), ("m3", 0.05), ("m3p", 0.9)])
def test_scan_region_tests_each_cells_radii_at_a_gamma_other_than_2(method, alpha):
    # at gamma 2 a cell's radii and its squared distances nearly agree; here they do not
    cloud = PointCloud.from_points(disk_points(RngStream(84, 0), 300), gamma=3.3)
    grid = scan_region(cloud, [(-12.0, 12.0), (-12.0, 12.0)], (5, 4), alpha, method)
    for i, j in itertools.product(range(5), range(4)):
        theta = [grid.centers(0)[i], grid.centers(1)[j]]
        cs = compute_confidence_set(radial_transform(cloud, theta), alpha, method)
        assert grid.mask[i, j] == cs.contains(0.0)
    assert grid.mask.any() and not grid.mask.all()


def test_scan_region_rejects_an_overflowing_transform():
    # finite points whose squared distances overflow to inf: the sample is
    # well formed, so the lift is infeasible rather than the data invalid
    cloud = PointCloud.from_points(np.full((100, 2), 1e200), gamma=2.0)
    with pytest.raises(MethodInfeasibleError, match="^radial transform overflows"):
        scan_region(cloud, [(-1.0, 1.0), (-1.0, 1.0)], 2, 0.05)
    with pytest.raises(MethodInfeasibleError, match="^radial transform overflows"):
        contains_mode_candidate(cloud, [0.0, 0.0], 0.05)


def test_scan_overflow_check_fires_exactly_when_some_cell_overflows():
    # the scan checks each point's farthest cell once; that must overflow
    # exactly when radial_transform overflows at some cell centre
    gen = np.random.default_rng(91)
    fired = []
    for _ in range(150):
        d = int(gen.integers(1, 4))
        scale = 10.0 ** gen.uniform(0, 160)
        cloud = PointCloud.from_points(scale * gen.normal(size=(40, d)), 10 ** gen.uniform(-1, 2.7))
        box = [tuple(np.sort(scale * gen.normal(size=2)).tolist()) for _ in range(d)]
        resolution = gen.integers(1, 5, size=d).tolist()
        axes = [_cell_centers(lo, hi, k) for (lo, hi), k in zip(box, resolution)]
        brute = False
        for theta in itertools.product(*axes):
            try:
                radial_transform(cloud, np.array(theta))
            except MethodInfeasibleError:
                brute = True
        try:
            scan_region(cloud, box, resolution, 0.05)
            fired.append(False)
        except MethodInfeasibleError as exc:
            fired.append(str(exc).startswith("radial transform overflows"))
        assert fired[-1] == brute, (box, resolution, cloud.gamma)
    assert 30 <= sum(fired) <= 120


@pytest.mark.parametrize("method", ["m2", "m9"])
def test_scan_rejects_methods_that_cannot_run_with_defaults(method):
    cloud = PointCloud.from_points(disk_points(RngStream(84, 0), 100), gamma=2.0)
    with pytest.raises(ValueError, match="m1', 'm2a', 'm3', 'm3p"):
        scan_region(cloud, [(-1.0, 1.0), (-1.0, 1.0)], 2, 0.05, method)
    with pytest.raises(ValueError, match="m1', 'm2a', 'm3', 'm3p"):
        contains_mode_candidate(cloud, [0.0, 0.0], 0.05, method)


@pytest.mark.parametrize("method", ["m1", "m2a", "m3"])
@pytest.mark.parametrize("theta", [[[0.0, 0.0]], [0.0], [0.0, 0.0, 0.0], 0.0])
def test_membership_rejects_anything_but_one_candidate(theta, method):
    # a batch of one, or the wrong dimension, is named by its shape before
    # any method runs
    cloud = PointCloud.from_points(disk_points(RngStream(85, 0), 100), gamma=2.0)
    with pytest.raises(ValueError, match=r"shape \(2,\), got " + re.escape(str(np.shape(theta)))):
        contains_mode_candidate(cloud, theta, 0.05, method)


def test_scan_region_m3_pilot_tie_in_some_cells_raises():
    # rounded points repeat, so in some cells an evaluation point's
    # transform equals the pilot's; the first cell is not one of them
    pts = np.round(RngStream(95, 0).generator().normal(size=(300, 2)), 1)
    cloud = PointCloud.from_points(pts, gamma=2.0)
    box = [(-2.0, 2.0), (-2.0, 2.0)]
    contains_mode_candidate(cloud, [-1.5, -1.5], 0.05, "m3")  # no tie: no error
    with pytest.raises(MethodInfeasibleError, match="coincides"):
        contains_mode_candidate(cloud, [-1.5, -0.5], 0.05, "m3")
    with pytest.raises(MethodInfeasibleError, match="coincides"):
        scan_region(cloud, box, 4, 0.05, "m3")
