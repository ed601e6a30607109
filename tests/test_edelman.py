import math

import numpy as np
import pytest

from modeset import (
    FBetaDensity,
    MethodInfeasibleError,
    RngStream,
    run_method,
)
from modeset.core import split_and_pilot
from modeset.edelman import (
    _concentration_set,
    concentration_statistic,
)
from modeset.numerics import qchisq


def test_single_interval_monte_carlo_coverage():
    x = FBetaDensity(1.0).sample(RngStream(61, 0), 10**4)
    a, alpha = 0.3, 0.1
    lo = x - (2.0 / alpha - 1.0) * np.abs(x - a)
    hi = x + (2.0 / alpha + 1.0) * np.abs(x - a)
    coverage = np.mean((lo <= 0.0) & (0.0 <= hi))
    assert coverage >= 1 - alpha


def _pvalues(points, pilot, theta):
    return 2.0 / (1.0 + np.abs((points - theta) / (points - pilot)))


def test_pvalue_range_and_pilot_unit():
    points = FBetaDensity(1.0).sample(RngStream(62, 0), 200)
    pilot = 0.123
    for theta in (-0.5, 0.0, 0.7, 10.0):
        p = _pvalues(points, pilot, theta)
        assert np.all(p > 0.0) and np.all(p <= 2.0)
    assert np.allclose(_pvalues(points, pilot, pilot), 1.0)


def test_combination_statistic_zero_at_pilot_negative_terms_allowed():
    points = np.array([0.4, 1.3, -0.2])
    pilot = 0.1
    assert concentration_statistic(points, pilot, pilot)[0] == pytest.approx(0.0)
    # a point equal to theta contributes p = 2, a negative log term (uncapped)
    single = concentration_statistic(np.array([0.7]), pilot, 0.7)[0]
    assert single == pytest.approx(-2.0 * math.log(2.0), abs=1e-12)


def test_markov_statistic_hand_value():
    # points {1, 2}, pilot 0, rho 3 at theta = 0:
    # (1/2)(1/2)[|1|^{1/3}/1 + |2|^{1/3}/2^{1/3}] = 0.5
    val = concentration_statistic(np.array([1.0, 2.0]), 0.0, 0.0, 3.0)[0]
    assert val == pytest.approx(0.5, abs=1e-12)
    assert val < 1.0 / 0.5


def test_markov_statistic_one_at_pilot():
    points = np.array([0.5, 1.5, 2.5])
    # ratio is exactly 1 at the pilot, so the statistic equals the prefactor
    for rho in (1.5, 2.0, 4.0):
        val = concentration_statistic(points, 0.0, 0.0, rho)[0]
        assert val == pytest.approx((rho - 1.0) / (rho + 1.0), abs=1e-12)


def test_statistic_rows_match_one_row_calls_bit_for_bit():
    # 4500 thetas on 3 x 2000 points run in chunks of 666 (matrix) and
    # 2000 (one row) thetas: the chunking must not change any value
    rng = np.random.default_rng(73)
    points = rng.standard_normal((3, 2000))
    pilots = np.array([0.05, -0.1, 0.2])
    thetas = np.linspace(-4.0, 4.0, 4500)
    for rho in (None, 2.0, 3.5):
        rows = concentration_statistic(points, pilots, thetas, rho)
        assert rows.shape == (3, 4500)
        for row, pilot, got in zip(points, pilots, rows):
            assert np.array_equal(got, concentration_statistic(row, pilot, thetas, rho))


def test_m3_pilot_always_in_set():
    for seed in range(5):
        data = FBetaDensity(1.0).sample(RngStream(63, seed), 200)
        stream = RngStream(64, seed)
        cs = run_method(data, 0.05, "m3", split_stream=stream).confidence_set
        pilot = split_and_pilot(data[None, :], stream)[1][0]
        assert cs.contains(pilot)
        assert not cs.is_empty


def test_m3_grid_oracle_equivalence_small_n():
    # dense-grid membership via the literal p-value formula
    rng = np.random.default_rng(88)
    for inst in range(6):
        n = int(rng.integers(16, 31))
        data = np.where(
            rng.random(n) < 0.7, rng.normal(0, 1, n), rng.normal(5, 0.4, n)
        )
        stream = RngStream(65, inst)
        alpha = 0.5
        cs = run_method(data, alpha, "m3", split_stream=stream).confidence_set
        points, pilots = split_and_pilot(data[None, :], stream)
        pts, pilot = points[0], pilots[0]
        cutoff = qchisq(1 - alpha, 2 * pts.size)
        hull_lo, hull_hi = cs.hull()
        w = hull_hi - hull_lo
        # irrational-ish margins keep grid nodes off the refined boundaries
        grid = np.linspace(hull_lo - 0.4871234 * w, hull_hi + 0.5128766 * w, 200_001)
        pv = 2.0 / (1.0 + np.abs((pts[None, :] - grid[:, None]) / (pts - pilot)[None, :]))
        want = -2.0 * np.log(pv).sum(axis=1) < cutoff
        got = np.zeros(grid.size, dtype=bool)
        for lo, hi in cs.intervals:
            got |= (grid >= lo) & (grid <= hi)
        assert not np.any(want != got)


def test_m3prime_grid_oracle_equivalence_small_n():
    rng = np.random.default_rng(89)
    for inst in range(4):
        n = int(rng.integers(16, 31))
        data = rng.normal(0, 1, n)
        stream = RngStream(66, inst)
        alpha, rho = 0.9, 2.0
        cs = run_method(data, alpha, "m3p", rho=rho, split_stream=stream).confidence_set
        points, pilots = split_and_pilot(data[None, :], stream)
        pts, pilot = points[0], pilots[0]
        hull_lo, hull_hi = cs.hull()
        w = hull_hi - hull_lo
        grid = np.linspace(hull_lo - 0.4871234 * w, hull_hi + 0.5128766 * w, 200_001)
        ratio = np.abs((pts[None, :] - grid[:, None]) / (pts - pilot)[None, :])
        stat = (rho - 1) / (rho + 1) / pts.size * np.sqrt(ratio).sum(axis=1)
        want = stat < 1.0 / alpha
        got = np.zeros(grid.size, dtype=bool)
        for lo, hi in cs.intervals:
            got |= (grid >= lo) & (grid <= hi)
        assert not np.any(want != got)


def _literal_statistic(method, pts, pilot, thetas, rho=2.0):
    # -2 sum log p_i for m3, the dampened-ratio mean for m3p, written out
    ratio = np.abs((pts[None, :] - thetas[:, None]) / (pts - pilot)[None, :])
    if method == "m3":
        return -2.0 * np.log(2.0 / (1.0 + ratio)).sum(axis=1)
    return (rho - 1.0) / (rho + 1.0) * (ratio ** (1.0 / rho)).mean(axis=1)


@pytest.mark.parametrize("method", ["m3", "m3p"])
def test_literal_oracle_at_n_in_the_hundreds(method):
    rng = np.random.default_rng(90 if method == "m3" else 91)
    for inst in range(3):
        n = int(rng.integers(200, 601))
        data = np.where(rng.random(n) < 0.7, rng.normal(0, 1, n), rng.normal(5, 0.4, n))
        alpha = float(rng.uniform(0.05, 0.9))
        stream = RngStream(92, inst)
        cs = run_method(data, alpha, method, split_stream=stream).confidence_set
        points, pilots = split_and_pilot(data[None, :], stream)
        pts, pilot = points[0], pilots[0]
        cutoff = qchisq(1 - alpha, 2 * pts.size) if method == "m3" else 1.0 / alpha
        span = data.max() - data.min()
        hull_lo, hull_hi = cs.hull()
        w = hull_hi - hull_lo
        ends = np.array(cs.intervals).ravel()
        # a coarse grid around the set, and a fine one across every
        # endpoint, kept 1e-9 of the data range clear of it
        fine = (ends[:, None] + span * 1e-6 * np.linspace(-1.0, 1.0, 402)).ravel()
        fine = fine[np.abs(fine[:, None] - ends[None, :]).min(axis=1) > 1e-9 * span]
        grid = np.concatenate([
            np.linspace(hull_lo - 0.4871234 * w, hull_hi + 0.5128766 * w, 20_001),
            fine,
        ])
        want = _literal_statistic(method, pts, pilot, grid) < cutoff
        got = np.array([cs.contains(t) for t in grid])
        assert not np.any(want != got), (inst, n, alpha)


def test_m3prime_excludes_a_narrow_excursion():
    # Found by a seeded search (normal base, tight clusters, a pilot near
    # 0, alpha 0.9, rho 2) for sets that a 4096-point scan grid got wrong:
    # the statistic reaches 1/alpha on a piece about 4e-4 wide, where that
    # grid's step over the bracket is at least 4.5e-3, so the grid kept
    # [-1.2204471, 1.4795325] as one interval.
    pts = np.array([
        -1.6505386466606595, -1.2204322081854682, -0.5084124404153134,
        -0.36994614149655514, -0.15914534586815512, -0.029567422579044402,
        -0.0019199106717273208, 0.02134763741305343, 0.06197312801892848,
        0.3573565176584669, 0.3827434231368509, 0.9879616230875433,
        1.1002760614268612, 1.1565242079086742, 1.3436134120492937,
        1.5998172616315662, 2.4550136130315776, 2.455459017821781,
        2.4580733210890866, 2.4614119122521307, 2.46669398637533,
        4.427537997915916, 4.427540635583463, 4.427551037127661,
        4.42755575045498, 4.4275617835931085, 4.427566300521436,
        4.4275668072742365, 4.427573806406469, 4.427577552348852,
    ])
    pilot = -0.0024407155460779905
    alpha = 0.9
    cs = _concentration_set(pts, pilot, alpha, 2.0)
    assert len(cs.intervals) == 2
    (lo, gap_lo), (gap_hi, hi) = cs.intervals
    assert 3e-4 < gap_hi - gap_lo < 5e-4
    inner = np.linspace(gap_lo, gap_hi, 1001)[1:-1]
    assert np.all(_literal_statistic("m3p", pts, pilot, inner) >= 1.0 / alpha)
    # the literal statistic agrees with the set around the whole hull
    grid = np.linspace(lo - 1.0, hi + 1.0, 200_001)
    grid = grid[np.abs(grid[:, None] - np.array([lo, gap_lo, gap_hi, hi])).min(axis=1) > 1e-9]
    want = _literal_statistic("m3p", pts, pilot, grid) < 1.0 / alpha
    got = np.array([cs.contains(t) for t in grid])
    assert not np.any(want != got)


def test_m3prime_rho_validation_and_small_rho_blowup():
    data = FBetaDensity(1.0).sample(RngStream(67, 0), 200)
    with pytest.raises(ValueError, match="rho must exceed 1"):
        run_method(data, 0.05, "m3p", rho=1.0)
    with pytest.raises(ValueError, match="finite"):
        run_method(data, 0.05, "m3p", rho=math.inf)
    stream = RngStream(68, 0)
    points, pilots = split_and_pilot(data[None, :], stream)
    span = data.max() - data.min()
    # the statistic is (rho-1)/(rho+1) times a mean that stays finite as
    # rho -> 1, so it falls below the cutoff 1/alpha ever farther out
    for rho, k in ((1.01, 3.0), (1.001, 30.0)):
        far = pilots[0] + k * span * np.array([-1.0, 1.0])
        assert np.all(concentration_statistic(points[0], pilots[0], far, rho=rho) < 1 / 0.5)
        res = run_method(data, 0.5, "m3p", rho=rho, split_stream=stream)
        assert res.pilot == pilots[0]
        assert all(res.confidence_set.contains(t) for t in far)


def test_m3prime_large_rho_gives_the_whole_line():
    # at rho = 50 the statistic grows too slowly for the scan to bracket
    # the set; the whole line contains it
    data = RngStream(69, 0).generator().normal(size=200)
    whole = run_method(data, 0.05, "m3p", rho=50.0).confidence_set
    assert whole.intervals == ((-math.inf, math.inf),)
    lo, hi = run_method(data, 0.05, "m3p", rho=30.0).confidence_set.hull()
    assert math.isfinite(lo) and math.isfinite(hi)


def test_m3prime_overflowing_bracket_gives_the_whole_line():
    # finite data near 1e300: the bracket end overflows to -inf at rho 30
    # before the statistic clears the cutoff
    data = np.random.default_rng(1).normal(size=200) * 1e300
    whole = run_method(data, 0.05, "m3p", rho=30.0).confidence_set
    lo, hi = run_method(data, 0.05, "m3").confidence_set.hull()
    assert whole.intervals == ((-math.inf, math.inf),)
    assert -1e301 < lo < hi < 1e301


def test_m3_rejects_pilot_collision():
    data = np.full(20, 5.0)
    with pytest.raises(MethodInfeasibleError, match="coincides"):
        run_method(data, 0.05, "m3", split_stream=RngStream(69, 0))


def test_m3_statistical_coverage_smoke():
    covered = 0
    reps = 40
    for rep in range(reps):
        data = FBetaDensity(1.0).sample(RngStream(70, 2 * rep), 400)
        stream = RngStream(70, 2 * rep + 1)
        cs = run_method(data, 0.05, "m3", split_stream=stream).confidence_set
        covered += cs.contains(0.0)
    assert covered / reps >= 0.95 - 2 * math.sqrt(0.05 * 0.95 / reps)
