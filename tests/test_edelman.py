import math

import numpy as np
import pytest

from modeset import (
    FBetaDensity,
    MethodInfeasibleError,
    RngStream,
    run_method,
)
from modeset.core import split_sample, venter_pilot
from modeset.edelman import (
    edelman_single_interval,
    fisher_combination_statistic,
    markov_ratio_statistic,
)
from modeset.numerics import qchisq


def test_single_interval_degenerate_at_anchor():
    cs = edelman_single_interval(2.0, 2.0, 0.3)
    assert cs.intervals == ((2.0, 2.0),)
    assert cs.width == 0.0


def test_single_interval_printed_coefficients():
    # x=1, a=0, alpha=0.5: coefficients 2/alpha -/+ 1 give [1-3, 1+5]
    cs = edelman_single_interval(1.0, 0.0, 0.5)
    assert cs.intervals == ((-2.0, 6.0),)


def test_single_interval_alpha_validation():
    with pytest.raises(ValueError):
        edelman_single_interval(1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        edelman_single_interval(1.0, 0.0, 1.0)


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
    assert fisher_combination_statistic(points, pilot, pilot)[0] == pytest.approx(0.0)
    # a point equal to theta contributes p = 2, a negative log term (uncapped)
    single = fisher_combination_statistic(np.array([0.7]), pilot, 0.7)[0]
    assert single == pytest.approx(-2.0 * math.log(2.0), abs=1e-12)


def test_markov_statistic_hand_value():
    # points {1, 2}, pilot 0, rho 3 at theta = 0:
    # (1/2)(1/2)[|1|^{1/3}/1 + |2|^{1/3}/2^{1/3}] = 0.5
    val = markov_ratio_statistic(np.array([1.0, 2.0]), 0.0, 3.0, 0.0)[0]
    assert val == pytest.approx(0.5, abs=1e-12)
    assert val < 1.0 / 0.5


def test_markov_statistic_one_at_pilot():
    points = np.array([0.5, 1.5, 2.5])
    # ratio is exactly 1 at the pilot, so the statistic equals the prefactor
    for rho in (1.5, 2.0, 4.0):
        val = markov_ratio_statistic(points, 0.0, rho, 0.0)[0]
        assert val == pytest.approx((rho - 1.0) / (rho + 1.0), abs=1e-12)


def test_m3_pilot_always_in_set():
    for seed in range(5):
        data = FBetaDensity(1.0).sample(RngStream(63, seed), 200)
        stream = RngStream(64, seed)
        cs = run_method(data, 0.05, "m3", split_stream=stream).confidence_set
        split = split_sample(data, stream)
        pilot = venter_pilot(split.s1)
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
        split = split_sample(data, stream)
        pilot = venter_pilot(split.s1)
        pts = split.s2.values
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
        split = split_sample(data, stream)
        pilot = venter_pilot(split.s1)
        pts = split.s2.values
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


def test_m3prime_rho_validation_and_small_rho_blowup():
    data = FBetaDensity(1.0).sample(RngStream(67, 0), 200)
    with pytest.raises(ValueError, match="rho must exceed 1"):
        run_method(data, 0.05, "m3p", rho=1.0)
    with pytest.raises(ValueError, match="finite"):
        run_method(data, 0.05, "m3p", rho=math.inf)
    stream = RngStream(68, 0)
    narrow = run_method(data, 0.5, "m3p", rho=3.0, split_stream=stream).confidence_set
    wide = run_method(data, 0.5, "m3p", rho=1.01, split_stream=stream).confidence_set
    span = data.max() - data.min()
    # prefactor (rho-1)/(rho+1) -> 0: the set swallows the whole scan scale
    assert wide.width > 20 * span
    assert wide.width > narrow.width


def test_m3prime_large_rho_gives_the_whole_line():
    # at rho = 50 the statistic grows too slowly for the scan to bracket
    # the set; the whole line contains it
    data = RngStream(69, 0).generator().normal(size=200)
    whole = run_method(data, 0.05, "m3p", rho=50.0).confidence_set
    assert whole.intervals == ((-math.inf, math.inf),)
    lo, hi = run_method(data, 0.05, "m3p", rho=30.0).confidence_set.hull()
    assert math.isfinite(lo) and math.isfinite(hi)


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
