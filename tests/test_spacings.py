
import numpy as np
import pytest

from modeset import (
    FBetaDensity,
    MethodInfeasibleError,
    RngStream,
    SortedSample,
    m1_confidence_interval,
)
from modeset.spacings import build_plan, lanke_inflation, level_intervals


def test_plan_n1000_derived_quantities():
    plan = build_plan(1000, 0.05)
    # ceil(log2(ln 1000)) = ceil(log2 6.9078) = 3
    assert plan.s_n == 3
    # floor(log2 125) - 3 = 6 - 3 = 3
    assert plan.b_max == 3
    assert plan.n_b == (124, 62, 31, 15)
    assert plan.t_n == pytest.approx(77.0 / 60.0, abs=1e-15)


def test_lanke_inflation_two_points():
    # (0.025)**(-1/1) - 1 = 39; the plan itself is infeasible at n=2, the
    # factor formula is not
    assert lanke_inflation(2, 0.05) == pytest.approx(39.0, abs=1e-12)
    plan = build_plan(1000, 0.05)
    assert plan.lam == pytest.approx(lanke_inflation(1000, 0.05), abs=1e-15)


def test_plan_small_sample_errors():
    # n=16: s_n = 2, floor(log2 2) - 2 = -1
    with pytest.raises(MethodInfeasibleError, match="sample too small"):
        build_plan(16, 0.05)
    with pytest.raises(MethodInfeasibleError):
        build_plan(1, 0.05)
    with pytest.raises(ValueError):
        build_plan(1000, 1.5)


def test_plan_width_tolerances_at_least_one():
    for n in (64, 129, 1000, 4096):
        plan = build_plan(n, 0.05)
        assert all(h >= 1.0 for h in plan.h_b)


def test_plan_tolerance_monotone_in_alpha():
    # more confidence (smaller alpha) can only loosen the width tolerance
    alphas = [0.5, 0.2, 0.1, 0.05, 0.01, 0.001]
    plans = [build_plan(1000, a) for a in alphas]
    for b in range(plans[0].b_max + 1):
        hs = [p.h_b[b] for p in plans]
        assert all(h2 >= h1 for h1, h2 in zip(hs, hs[1:]))


def test_level_intervals_structure():
    sample = SortedSample.from_data(FBetaDensity(1.0).sample(RngStream(11, 0), 1000))
    plan = build_plan(1000, 0.05)
    for b in range(plan.b_max + 1):
        ivs = level_intervals(sample, plan, b)
        assert ivs.shape == (plan.n_b[b], 2)
        # consecutive blocks share exactly one endpoint
        assert np.array_equal(ivs[1:, 0], ivs[:-1, 1])
        # each block spans 2**(b + s_n) + 1 order statistics
        w = 1 << (b + plan.s_n)
        assert ivs[0, 0] == sample.order_statistic(1)
        assert ivs[0, 1] == sample.order_statistic(1 + w)


def test_m1_equal_spacing_traces_to_full_tail_extension():
    # 129 = 2**7 + 1 points: every level divides evenly, all block widths
    # are equal, so the surviving run spans everything and both tail
    # extensions attach, giving [0 - lam, 1 + lam] exactly.
    n = 129
    sample = SortedSample.from_data(np.linspace(0.0, 1.0, n))
    plan = build_plan(n, 0.05)
    cs = m1_confidence_interval(sample, 0.05)
    assert len(cs.intervals) == 1
    lo, hi = cs.intervals[0]
    assert lo == pytest.approx(-plan.lam, rel=1e-12)
    assert hi == pytest.approx(1.0 + plan.lam, rel=1e-12)


def test_m1_single_interval_within_bounds():
    for seed in range(20):
        data = FBetaDensity(1.0).sample(RngStream(21, seed), 500)
        sample = SortedSample.from_data(data)
        plan = build_plan(500, 0.05)
        cs = m1_confidence_interval(sample, 0.05)
        assert len(cs.intervals) == 1
        lo, hi = cs.intervals[0]
        span = data.max() - data.min()
        assert lo >= data.min() - plan.lam * span - 1e-12
        assert hi <= data.max() + plan.lam * span + 1e-12


def test_m1_handles_duplicate_values():
    # zero-width minimal blocks: the tolerance bound becomes 0 and only
    # zero-width neighbours join; no division occurs
    rng = np.random.default_rng(3)
    data = np.concatenate([np.full(300, 0.5), rng.uniform(-1, 3, 700)])
    cs = m1_confidence_interval(SortedSample.from_data(data), 0.05)
    assert len(cs.intervals) == 1
    assert cs.contains(0.5)
    assert cs.width < 0.5


def test_m1_alpha_nesting_observed():
    # set-level nesting across alpha is expected from the construction but
    # not forced by it; observe and report rather than hard-assert
    alphas = [0.5, 0.2, 0.1, 0.05, 0.01]
    violations = 0
    checks = 0
    for seed in range(10):
        data = FBetaDensity(1.0).sample(RngStream(31, seed), 1000)
        sample = SortedSample.from_data(data)
        sets = [m1_confidence_interval(sample, a).intervals[0] for a in alphas]
        for (lo_big_a, hi_big_a), (lo_small_a, hi_small_a) in zip(sets, sets[1:]):
            checks += 1
            if not (lo_small_a <= lo_big_a and hi_big_a <= hi_small_a):
                violations += 1
    print(f"alpha-nesting violations: {violations}/{checks}")
    assert checks == 40


def test_m1_infeasible_message_names_size():
    with pytest.raises(MethodInfeasibleError, match="sample too small"):
        m1_confidence_interval(SortedSample.from_data(np.arange(16.0)), 0.05)


def test_m1_coverage_beta2_smoke():
    # flatter mode (beta=2): coverage guarantee is unchanged
    covered = 0
    reps = 100
    for rep in range(reps):
        data = FBetaDensity(2.0).sample(RngStream(55, rep), 1000)
        covered += m1_confidence_interval(
            SortedSample.from_data(data), 0.05
        ).contains(0.0)
    assert covered / reps >= 0.95 - 2 * (0.05 * 0.95 / reps) ** 0.5
