
import numpy as np
import pytest

from modeset import (
    FBetaDensity,
    MethodInfeasibleError,
    RngStream,
    run_method,
)
from modeset.spacings import build_plan, lanke_inflation, m1_bounds


def scalar_m1(v, alpha):
    """Reference: the m1 level descent one sample at a time, with loops;
    None for tied data, whose narrowest compared block has zero width."""
    plan = build_plan(v.size, alpha)
    cand_lo, cand_hi = 1, plan.n_b[plan.b_max]  # 1-based block ids
    for b in range(plan.b_max, -1, -1):
        w = 1 << (b + plan.s_n)
        widths = np.diff(v[np.arange(cand_lo - 1, cand_hi + 1) * w])
        if widths.min() == 0.0:
            return None
        bound = plan.h_b[b] * float(widths.min())
        left = right = int(np.argmin(widths))
        while left > 0 and widths[left - 1] <= bound:
            left -= 1
        while right < widths.size - 1 and widths[right + 1] <= bound:
            right += 1
        lo_run, hi_run = cand_lo + left, cand_lo + right
        if b > 0:
            cand_lo = 2 * lo_run - 1
            # a run through the last coarse block keeps the trailing blocks
            cand_hi = plan.n_b[b - 1] if hi_run == plan.n_b[b] else 2 * hi_run
    w0 = 1 << plan.s_n
    lo_val, hi_val = float(v[(lo_run - 1) * w0]), float(v[hi_run * w0])
    span = float(v[-1] - v[0])
    if lo_run == 1:
        lo_val = float(v[0]) - plan.lam * span
    if hi_run == plan.n_b[0]:
        hi_val = float(v[-1]) + plan.lam * span
    return lo_val, hi_val


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


def test_plan_levels_hold_at_least_seven_blocks():
    # b <= b_max keeps 2**(b + s_n) <= n / 8, so no level can run out of blocks
    for n in [*range(32, 2101), 8000, 10**4, 10**5, 10**6]:
        assert min(build_plan(n, 0.05).n_b) >= 7, n


def test_plan_numpy_scalars_share_the_python_plan():
    build_plan.cache_clear()
    plan = build_plan(np.int64(1000), np.float64(0.05))
    assert all(type(v) is int for v in (plan.s_n, plan.b_max, *plan.n_b))
    assert build_plan(1000, 0.05) is plan


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


def test_m1_equal_spacing_traces_to_full_tail_extension():
    # 129 = 2**7 + 1 points: every level divides evenly, all block widths
    # are equal, so the surviving run spans everything and both tail
    # extensions attach, giving [0 - lam, 1 + lam] exactly.
    n = 129
    plan = build_plan(n, 0.05)
    cs = run_method(np.linspace(0.0, 1.0, n), 0.05, "m1").confidence_set
    assert len(cs.intervals) == 1
    lo, hi = cs.intervals[0]
    assert lo == pytest.approx(-plan.lam, rel=1e-12)
    assert hi == pytest.approx(1.0 + plan.lam, rel=1e-12)


def test_m1_single_interval_within_bounds():
    for seed in range(20):
        data = FBetaDensity(1.0).sample(RngStream(21, seed), 500)
        plan = build_plan(500, 0.05)
        cs = run_method(data, 0.05, "m1").confidence_set
        assert len(cs.intervals) == 1
        lo, hi = cs.intervals[0]
        span = data.max() - data.min()
        assert lo >= data.min() - plan.lam * span - 1e-12
        assert hi <= data.max() + plan.lam * span + 1e-12


def test_m1_handles_duplicate_values():
    # a zero-width narrowest block makes the tolerance bound 0, which would
    # collapse the interval onto one atom: tied data are infeasible
    rng = np.random.default_rng(3)
    data = np.concatenate([np.full(300, 0.5), rng.uniform(-1, 3, 700)])
    with pytest.raises(MethodInfeasibleError, match="^tied data"):
        run_method(data, 0.05, "m1")
    # rounded normal data tie too; data rounded finely enough to leave
    # every compared block positive keep their interval
    gen = np.random.default_rng(4)
    with pytest.raises(MethodInfeasibleError, match="^tied data"):
        run_method(np.round(gen.normal(size=1000), 1), 0.05, "m1")
    cs = run_method(np.round(gen.normal(size=4000), 3), 0.05, "m1").confidence_set
    assert len(cs.intervals) == 1 and cs.contains(0.0)


def test_m1_alpha_nesting_observed():
    # set-level nesting across alpha is expected from the construction but
    # not forced by it; observe and report rather than hard-assert
    alphas = [0.5, 0.2, 0.1, 0.05, 0.01]
    violations = 0
    checks = 0
    for seed in range(10):
        data = FBetaDensity(1.0).sample(RngStream(31, seed), 1000)
        sets = [run_method(data, a, "m1").confidence_set.intervals[0] for a in alphas]
        for (lo_big_a, hi_big_a), (lo_small_a, hi_small_a) in zip(sets, sets[1:]):
            checks += 1
            if not (lo_small_a <= lo_big_a and hi_big_a <= hi_small_a):
                violations += 1
    print(f"alpha-nesting violations: {violations}/{checks}")
    assert checks == 40


def test_m1_infeasible_message_names_size():
    with pytest.raises(MethodInfeasibleError, match="sample too small"):
        run_method(np.arange(16.0), 0.05, "m1")


def test_m1_coverage_beta2_smoke():
    # flatter mode (beta=2): coverage guarantee is unchanged
    covered = 0
    reps = 100
    for rep in range(reps):
        data = FBetaDensity(2.0).sample(RngStream(55, rep), 1000)
        covered += run_method(data, 0.05, "m1").confidence_set.contains(0.0)
    assert covered / reps >= 0.95 - 2 * (0.05 * 0.95 / reps) ** 0.5


def _coverage_floor(alpha, reps):
    # the Monte-Carlo floor of acceptance criterion 01
    return 1.0 - alpha - 2.0 * (alpha * (1.0 - alpha) / reps) ** 0.5


@pytest.mark.parametrize("n", [1000, 1024, 1025, 4000])
def test_m1_covers_a_mode_at_either_edge(n):
    # Exp(1) has its mode 0 at the left end of the support, -Exp(1) at the
    # right end; at n = 1000, 1024 and 4000 the finer levels have more
    # blocks than twice the coarser ones, at n = 1025 exactly twice
    reps = 200
    draws = RngStream(57, n).generator().exponential(size=(reps, n))
    for rows in (np.sort(draws, axis=1), np.sort(-draws, axis=1)):
        lo, hi, _ = m1_bounds(rows, 0.05)
        covered = np.count_nonzero((lo <= 0.0) & (0.0 <= hi))
        assert covered / reps >= _coverage_floor(0.05, reps)


def test_m1_coverage_at_n60():
    # n = 60 has one usable level only because the base block is capped
    reps = 400
    rows = np.sort([FBetaDensity(1.0).sample(RngStream(58, rep), 60)
                    for rep in range(reps)], axis=1)
    lo, hi, _ = m1_bounds(rows, 0.05)
    covered = np.count_nonzero((lo <= 0.0) & (0.0 <= hi))
    assert covered / reps >= _coverage_floor(0.05, reps)


def _kernel_rows(gen, n, k):
    """k sorted rows of size n: smooth, rounded (ties), and modes at either end."""
    rows = [
        gen.normal(size=(k, n)),
        np.round(gen.normal(size=(k, n)), 1),
        gen.integers(0, 6, size=(k, n)).astype(float),
        gen.exponential(size=(k, n)),  # narrowest blocks in the first block
        -gen.exponential(size=(k, n)),  # ... and in the last
        np.full((k, n), 2.5),
    ]
    return np.sort(np.concatenate(rows), axis=1)


@pytest.mark.parametrize("n", [60, 1000, 4097])
def test_m1_bounds_sorts_its_rows_and_rejects_values_that_are_not_finite(n):
    rows = _kernel_rows(np.random.default_rng(n + 1), n, 3)
    shuffled = np.random.default_rng(n).permuted(rows, axis=1)
    assert not np.array_equal(shuffled, rows)
    for alpha in (0.05, 0.3):
        want = [a.tobytes() for a in m1_bounds(rows, alpha)]
        assert [a.tobytes() for a in m1_bounds(shuffled, alpha)] == want
        assert [a.tobytes() for a in m1_bounds(shuffled.tolist(), alpha)] == want
    for bad in (np.nan, np.inf, -np.inf):
        rows = shuffled.copy()
        rows[1, n // 2] = bad
        with pytest.raises(ValueError, match="^data must contain only finite values$"):
            m1_bounds(rows, 0.05)


@pytest.mark.parametrize("n", [32, 54, 60, 64, 65, 100, 129, 257, 1000, 1023, 4097, 5000])
def test_m1_kernel_matches_scalar_descent_bit_for_bit(n):
    gen = np.random.default_rng(n)
    rows = _kernel_rows(gen, n, 4)
    for alpha in (0.05, 0.3):
        lo, hi, tied = m1_bounds(rows, alpha)
        want = [scalar_m1(row, alpha) for row in rows]
        assert tied.tolist() == [w is None for w in want]
        assert [(a, b) for a, b, t in zip(lo, hi, tied) if not t] == [w for w in want if w]
        for row, a, b, t in zip(rows, lo, hi, tied):  # k = 1
            lo1, hi1, tied1 = m1_bounds(row[None, :], alpha)
            assert (lo1[0], hi1[0], tied1[0]) == (a, b, t)
            if t:
                with pytest.raises(MethodInfeasibleError, match="^tied data"):
                    run_method(row, alpha, "m1")
            else:
                assert run_method(row, alpha, "m1").confidence_set.intervals == ((a, b),)
    # both tail inflations ran, whether or not each level's blocks are
    # exactly the halves of the coarser level's, and runs that stop short
    # of either end, on untied rows
    lo, hi, rows = lo[~tied], hi[~tied], rows[~tied]
    assert np.any(hi > rows[:, -1]) and np.any(lo < rows[:, 0])
    assert np.any(lo > rows[:, 0]) and np.any(hi < rows[:, -1])
