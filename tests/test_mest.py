import math

import numpy as np
import pytest

from modeset import (
    FBetaDensity,
    RngStream,
    dilate,
    dkw_count_slack,
    hoeffding_count_slack,
    m2_adaptive_details,
    m2_details,
    make_confidence_set,
)
from modeset.core import run_edges
from modeset.mest import (
    WindowStatistic,
    _dilated_width,
    _level_runs,
    _sweep,
    default_bandwidth_grid,
)


def test_count_slacks_match_direct_evaluation():
    # sqrt(6*512) * (sqrt(ln 20) + 2)
    assert hoeffding_count_slack(512, 0.05) == pytest.approx(206.78, abs=0.05)
    # 2 * sqrt(2000 * ln 40)
    assert dkw_count_slack(1000, 0.05) == pytest.approx(171.79, abs=0.05)


def test_window_statistic_hand_sweep():
    # two points at 0 and 1 with h = 0.4: occupancy 1 on [-0.4, 0.4) and
    # [0.6, 1.4), zero elsewhere
    ws = WindowStatistic.from_points([0.0, 1.0], 0.4)
    assert np.allclose(ws.breakpoints, [-0.4, 0.4, 0.6, 1.4])
    assert list(ws.counts[:-1]) == [1, 0, 1]
    assert ws.counts[-1] == 0
    segments = ws.level_set(0.5)
    assert segments == [(-0.4, 0.4), (0.6, 1.4)]
    # every count is >= 0, so a cutoff <= 0 keeps the whole knot hull
    assert ws.level_set(0.0) == ws.level_set(-3.0) == [(-0.4, 1.4)]
    dilated = dilate(make_confidence_set(segments), 0.4)
    assert len(dilated.intervals) == 1
    assert dilated.intervals[0] == pytest.approx((-0.8, 1.8), abs=1e-12)


def test_window_statistic_half_open_convention():
    # the indicator of X_i is 1 exactly on [X_i - h, X_i + h)
    ws = WindowStatistic.from_points([0.0], 0.5)
    assert ws.at(-0.5) == 1
    assert ws.at(0.5) == 0
    assert ws.at(0.49999) == 1
    assert ws.at(-0.50001) == 0


def test_window_statistic_duplicates():
    ws = WindowStatistic.from_points([1.0, 1.0, 1.0], 0.25)
    assert ws.at(1.0) == 3
    assert ws.level_set(2.5) == [(0.75, 1.25)]


def _m2_oracle_membership(grid, s2, pilot, h, tau):
    # independent evaluation of the defining inequality, divisions by h kept
    n2 = s2.size
    n_theta = np.count_nonzero(
        (s2[None, :] > grid[:, None] - h) & (s2[None, :] <= grid[:, None] + h), axis=1
    )
    n_pilot = np.count_nonzero((s2 > pilot - h) & (s2 <= pilot + h))
    return (n_pilot - n_theta) / (2.0 * h * n2) <= tau


def test_exact_sweep_matches_brute_force():
    # dyadic data keep breakpoint gaps bounded below so the dense grid is
    # finite; the mix exercises vacuous clamps, single and multi-interval
    # level sets under both slack rules
    rng = np.random.default_rng(2024)
    nonvacuous = multi = 0
    for inst in range(60):
        n2 = int(rng.integers(20, 51))
        cluster = rng.random(n2) < 0.6
        raw = np.where(cluster, rng.normal(0, 0.5, n2), rng.normal(3, 0.3, n2))
        s2 = np.round(raw * 64) / 64
        pilot = float(np.round(rng.normal(0, 0.5) * 64) / 64)
        if inst % 2:
            h = float(rng.choice([0.75, 1.5, 3.0]))
            alpha = 0.9
            slack = dkw_count_slack(n2, alpha)
            tau = (1.0 / h) * math.sqrt(2.0 * math.log(2.0 / alpha) / n2)
        else:
            h = float(rng.choice([0.25, 0.75, 1.5]))
            alpha = float(rng.choice([0.2, 0.5, 0.9]))
            slack = hoeffding_count_slack(n2, alpha)
            tau = (1.0 / h) * math.sqrt(3.0 / (2 * n2)) * (
                math.sqrt(math.log(1.0 / alpha)) + 2.0
            )
        ws = WindowStatistic.from_points(s2, h)
        cutoff = float(ws.at(pilot)) - slack
        pre = make_confidence_set(ws.level_set(cutoff))
        vacuous = cutoff <= 0
        if not vacuous:
            nonvacuous += 1
            multi += len(pre.intervals) > 1
        gaps = np.diff(ws.breakpoints)
        step = gaps[gaps > 0].min() / 3.3
        lo = ws.breakpoints[0] - 2 * h
        hi = ws.breakpoints[-1] + 2 * h
        grid = np.arange(lo + 0.1234567 * step, hi, step)
        want = _m2_oracle_membership(grid, s2, pilot, h, tau)
        if vacuous:
            want &= (grid >= ws.breakpoints[0]) & (grid <= ws.breakpoints[-1])
        got = np.zeros(grid.size, dtype=bool)
        for a, b in pre.intervals:
            got |= (grid >= a) & (grid <= b)
        assert not np.any(want != got), f"instance {inst} disagrees with brute force"
    assert nonvacuous >= 10
    assert multi >= 1


def _reference_sweep(points, pilot, grid, slack):
    """The sweep over a knot table: for every h, the np.unique knots, their
    searchsorted counts, and the dilated set built and measured.  Returns
    (h, cutoff, pre_dilation, confidence_set) for every h."""
    pts = np.sort(points)
    rows = []
    for h in grid:
        starts, ends = pts - h, pts + h
        knots = np.unique(np.concatenate([starts, ends]))
        counts = np.searchsorted(starts, knots, side="right") - np.searchsorted(
            ends, knots, side="right"
        )
        n_pilot = np.searchsorted(starts, pilot, side="right") - np.searchsorted(
            ends, pilot, side="right"
        )
        cutoff = float(n_pilot) - slack
        pre = make_confidence_set(knots[run_edges(counts[:-1] >= cutoff)].reshape(-1, 2))
        rows.append((h, cutoff, pre, dilate(pre, h)))
    return rows


def _sweep_cases():
    gen = np.random.default_rng(606)
    for n in (3, 4, 7, 20, 64, 300, 4000):
        samples = (
            gen.normal(size=n),
            np.round(gen.normal(size=n), 1),
            gen.integers(0, 6, size=n).astype(float),
            FBetaDensity(1.0).sample(RngStream(60, n), n),
        )
        for pts in map(np.sort, samples):
            pilot = float(pts[n // 2])
            yield pts, pilot, (0.5,), hoeffding_count_slack(n, 0.3)  # m2
            if pts[-1] > pts[0]:  # m2a's default grid
                yield pts, pilot, default_bandwidth_grid(pts), dkw_count_slack(n, 0.05)
            # a quarter-step grid on which integer data tie in width
            yield pts, pilot, (0.25, 0.5, 0.75, 1.0, 1.25, 1.5), 0.1 * n


def test_sweep_matches_knot_table_sweep_bit_for_bit():
    vacuous = multi = tied = 0
    for pts, pilot, grid, slack in _sweep_cases():
        rows = _reference_sweep(pts, pilot, grid, slack)
        for h, cutoff, pre, cs in rows:
            # every bandwidth's maximal runs, and the width it is ranked by
            ws = WindowStatistic.from_points(pts, h)
            assert ws.level_set(cutoff) == list(pre.intervals)
            assert _dilated_width(*_level_runs(ws.starts, ws.ends, cutoff), h) == cs.width
        widths = [cs.width for *_, cs in rows]
        h, cutoff, pre, cs = rows[widths.index(min(widths))]
        res = _sweep(pts, pilot, grid, slack)
        assert (res.h, res.vacuous, res.pilot) == (h, cutoff <= 0.0, pilot)
        assert res.confidence_set == cs and res.pre_dilation == pre
        vacuous += res.vacuous
        multi += len(pre.intervals) > 1
        tied += widths.count(min(widths)) > 1
    # the cases reach the vacuous hull, multi-interval level sets, and
    # bandwidths tied at the minimal width
    assert vacuous >= 5 and multi >= 5 and tied >= 3


def test_m2_pilot_always_covered_and_nonempty():
    for seed in range(5):
        data = FBetaDensity(1.0).sample(RngStream(41, seed), 400)
        res = m2_details(data, 0.05, 0.3, split_stream=RngStream(42, seed))
        assert not res.confidence_set.is_empty
        assert res.confidence_set.contains(res.pilot)
        assert res.pre_dilation.contains(res.pilot)


def test_m2_vacuous_clamps_to_breakpoint_hull():
    # tiny evaluation half: the count slack dwarfs any window count
    data = FBetaDensity(1.0).sample(RngStream(43, 0), 40)
    res = m2_details(data, 0.05, 0.25, split_stream=RngStream(44, 0))
    assert res.vacuous
    lo, hi = res.confidence_set.intervals[0]
    pre_lo, pre_hi = res.pre_dilation.intervals[0]
    assert lo == pytest.approx(pre_lo - 0.25)
    assert hi == pytest.approx(pre_hi + 0.25)


def test_m2_alpha_monotone_inclusion():
    # smaller alpha means larger slack, so the set can only grow
    data = FBetaDensity(1.0).sample(RngStream(45, 0), 4000)
    sets = {}
    for alpha in (0.5, 0.1, 0.02):
        sets[alpha] = m2_details(data, alpha, 1.0, split_stream=RngStream(46, 0))
    for big, small in ((0.5, 0.1), (0.1, 0.02)):
        inner = sets[big].pre_dilation
        outer = sets[small].pre_dilation
        for lo, hi in inner.intervals:
            assert any(a <= lo and hi <= b for a, b in outer.intervals)


def test_m2_requires_bandwidth():
    data = FBetaDensity(1.0).sample(RngStream(47, 0), 100)
    with pytest.raises(ValueError, match="bandwidth"):
        m2_details(data, 0.05)


def test_m2a_degenerate_grid_matches_single_dkw_set():
    data = FBetaDensity(1.0).sample(RngStream(48, 0), 400)
    stream = RngStream(49, 0)
    res_grid = m2_adaptive_details(data, 0.05, (0.5,), split_stream=stream)
    # manual single-h DKW construction
    from modeset.core import split_sample, venter_pilot

    split = split_sample(data, stream)
    pilot = venter_pilot(split.s1)
    ws = WindowStatistic.from_points(split.s2.values, 0.5)
    cutoff = float(ws.at(pilot)) - dkw_count_slack(split.s2.n, 0.05)
    pre = make_confidence_set(ws.level_set(cutoff))
    assert res_grid.h == 0.5
    assert res_grid.vacuous == (cutoff <= 0)
    assert res_grid.confidence_set == dilate(pre, 0.5)


def test_m2a_picks_minimal_width_smallest_h_tie():
    data = FBetaDensity(1.0).sample(RngStream(50, 0), 1000)
    res = m2_adaptive_details(data, 0.05, split_stream=RngStream(51, 0))
    grid = default_bandwidth_grid(
        np.sort(data)  # not the true s2, only for grid shape checks
    )
    assert len(grid) == 64
    # the chosen width is minimal among a re-run over the same default grid
    from modeset.core import split_sample, venter_pilot

    split = split_sample(data, RngStream(51, 0))
    pilot = venter_pilot(split.s1)
    true_grid = default_bandwidth_grid(split.s2.values)
    widths = []
    for h in true_grid:
        ws = WindowStatistic.from_points(split.s2.values, h)
        cutoff = float(ws.at(pilot)) - dkw_count_slack(split.s2.n, 0.05)
        pre = make_confidence_set(ws.level_set(cutoff))
        widths.append(dilate(pre, h).width)
    assert res.confidence_set.width == min(widths)
    assert res.h == true_grid[int(np.argmin(widths))]


def test_m2a_statistical_coverage_smoke():
    # width-minimizing variant keeps validity over the whole grid
    covered = 0
    reps = 60
    for rep in range(reps):
        data = FBetaDensity(1.0).sample(RngStream(52, 2 * rep), 1000)
        cs = m2_adaptive_details(
            data, 0.05, split_stream=RngStream(52, 2 * rep + 1)
        ).confidence_set
        covered += cs.contains(0.0)
    assert covered / reps >= 0.95 - 2 * math.sqrt(0.05 * 0.95 / reps)


def test_mest_option_validation():
    # two points are too few for a pilot: the options are checked first
    data = [0.0, 1.0]
    with pytest.raises(ValueError, match="alpha"):
        m2_details(data, 1.5, 1.0)
    with pytest.raises(ValueError, match="positive"):
        m2_details(data, 0.05, -1.0)
    with pytest.raises(ValueError, match="nonempty"):
        m2_adaptive_details(data, 0.05, ())
    with pytest.raises(ValueError, match="ascending"):
        m2_adaptive_details(data, 0.05, (0.5, 0.25))
    with pytest.raises(ValueError, match="positive"):
        m2_adaptive_details(data, 0.05, (-0.5, 0.25))
    with pytest.raises(ValueError, match="alpha"):
        m2_adaptive_details(data, 0.0)


def test_default_bandwidth_grid_requires_spread():
    from modeset import MethodInfeasibleError

    with pytest.raises(MethodInfeasibleError):
        default_bandwidth_grid(np.full(10, 2.0))


def test_count_slacks_independent_of_bandwidth():
    # the defining inequality's 1/h factors cancel against the 1/(2h)
    # window scaling: the count condition touches h only through N(.) and
    # the breakpoints, so neither slack accepts a bandwidth argument
    import inspect

    assert list(inspect.signature(hoeffding_count_slack).parameters) == ["n", "alpha"]
    assert list(inspect.signature(dkw_count_slack).parameters) == ["n", "alpha"]
