import math

import numpy as np
import pytest

from modeset import (
    ConfidenceSet,
    FBetaDensity,
    MethodInfeasibleError,
    RngStream,
    make_confidence_set,
    run_method,
)
from modeset.core import join_runs, sort_rows, split_and_pilot, venter_pilot
from modeset.mest import (
    _level_runs,
    _pilot_counts,
    _sweep,
    default_bandwidth_grid,
    dkw_count_slack,
)
from dilate import dilate
from window_count import window_count as _window_count


def test_count_slacks_match_direct_evaluation():
    # 2 * sqrt(2000 * ln 40)
    assert dkw_count_slack(1000, 0.05) == pytest.approx(171.79, abs=0.05)


def test_count_slacks_are_within_the_bound_sweep_widens_them_by():
    # _sweep takes K from floor(slack * (1 + 2**-49)), sound if each slack is
    # within a relative 5 * 2**-53 of its formula, which 200-bit arithmetic checks
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.prec = 200
    gen = np.random.default_rng(27)
    alphas = np.concatenate([gen.random(300), 1 - 1e-12 * gen.random(100),
                             1e-300 * gen.random(100), [0.05, 0.5, 5e-324]])
    for n, alpha in zip(gen.integers(1, 10**7, alphas.size).tolist(), alphas.tolist()):
        a = mpmath.mpf(alpha)
        slack, want = dkw_count_slack(n, alpha), 2 * mpmath.sqrt(2 * n * mpmath.log(2 / a))
        if math.isfinite(slack):  # 2 / 5e-324 overflows: every bandwidth vacuous
            assert abs(slack - want) <= 5 * 2.0**-53 * want
            assert slack * (1 + 2**-49) >= want


def _window(points, h):
    """The sorted X_i - h and X_i + h, and the knots: their distinct values."""
    pts = np.sort(np.asarray(points, dtype=np.float64))
    starts, ends = pts - h, pts + h
    return starts, ends, np.unique(np.concatenate([starts, ends]))


def _runs(points, h, cutoff):
    """The maximal runs of N(theta) >= cutoff as a list of (lo, hi) pairs; every
    count is >= 0, so a cutoff <= 0 keeps the whole line."""
    if cutoff <= 0:
        return [(-math.inf, math.inf)]
    pts = np.sort(np.asarray(points, dtype=np.float64))
    lo, hi = join_runs(*_level_runs(pts, h, math.ceil(cutoff)))
    return list(zip(lo.tolist(), hi.tolist()))


def test_window_statistic_hand_sweep():
    # two points at 0 and 1 with h = 0.4: occupancy 1 on [-0.4, 0.4) and
    # [0.6, 1.4), zero elsewhere
    starts, ends, knots = _window([0.0, 1.0], 0.4)
    assert np.allclose(knots, [-0.4, 0.4, 0.6, 1.4])
    counts = _window_count(starts, ends, knots)
    assert list(counts[:-1]) == [1, 0, 1]
    assert counts[-1] == 0
    segments = _runs([0.0, 1.0], 0.4, 0.5)
    assert segments == [(-0.4, 0.4), (0.6, 1.4)]
    # every count is >= 0, so a cutoff <= 0 keeps the whole line, as does _sweep
    whole = [(-math.inf, math.inf)]
    assert _runs([0.0, 1.0], 0.4, 0.0) == _runs([0.0, 1.0], 0.4, -3.0) == whole
    res = _sweep(np.array([0.0, 1.0]), 0.5, (0.4,), 1.0)
    assert res.vacuous and list(res.confidence_set.intervals) == whole
    dilated = dilate(make_confidence_set(segments), 0.4)
    assert len(dilated.intervals) == 1
    assert dilated.intervals[0] == pytest.approx((-0.8, 1.8), abs=1e-12)


def test_window_statistic_half_open_convention():
    # the indicator of X_i is 1 exactly on [X_i - h, X_i + h)
    starts, ends, _ = _window([0.0], 0.5)
    assert _window_count(starts, ends, -0.5) == 1
    assert _window_count(starts, ends, 0.5) == 0
    assert _window_count(starts, ends, 0.49999) == 1
    assert _window_count(starts, ends, -0.50001) == 0


def test_window_statistic_duplicates():
    starts, ends, _ = _window([1.0, 1.0, 1.0], 0.25)
    assert _window_count(starts, ends, 1.0) == 3
    assert _runs([1.0, 1.0, 1.0], 0.25, 2.5) == [(0.75, 1.25)]


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
    # finite; the mix exercises vacuous sets (the whole line, which the
    # oracle must then hold everywhere), single and multi-interval level
    # sets under both slack rules
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
            slack = math.sqrt(6.0 * n2) * (math.sqrt(-math.log(alpha)) + 2.0)  # Hoeffding
            tau = (1.0 / h) * math.sqrt(3.0 / (2 * n2)) * (
                math.sqrt(math.log(1.0 / alpha)) + 2.0
            )
        res = _sweep(np.sort(s2), pilot, (h,), slack)
        pre = res.pre_dilation
        vacuous = res.vacuous
        if not vacuous:
            nonvacuous += 1
            multi += len(pre.intervals) > 1
        knots = np.unique(np.concatenate([s2 - h, s2 + h]))
        gaps = np.diff(knots)
        step = gaps[gaps > 0].min() / 3.3
        lo = knots[0] - 2 * h
        hi = knots[-1] + 2 * h
        grid = np.arange(lo + 0.1234567 * step, hi, step)
        want = _m2_oracle_membership(grid, s2, pilot, h, tau)
        got = np.zeros(grid.size, dtype=bool)
        for a, b in pre.intervals:
            got |= (grid >= a) & (grid <= b)
        assert not np.any(want != got), f"instance {inst} disagrees with brute force"
    assert nonvacuous >= 10
    assert multi >= 1


def _run_edges(mask):
    """Start and stop indices of the runs of True in ``mask``, interleaved."""
    padded = np.concatenate(([False], mask, [False]))
    return np.flatnonzero(padded[1:] != padded[:-1])


def _reference_sweep(points, pilot, grid, slack):
    """The sweep over a knot table: for every h, the np.unique knots, their
    searchsorted counts, and the dilated set built and measured, or the
    whole line where the cutoff is <= 0.  Returns (h, cutoff, pre_dilation,
    confidence_set) for every h."""
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
        if cutoff <= 0:  # the count condition excludes nothing
            whole = make_confidence_set([(-math.inf, math.inf)])
            rows.append((h, cutoff, whole, whole))
            continue
        pre = make_confidence_set(knots[_run_edges(counts[:-1] >= cutoff)].reshape(-1, 2))
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
            # one bandwidth under the paper's Hoeffding slack for m2
            yield pts, pilot, (0.5,), math.sqrt(6.0 * n) * (math.sqrt(-math.log(0.3)) + 2.0)
            if pts[-1] > pts[0]:  # m2a's default grid, with the pilot also at either end
                [grid] = default_bandwidth_grid(pts[None, :])
                for at in (pilot, float(pts[0]), float(pts[-1])):
                    yield pts, at, grid, dkw_count_slack(n, 0.05)
            # a quarter-step grid on which integer data tie in width
            quarters = (0.25, 0.5, 0.75, 1.0, 1.25, 1.5)
            yield pts, pilot, quarters, 0.1 * n
            # no count reaches the slack: every bandwidth is vacuous
            yield pts, pilot, quarters, n + 1.0
            # only the last bandwidth, which catches every point, clears it
            yield pts, pilot, (1e-3, 1e-2, 2.0 * (pts[-1] - pts[0]) + 1.0), n - 0.5
    # points of scale 1e307: dilated ends overflow, and the winner may be
    # infinitely wide, vacuous or informative
    for n in (20, 64, 300):
        pts = np.sort(gen.normal(size=n)) * 1e307
        pilot = float(pts[n // 2])
        yield pts, pilot, (1e307, 1e308), 0.1 * n
        yield pts, pilot, (5e307, 1e308, 1.5e308), dkw_count_slack(n, 0.05)
        yield pts, pilot, (1e308,), math.sqrt(6.0 * n) * (math.sqrt(-math.log(0.3)) + 2.0)


@np.errstate(over="ignore")  # the 1e307 cases overflow to inf, as in _sweep
def test_sweep_matches_knot_table_sweep_bit_for_bit():
    vacuous = multi = tied = infinite = whole = gapped = 0
    for pts, pilot, grid, slack in _sweep_cases():
        # the count at the pilot never falls as h rises, so the vacuous
        # bandwidths come first and _sweep builds none of them
        assert np.all(np.diff(_pilot_counts(pts, pilot, np.asarray(grid))) >= 0)
        rows = _reference_sweep(pts, pilot, grid, slack)
        for h, cutoff, pre, cs in rows:
            # every bandwidth's maximal runs; its pieces shifted by h and
            # joined, as the sweep ranks them, are the dilated runs, and
            # their left-to-right sum is the dilated set's width
            assert _runs(pts, h, cutoff) == list(pre.intervals)
            if cutoff <= 0:
                continue
            lo, hi = _level_runs(pts, h, math.ceil(cutoff))
            dlo, dhi = join_runs(lo - h, hi + h)
            assert repr(ConfidenceSet.from_runs(dlo, dhi)) == repr(cs)
            assert float(np.cumsum(dhi - dlo)[-1]) == cs.width
        # the narrowest set wins, and the first of equals, save that an
        # informative set, though infinitely wide, beats the whole line
        h, cutoff, pre, cs = min(rows, key=lambda row: (row[3].width, row[1] <= 0))
        res = _sweep(pts, pilot, grid, slack)
        assert (res.h, res.vacuous, res.pilot) == (h, cutoff <= 0.0, pilot)
        assert res.confidence_set == cs and res.pre_dilation == pre
        vacuous += res.vacuous
        multi += len(pre.intervals) > 1
        if not res.vacuous:  # the whole line ties with itself and is infinitely wide
            informative = [row[3].width for row in rows if row[1] > 0]
            tied += informative.count(min(informative)) > 1
            infinite += res.confidence_set.width == math.inf
            # the winner's build kept every piece, or its dilated pieces left a gap
            k = math.ceil(cutoff)
            whole += _level_runs(pts, h, k)[0].size == pts.size - k + 1
            gapped += len(cs.intervals) > 1
    # the cases reach the whole line, multi-interval level sets, informative
    # bandwidths tied at the minimal width, infinitely wide informative winners,
    # and sweeps whose winning build kept every piece or joined pieces across a gap
    assert vacuous >= 5 and multi >= 5 and tied >= 3 and infinite >= 3
    assert whole >= 3 and gapped >= 3


def test_pilot_counts_match_window_count_h_by_h():
    # on a 0.1 lattice with decimal bandwidths, X_i -/+ h often lands one
    # rounding away from pilot, where the guess #(X_i <= pilot +/- h) is
    # off; each such guess must be recounted to match _window_count
    gen = np.random.default_rng(707)
    hs = np.array([0.1, 0.2, 0.3, 0.7, 1.1])
    wrong = 0
    for _ in range(100):
        n = int(gen.integers(3, 300))
        pts = np.sort(np.round(gen.normal(size=n), 1))
        for pilot in (pts[n // 2], pts[0], pts[-1], np.round(gen.normal(), 1)):
            pilot = float(pilot)
            want = [_window_count(pts - h, pts + h, pilot) for h in hs]
            assert _pilot_counts(pts, pilot, hs).tolist() == want
            for h in hs:
                wrong += np.searchsorted(pts, pilot + h, "right") != np.searchsorted(
                    pts - h, pilot, "right")
                wrong += np.searchsorted(pts, pilot - h, "right") != np.searchsorted(
                    pts + h, pilot, "right")
    assert wrong >= 100  # of 4000 guesses


@pytest.mark.parametrize("method, options", [("m2", {"h": 1e308}),
                                             ("m2a", {"grid": (1.0, 1e308)})])
def test_m2_huge_bandwidth_overflows_silently(method, options):
    # no bandwidth is informative on ten points, so the set is the whole
    # line at the grid's first h, with no warning (this suite makes one an error);
    # m2a's sweep is called directly, from its whole-sample pilot and slack
    points = np.arange(1.0, 11.0)
    if method == "m2":
        res = run_method(points, 0.05, method, **options)
    else:
        res = _sweep(points, float(venter_pilot(points[None, :])[0]), options["grid"],
                     dkw_count_slack(points.size, 0.05))
    assert res.vacuous
    assert res.confidence_set.intervals == res.pre_dilation.intervals == ((-math.inf, math.inf),)
    assert res.h == (1e308 if method == "m2" else 1.0)


def test_m2_informative_huge_bandwidth_overflows_silently():
    # on 200 points h = 1e308 is informative; dilating its level
    # set by h overflows to infinite ends without a warning
    res = run_method(np.arange(1.0, 201.0), 0.05, "m2", h=1e308)
    assert not res.vacuous
    assert res.confidence_set.intervals == ((-math.inf, math.inf),)
    assert np.isfinite(res.pre_dilation.intervals).all()


def test_m2_pilot_always_covered_and_nonempty():
    for seed in range(5):
        data = FBetaDensity(1.0).sample(RngStream(41, seed), 400)
        res = run_method(data, 0.05, "m2", h=0.3)
        assert not res.confidence_set.is_empty
        assert res.confidence_set.contains(res.pilot)
        assert res.pre_dilation.contains(res.pilot)


def test_m2_vacuous_set_is_the_whole_line():
    # tiny sample: the count slack dwarfs any window count, so the
    # condition excludes nothing, before dilation or after
    data = FBetaDensity(1.0).sample(RngStream(43, 0), 40)
    res = run_method(data, 0.05, "m2", h=0.25)
    assert res.vacuous and res.h == 0.25
    assert res.confidence_set.intervals == ((-math.inf, math.inf),)
    assert res.pre_dilation.intervals == ((-math.inf, math.inf),)


def test_m2_alpha_monotone_inclusion():
    # smaller alpha means larger slack, so the set can only grow
    data = FBetaDensity(1.0).sample(RngStream(45, 0), 4000)
    sets = {}
    for alpha in (0.5, 0.1, 0.02):
        sets[alpha] = run_method(data, alpha, "m2", h=1.0)
    for big, small in ((0.5, 0.1), (0.1, 0.02)):
        inner = sets[big].pre_dilation
        outer = sets[small].pre_dilation
        for lo, hi in inner.intervals:
            assert any(a <= lo and hi <= b for a, b in outer.intervals)


def test_m2_requires_bandwidth():
    data = FBetaDensity(1.0).sample(RngStream(47, 0), 100)
    with pytest.raises(ValueError, match="^method m2 requires a fixed bandwidth h$"):
        run_method(data, 0.05, "m2")


def test_m2a_degenerate_grid_matches_single_dkw_set():
    data = FBetaDensity(1.0).sample(RngStream(48, 0), 400)
    # manual single-h DKW construction on the whole sorted sample
    pts = np.sort(data)
    pilot = venter_pilot(pts[None, :])[0]
    res_grid = _sweep(pts, float(pilot), [0.5], dkw_count_slack(pts.size, 0.05))
    starts, ends, _ = _window(pts, 0.5)
    cutoff = float(_window_count(starts, ends, pilot)) - dkw_count_slack(pts.size, 0.05)
    pre = make_confidence_set(_runs(pts, 0.5, cutoff))
    assert res_grid.h == 0.5
    assert res_grid.vacuous == (cutoff <= 0)
    assert res_grid.confidence_set == dilate(pre, 0.5)


def test_m2a_picks_minimal_width_smallest_h_tie():
    data = FBetaDensity(1.0).sample(RngStream(50, 0), 1000)
    res = run_method(data, 0.05, "m2a")
    # the chosen width is minimal among a re-run over the same default grid,
    # on the whole sorted sample
    pts = np.sort(data)
    pilot = venter_pilot(pts[None, :])[0]
    [grid] = default_bandwidth_grid(pts[None, :])
    assert len(grid) == 64
    widths = []
    for h in grid:
        starts, ends, _ = _window(pts, h)
        cutoff = float(_window_count(starts, ends, pilot)) - dkw_count_slack(pts.size, 0.05)
        pre = make_confidence_set(_runs(pts, h, cutoff))
        widths.append(dilate(pre, h).width)
    assert res.confidence_set.width == min(widths)
    assert res.h == grid[int(np.argmin(widths))]


def _maximizer_cases():
    """(kind, method, options): m2a on its default grid, keeping the ids it had alone, and
    m2 at one fixed h, about 1.5 standard deviations of the data"""
    for method, options in (("m2a", {}), ("m2", {"h": 1.5})):
        for kind in ("normal", "rounded to 0.1", "integer"):
            scaled = {"h": 6.0} if options and kind == "integer" else options
            yield pytest.param(kind, method, scaled,
                               id=kind if method == "m2a" else f"{method}-{kind}")


@pytest.mark.parametrize("kind, method, options", _maximizer_cases())
def test_m2a_level_set_holds_every_maximizer_of_the_whole_sample_count(kind, method, options):
    # DKW bounds every window at once, so the smoothed mode has N >= max N - slack
    # over the whole sample; a pilot from the same sample has N(pilot) <= max N, so
    # at m2a's winning h, or at m2's one h, the level set must hold every theta with
    # N(theta) >= max N - floor(slack), the maximizers among them
    informative = 0
    for n in (3, 4, 5, 8, 13, 21, 34, 55, 89, 144, 233, 300):
        for rep in range(3):
            data = RngStream(53, 10 * n + rep).generator().normal(size=n)
            data = {"normal": data, "rounded to 0.1": np.round(data, 1),
                    "integer": np.round(4.0 * data)}[kind]
            res = run_method(data, 0.05, method, **options)
            starts, ends, knots = _window(data, res.h)
            counts = _window_count(starts, ends, knots)
            near = counts.max() - math.floor(dkw_count_slack(n, 0.05))
            # N is constant on each [knots[j], knots[j + 1]): hold its closure
            for j in np.flatnonzero(counts >= max(near, 1)):
                for theta in (knots[j], (knots[j] + knots[j + 1]) / 2, knots[j + 1]):
                    assert res.pre_dilation.contains(theta), (n, rep, theta)
            informative += not res.vacuous
    assert informative >= 15


def test_m2_is_the_m2a_sweep_at_its_one_bandwidth():
    # m2 takes m2a's whole-sample pilot and DKW slack: its result is m2a's sweep
    # over the grid [h], bit for bit, and so is its error on too small a sample
    informative = 0
    for n in (3, 4, 5, 8, 13, 21, 34, 55, 89, 144, 233, 300):
        raw = RngStream(54, n).generator().normal(size=n)
        for data in (raw, np.round(raw, 1), np.round(4.0 * raw)):
            pts = np.sort(data)
            pilot = float(venter_pilot(pts[None, :])[0])
            for h in (0.05, 0.5, 1.5, 6.0):
                for alpha in (0.01, 0.05, 0.5):
                    res = run_method(data, alpha, "m2", h=h)
                    assert repr(res) == repr(_sweep(pts, pilot, [h], dkw_count_slack(n, alpha)))
                    informative += not res.vacuous
    assert informative >= 100  # of 432
    for method, options in (("m2", {"h": 0.5}), ("m2a", {})):
        with pytest.raises(MethodInfeasibleError, match="^pilot mode estimate needs at least "
                                                        "3 points, got 2$"):
            run_method([0.1, 0.7], 0.05, method, **options)


def test_m2a_statistical_coverage_smoke():
    # width-minimizing variant keeps validity over the whole grid
    covered = 0
    reps = 60
    for rep in range(reps):
        data = FBetaDensity(1.0).sample(RngStream(52, 2 * rep), 1000)
        covered += run_method(data, 0.05, "m2a").confidence_set.contains(0.0)
    assert covered / reps >= 0.95 - 2 * math.sqrt(0.05 * 0.95 / reps)


def test_mest_option_validation():
    # two points are too few for a pilot: the options are checked first
    data = [0.0, 1.0]
    with pytest.raises(ValueError, match="alpha"):
        run_method(data, 1.5, "m2", h=1.0)
    with pytest.raises(ValueError, match="positive"):
        run_method(data, 0.05, "m2", h=-1.0)
    with pytest.raises(ValueError, match="finite"):
        run_method(data, 0.05, "m2", h=math.inf)
    with pytest.raises(ValueError, match="alpha"):
        run_method(data, 0.0, "m2a")
    with pytest.raises(ValueError, match="^bandwidth grid size must be at least 1, got 0$"):
        default_bandwidth_grid(np.array([data]), 0)


def test_default_bandwidth_grid_requires_spread():
    # a zero range or one past the largest float is the row's error; a finest
    # gap of 5e-324, whose half rounds to 0.0, starts the row's grid at 5e-324
    rows = np.stack([np.full(14, 2.0), np.r_[-1e308, np.zeros(12), 1e308],
                     np.r_[0.0, 5e-324, np.linspace(0.5, 1.0, 12)]])
    flat, huge, grid = default_bandwidth_grid(rows)
    for error in (flat, huge):
        assert isinstance(error, MethodInfeasibleError)
        assert str(error) == "bandwidth grid needs a sample with positive, finite range"
    assert grid[0] == 5e-324 and grid[-1] == 1.0 and np.all(np.diff(grid) > 0)


def _row_grid(points, size):
    """One row's grid as the one-call-per-row code built it."""
    gaps = np.diff(points)
    return np.unique(np.geomspace(float(gaps[gaps > 0].min()) / 2.0,
                                  float(points[-1] - points[0]), size))


def test_bandwidth_grids_of_a_matrix_match_row_grids_bit_for_bit():
    # subnormal points: 64 bandwidths between 5e-324 and 2e-323 repeat values
    tiny = np.array([0.0, 1e-323, 2e-323])
    matrices, repeats = [np.stack([tiny, tiny * 3])], 0
    for beta in (0.5, 1.0, 4.0):
        for n in (100, 1000, 4000):
            data = np.stack([FBetaDensity(beta).sample(RngStream(80, 4 * n + rep), n)
                             for rep in range(4)])
            matrices.append(split_and_pilot(data, RngStream(81, n))[0])
    for size in (64, 7, 1):
        for matrix in matrices:
            grids = default_bandwidth_grid(matrix, size)
            assert len(grids) == len(matrix)
            for points, grid in zip(matrix, grids):
                want = _row_grid(points, size)
                repeats += want.size < size
                assert grid.dtype == want.dtype and grid.tobytes() == want.tobytes()
    assert repeats >= 3


def test_run_methods_fails_only_the_m2a_row_with_zero_range():
    from modeset.methods import _method_columns, covers

    rows = np.stack([FBetaDensity(1.0).sample(RngStream(82, rep), 400) for rep in range(3)])
    rows[1] = 2.0  # its pilot is 2.0, but its evaluation half has no range
    out = list(zip(*_method_columns(rows, 0.05, ["m2a"])))
    error = out[1][0]
    assert isinstance(error, MethodInfeasibleError)
    assert str(error) == "bandwidth grid needs a sample with positive, finite range"
    for row, [res] in zip(rows[::2], out[::2]):
        want = run_method(row, 0.05, "m2a")
        assert (res.confidence_set, res.h, res.pilot) == (want.confidence_set, want.h, want.pilot)
    # a scan reports the row's error, as with any cell that fails
    [hits] = covers([rows[::2]], 0.0, 0.05, "m2a")
    assert hits.tolist() == [res.confidence_set.contains(0.0) for [res] in out[::2]]
    with pytest.raises(MethodInfeasibleError, match="^bandwidth grid needs a sample with positive"):
        list(covers([rows], 0.0, 0.05, "m2a"))


def test_sweep_skips_at_least_a_quarter_of_the_informative_bandwidths(monkeypatch):
    # each informative bandwidth the sweep builds reads its level runs
    # once, and the winner's are kept; the floor (pilot + h) - (pilot - h)
    # ends the walk early on these rows, swept whole with the whole-sample
    # pilot as m2a sweeps them
    built = []
    real = _level_runs

    def counted(points, h, cutoff):
        built.append(cutoff > 0.0)
        return real(points, h, cutoff)

    monkeypatch.setattr("modeset.mest._level_runs", counted)
    informative = 0
    for beta in (1.0, 4.0):
        for n in (1000, 4000):
            for rep in range(4):
                data = FBetaDensity(beta).sample(RngStream(71, rep), n)
                points = sort_rows(data[None, :])
                pts, pilot = points[0], float(venter_pilot(points)[0])
                grid, slack = default_bandwidth_grid(points)[0], dkw_count_slack(pts.size, 0.05)
                informative += int(np.count_nonzero(_pilot_counts(pts, pilot, grid) > slack))
                _sweep(pts, pilot, grid, slack)
    assert informative >= 150
    assert sum(built) <= 0.75 * informative
    # an informative single bandwidth, as m2 has, is built once
    built.clear()
    assert not _sweep(pts, pilot, grid[-1:], slack).vacuous
    assert built == [True]


def test_count_slacks_independent_of_bandwidth():
    # the defining inequality's 1/h factors cancel against the 1/(2h)
    # window scaling: the count condition touches h only through N(.) and
    # the breakpoints, so the slack accepts no bandwidth argument
    import inspect

    assert list(inspect.signature(dkw_count_slack).parameters) == ["n", "alpha"]
