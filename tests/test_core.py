import importlib
import math
import pkgutil
import re

import numpy as np
import pytest

import modeset
from modeset import (
    ConfidenceSet,
    FBetaDensity,
    MethodInfeasibleError,
    ModeResult,
    ModeSetError,
    RngStream,
    compute_confidence_set,
    make_confidence_set,
    run_method,
)
from modeset.core import sort_rows, split_and_pilot, venter_pilot
from modeset.methods import METHOD_CODES, METHOD_OPTIONS, _method_columns

from dilate import dilate


def test_every_exported_name_resolves():
    modules = [modeset] + [importlib.import_module(f"modeset.{info.name}")
                           for info in pkgutil.iter_modules(modeset.__path__)]
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"


def test_sort_rows_orders_each_row_and_preserves_input():
    rows = np.array([[3.0, 1.0, 2.0], [0.0, -1.0, 5.0]])
    assert np.array_equal(sort_rows(rows), [[1.0, 2.0, 3.0], [-1.0, 0.0, 5.0]])
    assert np.array_equal(rows, [[3.0, 1.0, 2.0], [0.0, -1.0, 5.0]])
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            sort_rows(np.array([[1.0, 2.0, 3.0], [1.0, bad, 3.0]]))


def test_run_method_rejects_bad_input():
    for method in ("m1", "m3"):
        with pytest.raises(ValueError, match="finite"):
            run_method([1.0, math.nan] * 50, 0.05, method)
        with pytest.raises(ValueError, match="finite"):
            run_method([1.0, math.inf] * 50, 0.05, method)
        with pytest.raises(ValueError, match="nonempty"):
            run_method([], 0.05, method)
        with pytest.raises(ValueError, match="one-dimensional"):
            run_method([[1.0, 2.0]] * 50, 0.05, method)


def test_run_method_checks_alpha_and_options_before_the_sample():
    nan_data = [1.0, math.nan] * 50
    with pytest.raises(ValueError, match="alpha must lie strictly in"):
        run_method(nan_data, 1.5, "m1")
    with pytest.raises(ValueError, match="requires a fixed bandwidth h"):
        run_method(nan_data, 0.05, "m2")
    with pytest.raises(ValueError, match="rho must exceed 1"):
        run_method(nan_data, 0.05, "m3p", rho=0.5)


def _merge_oracle(raw) -> ConfidenceSet:
    """The reference for make_confidence_set, a plain Python list merge:
    the tuple-sorted pairs, each merged into the interval before it unless
    it starts past that interval's end."""
    cleaned = []
    for lo, hi in raw:
        lo, hi = float(lo), float(hi)
        if math.isnan(lo) or math.isnan(hi):
            raise ValueError("interval endpoints must not be NaN")
        if lo > hi:
            raise ValueError(f"interval [{lo}, {hi}] has lo > hi")
        cleaned.append((lo, hi))
    cleaned.sort()
    merged = []
    for lo, hi in cleaned:
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return ConfidenceSet(tuple((lo, hi) for lo, hi in merged))


def test_make_confidence_set_matches_the_merge_oracle():
    # touching, nested and duplicate pairs, unbounded ends and both signs
    # of zero, compared by repr so the sign of a zero counts too; the
    # pairs arrive as a list, a zip and a (k, 2) array
    ends = [-math.inf, -1e308, -1.0, -0.5, -0.0, 0.0, 1e-300, 0.5, 1.0, 1e308, math.inf]
    rng = np.random.default_rng(18)
    for _ in range(3000):
        pairs = np.sort(rng.choice(ends, size=(rng.integers(0, 7), 2)), axis=1)
        want = repr(_merge_oracle(pairs.tolist()))
        assert repr(make_confidence_set(pairs.tolist())) == want, pairs
        assert repr(make_confidence_set(zip(pairs[:, 0], pairs[:, 1]))) == want, pairs
        assert repr(make_confidence_set(pairs)) == want, pairs
    assert repr(make_confidence_set([])) == repr(_merge_oracle([])) == repr(ConfidenceSet())


def test_make_confidence_set_names_the_first_bad_pair():
    for raw, message in (([(0.0, 1.0), (2.0, 1.0), (math.nan, 0.0)], "[2.0, 1.0] has lo > hi"),
                         ([(0.0, 1.0), (0.0, math.nan), (2.0, 1.0)], "must not be NaN")):
        for merge in (make_confidence_set, _merge_oracle):
            with pytest.raises(ValueError, match=re.escape(message)):
                merge(raw)


@pytest.mark.parametrize("raw", [[1.0, 2.0], [(1.0, 2.0, 3.0)], np.array([1.0, 2.0]),
                                 np.zeros((2, 3)), np.zeros((1, 2, 2)), [(1.0, 2.0), (3.0,)]])
def test_make_confidence_set_rejects_anything_but_pairs(raw):
    with pytest.raises(ValueError):
        make_confidence_set(raw)


def test_make_confidence_set_merges_touching():
    cs = make_confidence_set([(0.0, 1.0), (1.0, 2.0)])
    assert cs.intervals == ((0.0, 2.0),)


def test_make_confidence_set_sorts():
    cs = make_confidence_set([(3.0, 4.0), (0.0, 1.0)])
    assert cs.intervals == ((0.0, 1.0), (3.0, 4.0))
    assert cs.width == 2.0


def test_make_confidence_set_empty_and_errors():
    cs = make_confidence_set([])
    assert cs.is_empty
    assert cs.width == 0.0
    assert not cs.contains(0.0)
    with pytest.raises(ValueError):
        make_confidence_set([(2.0, 1.0)])
    with pytest.raises(ValueError):
        make_confidence_set([(math.nan, 1.0)])


def test_make_confidence_set_idempotent():
    rng = np.random.default_rng(42)
    for _ in range(50):
        raw = []
        for _ in range(rng.integers(0, 8)):
            lo = rng.normal()
            raw.append((lo, lo + rng.exponential()))
        once = make_confidence_set(raw)
        twice = make_confidence_set(once.intervals)
        assert once == twice


def test_confidence_set_membership_closed():
    cs = make_confidence_set([(0.0, 1.0), (2.0, 3.0)])
    assert cs.contains(0.0) and cs.contains(1.0) and cs.contains(2.5)
    assert not cs.contains(1.5)
    assert not cs.contains(-0.001)


def test_confidence_set_unbounded_width():
    cs = ConfidenceSet(((-math.inf, 0.0),))
    assert cs.width == math.inf
    assert cs.contains(-1e300)


def test_confidence_set_json_schema():
    cs = make_confidence_set([(0.0, 1.0)])
    d = cs.to_json_dict(alpha=0.05, method="m1")
    assert d == {"intervals": [[0.0, 1.0]], "width": 1.0, "alpha": 0.05, "method": "m1"}
    # an unbounded endpoint and the infinite width are JSON null
    d = ConfidenceSet(((-math.inf, 0.0), (1.0, math.inf))).to_json_dict()
    assert d == {"intervals": [[None, 0.0], [1.0, None]], "width": None}


def test_dilate_basic_and_gap_absorption():
    cs = make_confidence_set([(0.0, 1.0)])
    assert dilate(cs, 0.5).intervals == ((-0.5, 1.5),)
    cs2 = make_confidence_set([(0.0, 1.0), (1.4, 2.0)])
    assert dilate(cs2, 0.3).intervals == ((-0.3, 2.3),)
    assert dilate(make_confidence_set([]), 1.0).is_empty
    with pytest.raises(ValueError):
        dilate(cs, -0.1)


def test_dilate_semigroup_and_width_bound():
    rng = np.random.default_rng(7)
    for _ in range(50):
        raw = []
        for _ in range(rng.integers(1, 6)):
            lo = rng.normal()
            raw.append((lo, lo + rng.exponential()))
        cs = make_confidence_set(raw)
        a, b = rng.exponential(), rng.exponential()
        lhs = dilate(dilate(cs, a), b)
        rhs = dilate(cs, a + b)
        assert len(lhs.intervals) == len(rhs.intervals)
        assert np.allclose(np.array(lhs.intervals), np.array(rhs.intervals), atol=1e-12)
        grown = dilate(cs, a)
        assert grown.width <= cs.width + 2 * a * len(cs.intervals) + 1e-12


def test_dilate_matches_the_sorted_merge_of_shifted_pairs():
    # the oracle: dilate as the list merge of every shifted pair,
    # compared by repr, so the sign of a zero counts too
    ends = [-math.inf, -1e308, -1.0, -0.5, -0.0, 0.0, 1e-300, 0.5, 1.0, 1e308, math.inf]
    rng = np.random.default_rng(15)
    raised = 0
    for _ in range(3000):
        pairs = np.sort(rng.choice(ends, size=(rng.integers(0, 5), 2)), axis=1)
        cs = make_confidence_set(pairs.tolist())
        for h in (0.0, -0.0, 1e-300, 0.5, 1e308, math.inf):
            try:
                want = repr(_merge_oracle([(lo - h, hi + h) for lo, hi in cs.intervals]))
            except ValueError as exc:
                assert str(exc) == "interval endpoints must not be NaN"
                with pytest.raises(ValueError, match="^interval endpoints must not be NaN$"):
                    dilate(cs, h)
                raised += 1
                continue
            assert repr(dilate(cs, h)) == want, (cs, h)
    assert raised >= 50


def test_split_sample_sizes():
    # round(m / 2) points go to the evaluation half, half to even
    for m, size in ((10, 5), (11, 6), (13, 6)):
        rows = np.arange(2.0 * m).reshape(2, m)
        points, pilots = split_and_pilot(rows, RngStream(1, 0))
        assert points.shape == (2, size) and pilots.shape == (2,)


def test_split_sample_partition_and_determinism():
    data = np.arange(13.0)
    # the evaluation half holds 6 points; the pilot window, r = 3 at n = 7,
    # spans the 7 others, so the pilot is their median
    points, pilots = split_and_pilot(data[None, :], RngStream(3, 5))
    assert np.array_equal(points[0], np.sort(points[0]))
    assert np.unique(points).size == 6 and np.all(np.isin(points, data))
    assert pilots[0] == np.median(np.setdiff1d(data, points[0]))
    again = split_and_pilot(data[None, :], RngStream(3, 5))
    assert np.array_equal(points, again[0]) and np.array_equal(pilots, again[1])
    other = split_and_pilot(data[None, :], RngStream(3, 6))
    assert not np.array_equal(points, other[0])


def test_split_and_pilot_rows_match_one_row_calls():
    # one permutation splits every row, so each row splits as it would alone
    rows = np.random.default_rng(12).normal(size=(7, 40))
    rows[3] = np.round(rows[3], 1)  # ties in a row
    points, pilots = split_and_pilot(rows, RngStream(4, 0))
    for row, pts, pilot in zip(rows, points, pilots):
        one_pts, one_pilot = split_and_pilot(row[None, :], RngStream(4, 0))
        assert np.array_equal(pts, one_pts[0]) and pilot == one_pilot[0]


def test_split_and_pilot_per_row_streams_match_one_row_calls():
    # k streams split row i by stream i's permutation, as that row alone would be
    rows = np.random.default_rng(13).normal(size=(4, 31))
    streams = [RngStream(6, i) for i in range(4)]
    points, pilots = split_and_pilot(rows, streams)
    for row, stream, pts, pilot in zip(rows, streams, points, pilots):
        one_pts, one_pilot = split_and_pilot(row[None, :], stream)
        assert np.array_equal(pts, one_pts[0]) and pilot == one_pilot[0]
    message = "^need one split stream or one per row, got 3 for 4 rows$"
    with pytest.raises(ValueError, match=message):
        split_and_pilot(rows, streams[:3])


def test_run_methods_rows_match_run_method_calls():
    # one dispatch over k rows equals k run_method calls, result for result;
    # a row's ModeSetError is returned in its place and spares the other rows
    k, m = 5, 240
    rows = np.random.default_rng(14).normal(size=(k, m))
    streams = [RngStream(15, i) for i in range(k)]
    rows[1] = 0.5  # constant: no m2a grid, and its pilot is every point
    tie = streams[3].generator().permutation(m)[0]  # a point of row 3's evaluation half
    rows[3, tie] = split_and_pilot(rows[3:4], streams[3])[1][0]  # the pilot is unchanged
    options = dict(h=0.3, rho=1.5)
    for split in (streams, RngStream(16, 0)):
        results = list(zip(*_method_columns(rows, 0.05, METHOD_CODES, split_stream=split,
                                            **options)))
        assert len(results) == k
        for i, row in enumerate(rows):
            stream = split[i] if isinstance(split, list) else split
            for method, res in zip(METHOD_CODES, results[i]):
                try:
                    want = run_method(row, 0.05, method, split_stream=stream, **options)
                except ModeSetError as exc:
                    assert type(res) is type(exc) and str(res) == str(exc), (i, method)
                else:
                    assert repr(res) == repr(want), (i, method)
    by_method = dict(zip(METHOD_CODES, _method_columns(rows, 0.05, METHOD_CODES,
                                                       split_stream=streams, **options)))
    assert str(by_method["m2a"][1]) == "bandwidth grid needs a sample with positive, finite range"
    assert isinstance(by_method["m2a"][1], MethodInfeasibleError)
    for method in ("m3", "m3p"):
        for i in (1, 3):
            assert isinstance(by_method[method][i], MethodInfeasibleError)
            assert str(by_method[method][i]).startswith(
                "an evaluation point coincides with the pilot")
    # row 1 also ties m1's narrowest block: m1 fails that row alone
    assert isinstance(by_method["m1"][1], MethodInfeasibleError)
    assert str(by_method["m1"][1]).startswith("tied data")
    failed = {(1, "m1"), (1, "m2a"), (1, "m3"), (1, "m3p"), (3, "m3"), (3, "m3p")}
    assert all(isinstance(by_method[method][i], ModeResult) == ((i, method) not in failed)
               for method in METHOD_CODES for i in range(k))


def test_method_columns_take_one_m2_bandwidth_per_row_or_one_for_all():
    # a per-row h gives each row run_method's m2 set at its own h; a scalar h broadcasts
    k, m = 6, 300
    rows = np.random.default_rng(17).normal(size=(k, m))
    hs = np.array([1e-3, 0.05, 0.2, 0.2, 0.7, 3.0])
    [column] = _method_columns(rows, 0.05, ["m2"], h=hs)
    wants = [run_method(row, 0.05, "m2", h=h) for row, h in zip(rows, hs)]
    for res, want in zip(column, wants):
        assert (repr(res.confidence_set), res.h, res.pilot, res.vacuous) == (
            repr(want.confidence_set), want.h, want.pilot, want.vacuous)
    assert [res.h for res in column] == hs.tolist()
    assert 0 < sum(res.vacuous for res in column) < k
    [column] = _method_columns(rows, 0.05, ["m2"], h=0.2)
    assert [repr(res) for res in column] == [repr(run_method(row, 0.05, "m2", h=0.2))
                                             for row in rows]


def test_split_sample_errors():
    message = "^splitting needs at least 2 observations, got 1$"
    with pytest.raises(MethodInfeasibleError, match=message):
        split_and_pilot(np.array([[1.0]]), RngStream(0, 0))
    with pytest.raises(ValueError, match="finite"):
        split_and_pilot(np.array([[1.0, 2.0, math.nan, 4.0]]), RngStream(0, 0))
    with pytest.raises(MethodInfeasibleError, match="2-point sample"):
        split_and_pilot(np.array([[1.0, 2.0]]), RngStream(0, 0))


def test_venter_pilot_hand_enumeration():
    # windows over {0,1,2,10}, r=1 at n=4: gaps 2, 9 -> j=2 -> X_(2) = 1
    assert venter_pilot(np.array([[0.0, 1.0, 2.0, 10.0]]))[0] == 1.0


def test_venter_pilot_tie_rule_symmetric():
    # r=1 at n=4; all interior gaps equal: smallest j wins, giving X_(2) = -1;
    # the rule holds row by row
    rows = np.array([[-2.0, -1.0, 0.0, 1.0], [0.0, 5.0, 6.0, 7.0]])
    assert venter_pilot(rows).tolist() == [-1.0, 6.0]


def test_venter_pilot_forced_window_is_median():
    values = np.sort([5.0, -1.0, 2.0, 9.0, 4.0])[None, :]
    # r=2 at n=5: the one window is the whole sample, centred on its median
    assert venter_pilot(values)[0] == 4.0


def test_venter_pilot_errors():
    # a direct caller sees the sample's own size, with no split context added
    with pytest.raises(MethodInfeasibleError, match="at least 3 points, got 2$"):
        venter_pilot(np.array([[1.0, 2.0]]))


def test_venter_pilot_default_window_fits_every_sample_size():
    # r = min(ceil(sqrt(n)), (n - 1) // 2) leaves at least one window for every n >= 3
    rng = np.random.default_rng(17)
    for n in range(3, 201):
        rows = np.sort(rng.normal(size=(2, n)), axis=1)
        pilots = venter_pilot(rows)
        assert pilots.shape == (2,) and all(p in row for p, row in zip(pilots, rows)), n


def test_run_method_reports_its_diagnostics():
    data = FBetaDensity(1.0).sample(RngStream(77, 0), 600)
    stream = RngStream(78, 0)
    pilot = split_and_pilot(data[None, :], stream)[1][0]
    whole_pilot = venter_pilot(np.sort(data)[None, :])[0]  # m2's and m2a's: the whole sample's
    options = dict(h=0.3, rho=2.0, split_stream=stream)
    for method in ("m1", "m2", "m2a", "m3", "m3p"):
        res = run_method(data, 0.05, method, **options)
        assert isinstance(res, ModeResult)
        assert res.confidence_set == compute_confidence_set(data, 0.05, method, **options)
        if method == "m1":
            assert res.pilot is None and res.h is None and res.pre_dilation is None
            continue
        assert res.pilot == (whole_pilot if method in ("m2", "m2a") else pilot)
        if method in ("m2", "m2a"):
            assert dilate(res.pre_dilation, res.h) == res.confidence_set


# each option of the method table, a value other than the one the test below starts from
_OTHER_VALUES = {"h": 0.6, "rho": 3.0, "split_stream": RngStream(79, 1)}


def test_every_option_of_the_method_table_changes_its_methods_result():
    # an option that a method lists but never reads would leave its result as it was
    data = FBetaDensity(1.0).sample(RngStream(77, 0), 600)
    base = dict(h=0.3, rho=2.0, split_stream=RngStream(79, 0))
    for method, options in METHOD_OPTIONS.items():
        want = repr(run_method(data, 0.05, method, **base))
        for option in options:
            other = {**base, option: _OTHER_VALUES[option]}
            assert repr(run_method(data, 0.05, method, **other)) != want, (method, option)
