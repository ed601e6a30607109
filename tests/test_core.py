import importlib
import math
import pkgutil

import numpy as np
import pytest

import modeset
from modeset import (
    ConfidenceSet,
    FBetaDensity,
    MethodInfeasibleError,
    ModeResult,
    RngStream,
    SortedSample,
    compute_confidence_set,
    dilate,
    make_confidence_set,
    run_method,
)
from modeset.core import run_edges, split_sample, venter_pilot


def test_every_exported_name_resolves():
    modules = [modeset] + [importlib.import_module(f"modeset.{info.name}")
                           for info in pkgutil.iter_modules(modeset.__path__)]
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"


def test_sorted_sample_orders_and_preserves_input():
    s = SortedSample.from_data([3.0, 1.0, 2.0])
    assert np.array_equal(s.values, [1.0, 2.0, 3.0])


def test_sorted_sample_rejects_bad_input():
    with pytest.raises(ValueError):
        SortedSample.from_data([1.0, math.nan])
    with pytest.raises(ValueError):
        SortedSample.from_data([1.0, math.inf])
    with pytest.raises(ValueError):
        SortedSample.from_data([])
    with pytest.raises(ValueError):
        SortedSample.from_data([[1.0, 2.0]])


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


def test_run_edges():
    # run k of True is mask[edges[2k]:edges[2k + 1]]
    assert run_edges(np.zeros(0, dtype=bool)).tolist() == []
    assert run_edges([False, False, False]).tolist() == []
    assert run_edges([True, True, True]).tolist() == [0, 3]
    mask = [True, False, True, True, False, False, True]
    assert run_edges(mask).tolist() == [0, 1, 2, 4, 6, 7]


def test_split_sample_sizes():
    data = np.arange(10.0)
    split = split_sample(data, RngStream(1, 0))
    assert {split.s1.n, split.s2.n} == {5}
    split11 = split_sample(np.arange(11.0), RngStream(1, 0))
    assert sorted([split11.s1.n, split11.s2.n]) == [5, 6]


def test_split_sample_partition_and_determinism():
    data = np.arange(20.0)
    s_a = split_sample(data, RngStream(3, 5))
    s_b = split_sample(data, RngStream(3, 5))
    assert np.array_equal(s_a.s1.values, s_b.s1.values)
    assert np.array_equal(s_a.s2.values, s_b.s2.values)
    combined = np.sort(np.concatenate([s_a.s1.values, s_a.s2.values]))
    assert np.array_equal(combined, data)
    s_c = split_sample(data, RngStream(3, 6))
    assert not np.array_equal(s_a.s2.values, s_c.s2.values)


def test_split_sample_errors():
    with pytest.raises(ValueError):
        split_sample([1.0], RngStream(0, 0))


def test_venter_pilot_hand_enumeration():
    # windows over {0,1,2,3,10}, r=1: gaps 2, 2, 8 -> tie at j=2 -> X_(2) = 1
    s = SortedSample.from_data([0.0, 1.0, 2.0, 3.0, 10.0])
    assert venter_pilot(s, r=1) == 1.0


def test_venter_pilot_tie_rule_symmetric():
    # all interior gaps equal: smallest j wins, giving X_(2) = -1
    s = SortedSample.from_data([-2.0, -1.0, 0.0, 1.0, 2.0])
    assert venter_pilot(s, r=1) == -1.0


def test_venter_pilot_forced_window_is_median():
    s = SortedSample.from_data([5.0, -1.0, 2.0, 9.0, 4.0])
    assert venter_pilot(s, r=2) == 4.0  # median of the sorted values


def test_venter_pilot_errors():
    s = SortedSample.from_data([1.0, 2.0, 3.0])
    with pytest.raises(MethodInfeasibleError):
        venter_pilot(s, r=2)
    with pytest.raises(ValueError):
        venter_pilot(s, r=0)
    # a direct caller sees the sample's own size, with no split context added
    with pytest.raises(MethodInfeasibleError, match="at least 3 points, got 2$"):
        venter_pilot(SortedSample.from_data([1.0, 2.0]))


def test_run_method_reports_its_diagnostics():
    data = FBetaDensity(1.0).sample(RngStream(77, 0), 600)
    stream = RngStream(78, 0)
    pilot = venter_pilot(split_sample(data, stream).s1)
    options = dict(h=0.3, rho=2.0, split_stream=stream)
    for method in ("m1", "m2", "m2a", "m3", "m3p"):
        res = run_method(data, 0.05, method, **options)
        assert isinstance(res, ModeResult)
        assert res.confidence_set == compute_confidence_set(data, 0.05, method, **options)
        if method == "m1":
            assert res.pilot is None and res.h is None and res.pre_dilation is None
            continue
        assert res.pilot == pilot
        if method in ("m2", "m2a"):
            assert dilate(res.pre_dilation, res.h) == res.confidence_set
