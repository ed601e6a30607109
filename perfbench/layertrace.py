"""Per-layer tracing of modeset from outside the package.

Each layer is a set of public or module-level functions of one modeset
module.  Installing the tracer replaces every binding of each function
object across the loaded ``modeset`` modules (and the class attribute for
methods), so call sites that did ``from .x import f`` are caught too.
Spans (layer, start, end, parent, call) are kept in memory and written out
when the run ends; a layer's self time is its span time minus the time of
its direct child spans.
"""

from __future__ import annotations

import gzip
import os
import sys
import time

import numpy as np


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _file_bytes(args, kwargs):
    return os.path.getsize(_arg(args, kwargs, 0, "path"))


def _ppf_values(args, kwargs):
    return int(np.size(_arg(args, kwargs, 1, "u")))


def _rng_values(args, kwargs):
    return int(_arg(args, kwargs, 1, "n"))


def _plan_key(args, kwargs):
    return (int(_arg(args, kwargs, 0, "n")), float(_arg(args, kwargs, 1, "alpha")))


def _window_points(args, kwargs):
    # classmethod: args[0] is the class
    return int(np.size(_arg(args, kwargs, 1, "points")))


def _stat_pairs(thetas_index):
    """(thetas, thetas x points) of a statistic taking thetas at that position."""

    def probe(args, kwargs):
        thetas = int(np.size(_arg(args, kwargs, thetas_index, "thetas")))
        return thetas, thetas * int(np.size(_arg(args, kwargs, 0, "points")))

    return probe


def _scan_cells(args, kwargs):
    cloud = _arg(args, kwargs, 0, "cloud")
    resolution = _arg(args, kwargs, 2, "resolution")
    if np.isscalar(resolution):
        return int(resolution) ** int(cloud.points.shape[1])
    return int(np.prod(resolution))


# (layer, module, qualified name, argument probe or None).  The probe maps
# the call's arguments to the layer's work count, recorded on the span.
TARGETS = (
    ("cli.parse", "cli", "_read_floats", _file_bytes),
    ("cli.parse", "cli", "_read_points", _file_bytes),
    ("cli.main", "cli", "main", None),
    ("sim.sampler", "sim", "FBetaDensity.ppf", _ppf_values),
    ("sim.study", "sim", "run_coverage_study", None),
    ("core.sort", "core", "SortedSample.from_data", None),
    ("core.split", "core", "split_sample", None),
    ("core.split", "core", "venter_pilot", None),
    ("numerics.quantile", "numerics", "qbeta", None),
    ("numerics.quantile", "numerics", "qchisq", None),
    ("numerics.rng", "numerics", "sample_uniform", _rng_values),
    ("spacings.plan", "spacings", "build_plan", _plan_key),
    ("spacings.m1", "spacings", "m1_confidence_interval", None),
    ("mest.window", "mest", "WindowStatistic.from_points", _window_points),
    ("mest.sweep", "mest", "m2_details", None),
    ("mest.sweep", "mest", "m2_adaptive_details", None),
    ("edelman.stat", "edelman", "fisher_combination_statistic", _stat_pairs(2)),
    ("edelman.stat", "edelman", "markov_ratio_statistic", _stat_pairs(3)),
    ("edelman.extract", "edelman", "m3_confidence_set", None),
    ("edelman.extract", "edelman", "m3prime_confidence_set", None),
    ("methods.dispatch", "methods", "compute_confidence_set", None),
    ("multivariate.radial", "multivariate", "radial_transform", None),
    ("multivariate.scan", "multivariate", "scan_region", _scan_cells),
    ("multivariate.scan", "multivariate", "contains_mode_candidate", None),
)

LAYERS = tuple(dict.fromkeys(t[0] for t in TARGETS))

# Every per-layer metric, in report order, with its unit.  All values are
# means per traced op.
METRICS = (
    ("cli.parse.calls", "count/op"),
    ("cli.parse.bytes", "B/op"),
    ("cli.parse.self_s", "s/op"),
    ("cli.main.self_s", "s/op"),
    ("sim.sampler.calls", "count/op"),
    ("sim.sampler.values", "count/op"),
    ("sim.sampler.self_s", "s/op"),
    ("sim.study.self_s", "s/op"),
    ("core.sort.calls", "count/op"),
    ("core.sort.self_s", "s/op"),
    ("core.split.calls", "count/op"),
    ("core.split.self_s", "s/op"),
    ("numerics.quantile.calls", "count/op"),
    ("numerics.quantile.self_s", "s/op"),
    ("numerics.rng.values", "count/op"),
    ("numerics.rng.self_s", "s/op"),
    ("spacings.plan.calls", "count/op"),
    ("spacings.plan.hit_ratio", "ratio"),
    ("spacings.plan.self_s", "s/op"),
    ("spacings.m1.calls", "count/op"),
    ("spacings.m1.self_s", "s/op"),
    ("mest.window.calls", "count/op"),
    ("mest.window.points", "count/op"),
    ("mest.window.self_s", "s/op"),
    ("mest.sweep.bandwidths", "count/op"),
    ("mest.sweep.self_s", "s/op"),
    ("edelman.stat.calls", "count/op"),
    ("edelman.stat.thetas", "count/op"),
    ("edelman.stat.pairs", "count/op"),
    ("edelman.stat.self_s", "s/op"),
    ("edelman.extract.self_s", "s/op"),
    ("methods.dispatch.calls", "count/op"),
    ("methods.dispatch.self_s", "s/op"),
    ("multivariate.radial.calls", "count/op"),
    ("multivariate.radial.self_s", "s/op"),
    ("multivariate.scan.cells", "count/op"),
    ("multivariate.scan.self_s", "s/op"),
    ("trace.op_s", "s/op"),
    ("trace.overhead_ratio", "ratio"),
)


class Tracer:
    """Records spans for every layer in ``TARGETS`` while installed."""

    def __init__(self):
        self.spans: list = []  # (layer index, start, end, parent, call, probe value)
        self.stack: list[int] = []
        self.call = -1  # index of the traced call, set by the caller
        self.missing: set[str] = set()
        self._bindings: list[tuple[object, str, object, object]] = []
        self._resolve()

    def _resolve(self):
        """Find every binding of every target; record missing targets."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "modeset" or name.startswith("modeset."))]
        for layer, module_name, qualname, probe in TARGETS:
            module = sys.modules.get(f"modeset.{module_name}")
            owner_name, _, attr = qualname.rpartition(".")
            owner = module
            if module is not None and owner_name:
                owner = getattr(module, owner_name, None)
            raw = None if owner is None else vars(owner).get(attr)
            if raw is None:
                self.missing.add(f"{module_name}.{qualname}")
                continue
            wrapper = self._wrap(LAYERS.index(layer), raw, probe)
            if owner_name:
                self._bindings.append((owner, attr, raw, wrapper))
                continue
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is raw:
                        self._bindings.append((mod, name, raw, wrapper))

    def _wrap(self, layer_index, raw, probe):
        if isinstance(raw, (classmethod, staticmethod)):
            return type(raw)(self._wrap(layer_index, raw.__func__, probe))
        spans = self.spans
        stack = self.stack
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            value = None
            if probe is not None:
                try:
                    value = probe(args, kwargs)
                except (IndexError, KeyError, TypeError, AttributeError, ValueError, OSError):
                    # the signature changed: count nothing, never fail the call
                    tracer.missing.add(f"{LAYERS[layer_index]} work count")
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return raw(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (layer_index, start, end, parent, tracer.call, value)

        wrapper.__wrapped__ = raw
        wrapper.__name__ = getattr(raw, "__name__", "wrapped")
        return wrapper

    def install(self):
        for owner, name, _, wrapper in self._bindings:
            setattr(owner, name, wrapper)

    def uninstall(self):
        for owner, name, raw, _ in self._bindings:
            setattr(owner, name, raw)

    def write(self, path):
        """Write every span as gzip CSV: call,layer,start,end,parent."""
        with gzip.open(path, "wt", encoding="ascii", compresslevel=1) as fh:
            fh.write("call,layer,start,end,parent\n")
            for layer, start, end, parent, call, _ in self.spans:
                fh.write(f"{call},{LAYERS[layer]},{start!r},{end!r},{parent}\n")


    def summarize(self, n_ops):
        """Per-layer metrics as means over ``n_ops`` traced ops."""
        spans = self.spans
        n_ops = max(n_ops, 1)
        layer, parent, self_time = _self_times(spans)
        calls = np.bincount(layer, minlength=len(LAYERS))
        self_total = np.bincount(layer, weights=self_time, minlength=len(LAYERS))

        def idx(name):
            return LAYERS.index(name)

        probes: dict[int, list] = {}
        for s in spans:
            if s[5] is not None:
                probes.setdefault(s[0], []).append(s[5])

        def probe_sum(name, pick=lambda v: v):
            return sum(pick(v) for v in probes.get(idx(name), ()))

        out = {f"{name}.self_s": self_total[i] / n_ops for i, name in enumerate(LAYERS)}
        for name in ("cli.parse", "sim.sampler", "core.sort", "core.split",
                     "numerics.quantile", "spacings.plan", "spacings.m1",
                     "mest.window", "edelman.stat", "methods.dispatch",
                     "multivariate.radial"):
            out[f"{name}.calls"] = calls[idx(name)] / n_ops
        out["cli.parse.bytes"] = probe_sum("cli.parse") / n_ops
        out["sim.sampler.values"] = probe_sum("sim.sampler") / n_ops
        out["numerics.rng.values"] = probe_sum("numerics.rng") / n_ops
        out["mest.window.points"] = probe_sum("mest.window") / n_ops
        out["edelman.stat.thetas"] = probe_sum("edelman.stat", lambda v: v[0]) / n_ops
        out["edelman.stat.pairs"] = probe_sum("edelman.stat", lambda v: v[1]) / n_ops
        out["multivariate.scan.cells"] = probe_sum("multivariate.scan") / n_ops
        # bandwidths: window statistics built directly under a sweep span
        under = parent[layer == idx("mest.window")]
        out["mest.sweep.bandwidths"] = (
            int(np.count_nonzero(layer[under[under >= 0]] == idx("mest.sweep"))) / n_ops
        )
        # plan hit ratio from the arguments: 1 - distinct (n, alpha) / calls, per call
        keys_by_call: dict[int, list] = {}
        plan = idx("spacings.plan")
        for s in spans:
            if s[0] == plan and s[5] is not None:
                keys_by_call.setdefault(s[4], []).append(s[5])
        ratios = [1.0 - len(set(keys)) / len(keys) for keys in keys_by_call.values()]
        out["spacings.plan.hit_ratio"] = float(np.mean(ratios)) if ratios else 0.0
        return {k: float(v) for k, v in out.items()}

    def self_time_by_call(self):
        """{call: {layer: self seconds}}, for a breakdown by call kind."""
        layer, _, self_time = _self_times(self.spans)
        out: dict[int, dict[str, float]] = {}
        for s, i, self_s in zip(self.spans, layer, self_time):
            per_call = out.setdefault(s[4], {})
            per_call[LAYERS[i]] = per_call.get(LAYERS[i], 0.0) + float(self_s)
        return out


def _self_times(spans):
    """Layer index, parent index and self time of every span, as arrays."""
    n = len(spans)
    layer = np.fromiter((s[0] for s in spans), dtype=np.int64, count=n)
    parent = np.fromiter((s[3] for s in spans), dtype=np.int64, count=n)
    dur = np.fromiter((s[2] - s[1] for s in spans), dtype=np.float64, count=n)
    has_parent = parent >= 0
    child_time = np.zeros(n)
    np.add.at(child_time, parent[has_parent], dur[has_parent])
    return layer, parent, dur - child_time
