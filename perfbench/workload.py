"""One workload process of the modeset benchmark.

Imports modeset, runs one untimed warm-up op, then a closed loop with one
client for the requested seconds.  An op is one cycle of the workload's
calls; every call is ``modeset.cli.main([...])`` in-process with stdout and
stderr captured, and every output is checked.  Between untraced calls a
fixed yardstick runs, so each call's time can be read against the host's
speed at that moment.  The last line of stdout is one JSON object that
``run.py`` turns into the benchmark result.  ``run.py`` generates the input
files, pins the thread counts and sets PYTHONPATH before starting this.

numpy is not imported before modeset, so ``setup_s`` covers its import.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("simulate", "ci", "mode2d")

ALPHA = 0.05
SIM_METHODS = ("m1", "m2", "m2a")
SIM_N = (1000, 4000)
SIM_BETA = (1.0, 4.0)
SIM_REPS = 4
# ci op cycle, in order: method -> lines in its input file
CI_SIZES = {"m1": 1_000_000, "m2a": 50_000, "m3": 4000, "m3p": 4000}
CLOUD_POINTS = 1000
MODE2D_RES = 64
# setup_s is scaled to a host on which one yardstick run takes this long
YARDSTICK_REF_S = 0.050


def ci_input(work: Path, kind: str) -> Path:
    return work / f"ci_{kind}.txt"


def ci_values(work: Path, kind: str) -> Path:
    """The generated values of ``ci_input`` as .npy, for the reference check."""
    return work / f"ci_{kind}.npy"


def cloud_input(work: Path) -> Path:
    return work / "cloud.csv"


def run_call(main, argv):
    """Call the CLI in-process: (seconds, exit code or None, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    except SystemExit as exc:  # argparse rejects the flags
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a call that raises is a failed call, not a failed run
        err.write(f"{type(exc).__name__}: {exc}\n")
        rc = None
    return time.perf_counter() - start, rc, out.getvalue(), err.getvalue()


class Record:
    """One call of the timed loop; ``index`` is the cycle it belongs to."""

    __slots__ = ("kind", "index", "latency", "ok", "keep", "traced")

    def __init__(self, kind, index, latency, ok, keep, traced=False):
        self.kind, self.index, self.latency = kind, index, latency
        self.ok, self.keep, self.traced = ok, keep, traced


class Study:
    """``simulate``: one single-process coverage study per op, fresh seed."""

    throughput = "reps_per_s"  # method-replications per second
    items_per_call = len(SIM_METHODS) * len(SIM_N) * len(SIM_BETA) * SIM_REPS

    def __init__(self, seed: int):
        self.seed = seed
        self.covered = dict.fromkeys(SIM_METHODS, 0)
        self.total = dict.fromkeys(SIM_METHODS, 0)
        self.pooled: set[str] = set()  # CSVs already pooled; a traced run repeats each seed

    def argv(self, index: int) -> list[str]:
        return [
            "simulate", "--methods", ",".join(SIM_METHODS),
            "--n", ",".join(map(str, SIM_N)), "--beta", ",".join(map(repr, SIM_BETA)),
            "--reps", str(SIM_REPS), "--seed", str(self.seed * 100_000 + index),
            "--workers", "1",
        ]

    def warmup(self):
        return [("study", self.argv(0))]

    def cycle(self, i: int):
        return [("study", self.argv(i + 1))]

    def check(self, kind, out, err):
        """CSV covers the grid with the requested reps and no errored replication."""
        try:
            rows = list(csv.DictReader(io.StringIO(out)))
            cells = [(r["method"], int(r["n"]), float(r["beta"])) for r in rows]
            counts = [(r["method"], int(r["reps"]), float(r["coverage"]), int(r["errors"]))
                      for r in rows]
        except (KeyError, ValueError, TypeError):
            return False, None
        grid = [(m, n, b) for m in SIM_METHODS for n in SIM_N for b in SIM_BETA]
        if cells != grid:
            return False, None
        covered = []
        for method, reps, coverage, errors in counts:
            hits = round(coverage * reps)
            if reps != SIM_REPS or errors != 0 or hits / reps != coverage:
                return False, None
            covered.append((method, hits, reps))
        if out not in self.pooled:
            self.pooled.add(out)
            for method, hits, reps in covered:
                self.covered[method] += hits
                self.total[method] += reps
        return True, out

    def finish(self, main, records):
        """Rerun the first op's seed: the CSV must not change.

        Pooled coverage per method must clear 1 - alpha - 2 sqrt(alpha (1 - alpha) / R);
        if it does not, every op shares the blame and counts as failed.
        """
        first = records[0]
        _, rc, out, _ = run_call(main, self.argv(first.index + 1))
        if rc != 0 or out != first.keep:
            first.ok = False
        failures = []
        for method in SIM_METHODS:
            total = self.total[method]
            if not total:
                continue
            floor = 1 - ALPHA - 2 * math.sqrt(ALPHA * (1 - ALPHA) / total)
            if self.covered[method] / total < floor:
                failures.append(
                    f"{method} pooled coverage {self.covered[method]}/{total} below {floor:.4f}"
                )
        if failures:
            for rec in records:
                rec.ok = False
        return failures


class Ci:
    """``ci``: ops cycle through ci m1, m2a, m3 and m3p, each on its own file."""

    throughput = "calls_per_s"
    items_per_call = 1

    def __init__(self, work: Path):
        self.work = work

    def warmup(self):
        return self.cycle(0)

    def cycle(self, i: int):
        return [(kind, ["ci", "--method", kind, "--input", str(ci_input(self.work, kind))])
                for kind in CI_SIZES]

    def check(self, kind, out, err):
        """JSON parses; intervals ascending, disjoint, lo <= hi; width is their sum."""
        try:
            payload = json.loads(out)
            intervals = [[float(lo), float(hi)] for lo, hi in payload["intervals"]]
            width = float(payload["width"])
        except (KeyError, ValueError, TypeError):
            return False, None
        total, prev_hi = 0.0, -math.inf
        for k, (lo, hi) in enumerate(intervals):
            if math.isnan(lo) or math.isnan(hi) or lo > hi or (k and lo <= prev_hi):
                return False, None
            total += hi - lo
            prev_hi = hi
        return total == width, intervals

    def finish(self, main, records):
        """Each call's intervals are bit-identical to compute_confidence_set."""
        import numpy as np
        from modeset import RngStream, compute_confidence_set

        for kind in CI_SIZES:
            values = np.load(ci_values(self.work, kind))
            ref = compute_confidence_set(values, ALPHA, kind, rho=2.0,
                                         split_stream=RngStream(0, 0))
            expected = [[lo, hi] for lo, hi in ref.intervals]
            for rec in records:
                if rec.kind == kind and rec.keep != expected:
                    rec.ok = False
        return []


class Mode2d:
    """``mode2d``: one scan of the candidate-mode grid per op."""

    throughput = "cells_per_s"
    items_per_call = MODE2D_RES**2

    def __init__(self, work: Path):
        self.work = work
        self.mask = None

    def warmup(self):
        return self.cycle(0)

    def cycle(self, i: int):
        return [("scan", ["mode2d", "--gamma", "2", "--res", str(MODE2D_RES),
                          "--box", "auto", "--input", str(cloud_input(self.work))])]

    def check(self, kind, out, err):
        """Mask identical across scans; summary members equal the mask's sum."""
        lines = out.splitlines()
        try:
            summary = json.loads(err.strip().splitlines()[-1])
            cells, members = int(summary["cells"]), int(summary["members"])
        except (IndexError, KeyError, ValueError, TypeError):
            return False, None
        if not lines or lines[0] != "x0,x1,in_set":
            return False, None
        mask = "".join(line.rpartition(",")[2] for line in lines[1:])
        if self.mask is None:
            self.mask = mask
        ok = (
            len(mask) == cells == MODE2D_RES**2
            and set(mask) <= {"0", "1"}
            and mask.count("1") == members
            and mask == self.mask
        )
        return ok, None

    def finish(self, main, records):
        return []


def make_workload(name: str, seed: int, work: Path):
    if name == "simulate":
        return Study(seed)
    if name == "ci":
        return Ci(work)
    return Mode2d(work)


def tail(latencies):
    """Highest percentile with at least ten samples beyond it: (value, percentile)."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


class Yardstick:
    """A fixed piece of Python and numpy work, timed between untraced calls.

    The work is the same for every seed and every version of modeset: text
    to floats, numpy sorts, an interpreter loop, small numpy calls in a
    Python loop and ``np.loadtxt`` on CSV, about 10 ms each on the reference
    machine.  On a shared host the speed of the same work swings by up to
    1.5x within a run and between runs.  It swings for this mix about as
    for the ci and mode2d calls around it (log-log slope 0.97 over 20 s
    windows), so a call's time over the time of the yardstick runs just
    before and after it measures the program and not its neighbours.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.text = "\n".join(map(repr, rng.standard_normal(20_000).tolist()))
        self.array = rng.standard_normal(100_000)
        self.small = np.sort(rng.standard_normal(1000))
        self.csv = "\n".join(f"{x!r},{y!r}" for x, y in rng.standard_normal((8000, 2)).tolist())
        self.times: list[float] = []

    def run(self):
        import numpy as np

        start = time.perf_counter()
        np.array([float(t) for t in self.text.split()])
        for _ in range(8):
            np.sort(self.array)
        total = 0
        for i in range(160_000):
            total += i * i % 7
        for i in range(2400):
            k = int(np.searchsorted(self.small, 0.0005 * i))
            self.small[max(k - 5, 0):k + 5].sum()
        np.loadtxt(io.StringIO(self.csv), delimiter=",")
        self.times.append(time.perf_counter() - start)


def timed_loop(main, wl, seconds, tracer=None, yardstick=None):
    """Closed loop of whole op cycles until ``seconds`` have passed.

    With a tracer every call runs twice on the same input, untraced and
    traced, in alternating order, so the trace overhead is measured.  With
    a yardstick, it runs once after every call; its first run, before the
    first call, is the warm-up's.
    """
    records: list[Record] = []
    start = time.perf_counter()
    i = 0
    while True:
        for kind, argv in wl.cycle(i):
            passes = (False,) if tracer is None else ((False, True), (True, False))[i % 2]
            for traced in passes:
                if traced:
                    tracer.call = len(records)
                    tracer.install()
                latency, rc, out, err = run_call(main, argv)
                if traced:
                    tracer.uninstall()
                ok, keep = wl.check(kind, out, err) if rc == 0 else (False, None)
                records.append(Record(kind, i, latency, ok, keep, traced))
                if yardstick is not None:
                    yardstick.run()
        i += 1
        if time.perf_counter() - start >= seconds:
            return records


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    t0 = time.perf_counter()
    import modeset
    from modeset import cli

    source = Path(modeset.__file__).resolve()
    if ROOT / "src" not in source.parents:
        sys.stderr.write(f"modeset was imported from {source}, not from this checkout\n")
        return 1

    def call(argv):  # looked up per call, so a traced cli.main is seen
        return cli.main(argv)

    wl = make_workload(args.workload, args.seed, args.work)
    warmup_ok = True
    for kind, argv in wl.warmup():
        _, rc, out, err = run_call(call, argv)
        warmup_ok &= rc == 0 and wl.check(kind, out, err)[0]
    setup_s = time.perf_counter() - t0
    # the host's speed right after set-up: one warm-up run, then three
    yardstick = Yardstick()
    for _ in range(4):
        yardstick.run()
    host_factor = statistics.median(yardstick.times[1:]) / YARDSTICK_REF_S
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "host_factor": host_factor}))
        return 0

    tracer = None
    if args.trace:
        import layertrace

        tracer = layertrace.Tracer()
    else:
        yardstick.times.clear()
        yardstick.run()  # the run before the first call
    records = timed_loop(call, wl, args.seconds, tracer, None if args.trace else yardstick)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    run_failures = wl.finish(call, records)
    if not warmup_ok:
        run_failures.append("a warm-up op failed its check")

    import numpy
    import scipy

    result = {
        "setup_s": setup_s,
        "host_factor": host_factor,
        "attempted": len(records),
        "failed": sum(not r.ok for r in records),
        "run_failures": run_failures,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }
    if tracer is None:
        # An op is one cycle: the ci calls differ up to fourfold in cost,
        # so a median over calls would sit between two call kinds.
        cycles: dict[int, float] = {}
        for r in records:
            cycles[r.index] = cycles.get(r.index, 0.0) + r.latency
        latencies = list(cycles.values())
        tail_s, pct = tail(latencies)
        # each call's time over the mean of the yardstick runs around it;
        # the op's ratio is the sum of each call kind's median
        yard = yardstick.times
        ratios: dict[str, list[float]] = {}
        for j, r in enumerate(records):
            ratios.setdefault(r.kind, []).append(2 * r.latency / (yard[j] + yard[j + 1]))
        result["metrics"] = {
            "op_time_ratio": sum(statistics.median(v) for v in ratios.values()),
            "peak_rss_mb": peak_rss_mb,
        }
        result["unlisted"] = {
            wl.throughput: (wl.items_per_call * len(records) / sum(latencies), "1/s"),
            "op_p50_ms": (1e3 * statistics.median(latencies), "ms"),
            "op_tail_ms": (1e3 * tail_s, "ms"),
            "yardstick_ms": (1e3 * statistics.median(yard), "ms"),
        }
        result["tail"] = {"percentile": pct, "samples": len(latencies)}
        result["calls_by_kind"] = {}
        for kind, v in ratios.items():
            times = [r.latency for r in records if r.kind == kind]
            result["calls_by_kind"][kind] = {"calls": len(times),
                                             "p50_ms": 1e3 * statistics.median(times),
                                             "time_ratio": statistics.median(v)}
    else:
        traced = [r for r in records if r.traced]
        traced_s = sum(r.latency for r in traced)
        untraced_s = sum(r.latency for r in records if not r.traced)
        n_ops = len({r.index for r in traced})
        metrics = tracer.summarize(n_ops)
        metrics["trace.op_s"] = traced_s / n_ops
        metrics["trace.overhead_ratio"] = traced_s / untraced_s
        result["metrics"] = metrics
        result["missing_layers"] = sorted(tracer.missing)
        result["by_kind"] = by_kind(tracer, records)
        tracer.write(args.work / "spans.csv.gz")
    print(json.dumps(result))
    return 0


def by_kind(tracer, records):
    """Mean traced call time and mean self time per layer, per call kind."""
    per_call = tracer.self_time_by_call()
    out: dict[str, dict] = {}
    for call, rec in enumerate(records):
        if not rec.traced:
            continue
        entry = out.setdefault(rec.kind, {"calls": 0, "call_s": 0.0, "self_s": {}})
        entry["calls"] += 1
        entry["call_s"] += rec.latency
        for layer, self_s in per_call.get(call, {}).items():
            entry["self_s"][layer] = entry["self_s"].get(layer, 0.0) + self_s
    for entry in out.values():
        entry["call_s"] /= entry["calls"]
        entry["self_s"] = {k: v / entry["calls"] for k, v in entry["self_s"].items()}
    return out


if __name__ == "__main__":
    raise SystemExit(main())
