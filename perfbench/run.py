"""Benchmark of modeset: two workloads, end-to-end metrics, per-layer trace.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ci --seed 1 --seconds 25 --trace 0

Workloads: simulate, ci and mode2d (see perfbench/README.md).
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` a separate
traced run that reports the per-layer metrics.  The inputs are generated
from ``--seed`` with numpy alone, before modeset is imported.  Every metric
is printed by name with its unit, then the result as one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  A fuller record,
with provenance, goes to perfbench/work/results/.
"""

from __future__ import annotations

import os

# Pinned before numpy loads here, and inherited by every workload process.
THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
os.environ.update(THREAD_PINS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import layertrace  # noqa: E402
import workload  # noqa: E402

ROOT = workload.ROOT
WORK = ROOT / "perfbench" / "work"
SETUP_SAMPLES = 5  # fresh processes whose set-up time is measured; median reported
DEADLINE_S = 170.0  # the whole run ends within this

END_TO_END = (
    ("op_time_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)
# what one throughput item is
THROUGHPUT_ITEM = {
    "reps_per_s": "method-replications per second",
    "calls_per_s": "ci invocations per second",
    "cells_per_s": "candidate cells per second",
}


def write_floats(path: Path, values: np.ndarray) -> None:
    """``%.17g``, one value per line: the text round-trips to the same doubles."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(map("%.17g".__mod__, values.ravel().tolist())))
        fh.write("\n")


def make_inputs(name: str, seed: int, work: Path) -> None:
    """Seeded inputs from numpy alone; no modeset code runs here.

    ci files are Triangular(-1, 0, 3), the study density at beta = 1; the
    mode2d cloud is 2-D standard normal, written as headerless CSV.
    simulate takes only a seed.
    """
    rng = np.random.default_rng(seed)
    if name == "ci":
        for kind, size in workload.CI_SIZES.items():
            values = rng.triangular(-1.0, 0.0, 3.0, size=size)
            write_floats(workload.ci_input(work, kind), values)
            np.save(workload.ci_values(work, kind), values)
    elif name == "mode2d":
        points = rng.standard_normal((workload.CLOUD_POINTS, 2))
        with open(workload.cloud_input(work), "w", encoding="ascii") as fh:
            fh.writelines(f"{x:.17g},{y:.17g}\n" for x, y in points.tolist())


def run_child(args, work: Path, timeout: float, setup_only: bool) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "workload.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--work", str(work)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"workload process exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def provenance(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "modeset").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
        "thread_pins": THREAD_PINS,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workload.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    started = time.perf_counter()
    if not (ROOT / "src" / "modeset" / "__init__.py").is_file():
        sys.stderr.write(f"no modeset sources under {ROOT / 'src'}\n")
        return 1

    work = WORK / args.workload
    work.mkdir(parents=True, exist_ok=True)
    make_inputs(args.workload, args.seed, work)

    children = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            children.append(run_child(args, work, 60.0, setup_only=True))
    remaining = DEADLINE_S - (time.perf_counter() - started)
    res = run_child(args, work, remaining, setup_only=False)
    children.append(res)
    setups = [c["setup_s"] for c in children]
    host_factors = [c["host_factor"] for c in children]

    metrics = dict(res["metrics"])
    units = dict(layertrace.METRICS) if args.trace else dict(END_TO_END)
    if not args.trace:
        # each set-up time over the host's speed measured right after it
        metrics["setup_s"] = statistics.median(s / f for s, f in zip(setups, host_factors))
        res["unlisted"]["setup_raw_s"] = (statistics.median(setups), "s")
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": dict(provenance(args.seed), versions=res["versions"]),
        "correct": res["failed"] == 0 and not res["run_failures"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "failed_ratio": res["failed"] / res["attempted"],
        "run_failures": res["run_failures"],
        "setup_samples_s": setups,
        "setup_host_factors": host_factors,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    if "unlisted" in res:
        record["unlisted"] = {k: {"value": v, "unit": u} for k, (v, u) in res["unlisted"].items()}
    for key in ("tail", "calls_by_kind", "missing_layers", "by_kind"):
        if key in res:
            record[key] = res[key]

    print(f"modeset benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print("provenance " + json.dumps(record["provenance"]))
    listed = [(name, unit, metrics[name]) for name, unit in units.items()]
    unlisted = [(k, v["unit"], v["value"]) for k, v in record.get("unlisted", {}).items()]
    for name, unit, value in listed + unlisted:
        note = ""
        if name == "op_time_ratio":
            note = "  (per call kind, median of call time / yardstick time around it)"
        elif name in THROUGHPUT_ITEM:
            note = f"  ({THROUGHPUT_ITEM[name]})"
        elif name == "op_tail_ms":
            note = f"  (p{res['tail']['percentile']:.1f} of {res['tail']['samples']} ops)"
        elif name == "setup_s":
            note = (f"  (median of {len(setups)} fresh processes, scaled to a "
                    f"{1e3 * workload.YARDSTICK_REF_S:g} ms yardstick)")
        elif name == "setup_raw_s":
            note = "  (median, unscaled)"
        print(f"  {name:28s} {value:.6g} {unit}{note}")
    print(f"  {'failed_ratio':28s} {record['failed_ratio']:.6g} ratio  "
          f"({res['failed']} of {res['attempted']} calls)")
    for kind, entry in record.get("calls_by_kind", {}).items():
        print(f"  call {kind}: time ratio {entry['time_ratio']:.3f}, p50 {entry['p50_ms']:.1f} ms "
              f"over {entry['calls']} calls")
    for kind, entry in record.get("by_kind", {}).items():
        top = sorted(entry["self_s"].items(), key=lambda kv: -kv[1])[:3]
        shares = ", ".join(f"{layer} {s / entry['call_s']:.0%}" for layer, s in top)
        print(f"  call {kind}: {entry['call_s'] * 1e3:.1f} ms traced; self time {shares}")
    for line in res.get("missing_layers", []):
        print(f"  missing layer target: {line}")
    for line in res["run_failures"]:
        print(f"  check failed: {line}")

    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
