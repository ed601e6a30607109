"""Command-line interface.

Three subcommands: ``ci`` computes one univariate confidence set from a
file of numbers, ``simulate`` runs the Monte-Carlo coverage/width study,
and ``mode2d`` scans a rectangle of candidate modes for multivariate data.
Payload goes to stdout (or ``--out``); diagnostics go to stderr.  Exit
codes: 0 success, 2 data or validation error, 3 method infeasible for the
given sample.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .core import MethodInfeasibleError
from .mest import geometric_grid
from .methods import METHOD_CODES, compute_confidence_set
from .multivariate import PointCloud, scan_region
from .numerics import RngStream
from .sim import coverage_report_csv, replication_widths_csv, run_coverage_study

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_INFEASIBLE = 3


def _read_floats(path: str) -> np.ndarray:
    """One float per line; blank lines and extra whitespace tolerated."""
    with open(path, "r", encoding="utf-8") as fh:
        tokens = fh.read().split()
    if not tokens:
        raise ValueError(f"input file {path} contains no numbers")
    try:
        return np.array([float(t) for t in tokens], dtype=np.float64)
    except ValueError as exc:
        raise ValueError(f"input file {path} has a non-numeric entry: {exc}") from None


def _read_points(path: str) -> np.ndarray:
    """Headerless CSV of coordinates, one point per row."""
    try:
        arr = np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)
    except Exception as exc:
        raise ValueError(f"could not parse {path} as headerless CSV: {exc}") from None
    if arr.size == 0:
        raise ValueError(f"input file {path} contains no points")
    return arr


def _parse_list(text: str, cast):
    try:
        return [cast(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"could not parse list argument {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modeset",
        description="Finite-sample valid confidence sets for the mode "
        "of a unimodal distribution.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ci = sub.add_parser("ci", help="confidence set from a file of numbers")
    ci.add_argument("--method", choices=METHOD_CODES, default="m1")
    ci.add_argument("--alpha", type=float, default=0.05)
    ci.add_argument("--input", required=True, help="text file, one number per line")
    ci.add_argument("--h", type=float, default=None, help="bandwidth for m2")
    ci.add_argument("--h-grid-min", type=float, default=None)
    ci.add_argument("--h-grid-max", type=float, default=None)
    ci.add_argument("--h-grid-size", type=int, default=None,
                    help="bandwidths in the m2a grid (default 64)")
    ci.add_argument("--rho", type=float, default=None,
                    help="damping exponent for m3p (default 2)")
    ci.add_argument("--pilot-r", type=int, default=None)
    ci.add_argument("--split-seed", type=int, default=None, help="default 0")
    ci.add_argument("--format", choices=("json", "csv"), default="json")

    sim = sub.add_parser("simulate", help="Monte-Carlo coverage/width study")
    sim.add_argument("--methods", default="m1,m2,m3")
    sim.add_argument("--n", default="1000,2000")
    sim.add_argument("--beta", default="0.5,1,2,4")
    sim.add_argument("--alpha", type=float, default=0.05)
    sim.add_argument("--reps", type=int, default=1000)
    sim.add_argument("--seed", type=int, default=42)
    sim.add_argument("--out", default="-", help="CSV destination, '-' for stdout")
    sim.add_argument("--emit-widths", default=None, metavar="PATH",
                     help="also write per-replication widths to PATH")
    sim.add_argument("--workers", type=int, default=1, help="process count (default 1)")

    m2d = sub.add_parser("mode2d", help="candidate-mode scan for multivariate data")
    m2d.add_argument("--gamma", type=float, required=True)
    m2d.add_argument("--alpha", type=float, default=0.05)
    m2d.add_argument("--input", required=True, help="headerless CSV of points")
    # no m2: it needs a bandwidth, and mode2d has no --h
    m2d.add_argument("--method", choices=("m1", "m2a", "m3", "m3p"), default="m1")
    m2d.add_argument("--box", default="auto",
                     help="'auto' or lo:hi pairs, comma separated per dimension")
    m2d.add_argument("--res", type=int, default=64, help="cells per dimension")
    m2d.add_argument("--out", default=None,
                     help="mask CSV destination (default: stdout)")
    return parser


# flags of ``ci`` that only some methods take, by argparse destination
_METHOD_FLAGS = {
    "h": ("m2",),
    "h_grid_min": ("m2a",),
    "h_grid_max": ("m2a",),
    "h_grid_size": ("m2a",),
    "rho": ("m3p",),
    "pilot_r": ("m2", "m2a", "m3", "m3p"),
    "split_seed": ("m2", "m2a", "m3", "m3p"),
}


def _run_ci(args) -> int:
    for dest, methods in _METHOD_FLAGS.items():
        if getattr(args, dest) is not None and args.method not in methods:
            flag = "--" + dest.replace("_", "-")
            named = ("method " if len(methods) == 1 else "methods ") + ", ".join(methods)
            raise ValueError(f"{flag} applies only to {named}, not {args.method}")
    data = _read_floats(args.input)
    h_grid = None
    if (args.h_grid_min, args.h_grid_max, args.h_grid_size) != (None, None, None):
        if args.h_grid_min is None or args.h_grid_max is None:
            raise ValueError("--h-grid-min and --h-grid-max must be given together")
        size = 64 if args.h_grid_size is None else args.h_grid_size
        h_grid = geometric_grid(args.h_grid_min, args.h_grid_max, size)
    cs = compute_confidence_set(
        data,
        args.alpha,
        args.method,
        h=args.h,
        h_grid=h_grid,
        **({} if args.rho is None else {"rho": args.rho}),
        pilot_r=args.pilot_r,
        split_stream=RngStream(args.split_seed or 0, 0),
    )
    if args.format == "json":
        payload = json.dumps(cs.to_json_dict(alpha=args.alpha, method=args.method))
        sys.stdout.write(payload + "\n")
    else:
        sys.stdout.write("lo,hi\n")
        for lo, hi in cs.intervals:
            sys.stdout.write(f"{lo!r},{hi!r}\n")
    return EXIT_OK


def _run_simulate(args) -> int:
    reports = run_coverage_study(
        _parse_list(args.methods, str),
        _parse_list(args.n, int),
        _parse_list(args.beta, float),
        alpha=args.alpha,
        replications=args.reps,
        base_seed=args.seed,
        workers=args.workers,
    )
    payload = coverage_report_csv(reports)
    if args.out == "-":
        sys.stdout.write(payload)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    if args.emit_widths is not None:
        with open(args.emit_widths, "w", encoding="utf-8") as fh:
            fh.write(replication_widths_csv(reports))
    for r in reports:
        sys.stderr.write(
            f"{r.method} n={r.n} beta={r.beta} took {r.wall_time_s:.2f}s\n"
        )
    return EXIT_OK


def _parse_box(text: str, points: np.ndarray):
    if text == "auto":
        lo = points.min(axis=0)
        hi = points.max(axis=0)
        pad = 0.1 * (hi - lo)
        pad[pad == 0] = 1.0
        return [(float(a - p), float(b + p)) for a, b, p in zip(lo, hi, pad)]
    sides = []
    for token in text.split(","):
        parts = token.split(":")
        if len(parts) != 2:
            raise ValueError(f"box side {token!r} is not of the form lo:hi")
        lo, hi = float(parts[0]), float(parts[1])
        sides.append((lo, hi))
    return sides


def _run_mode2d(args) -> int:
    points = _read_points(args.input)
    cloud = PointCloud.from_points(points, args.gamma)
    box = _parse_box(args.box, cloud.points)
    grid = scan_region(cloud, box, args.res, args.alpha, args.method)
    header = ",".join(f"x{i}" for i in range(cloud.d)) + ",in_set"
    lines = [header]
    for row in grid.rows():
        *coords, member = row
        lines.append(",".join(repr(c) for c in coords) + f",{int(member)}")
    payload = "\n".join(lines) + "\n"
    summary = json.dumps(
        {
            "cells": int(grid.mask.size),
            "members": int(grid.mask.sum()),
            "box": [list(side) for side in grid.box],
            "resolution": list(grid.resolution),
            "alpha": args.alpha,
            "gamma": args.gamma,
            "method": args.method,
        }
    )
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
        sys.stdout.write(summary + "\n")
    else:
        sys.stdout.write(payload)
        sys.stderr.write(summary + "\n")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    runners = {"ci": _run_ci, "simulate": _run_simulate, "mode2d": _run_mode2d}
    try:
        return runners[args.command](args)
    except MethodInfeasibleError as exc:
        sys.stderr.write(f"modeset {args.command}: {exc}\n")
        return EXIT_INFEASIBLE
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"modeset {args.command}: {exc}\n")
        return EXIT_INVALID


if __name__ == "__main__":
    raise SystemExit(main())
