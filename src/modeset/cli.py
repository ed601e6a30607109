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
import functools
import itertools
import json
import sys
import warnings

import numpy as np

from .core import MethodInfeasibleError
from .methods import METHOD_CODES, METHOD_OPTIONS, SCAN_CODES, compute_confidence_set
from .multivariate import PointCloud, scan_region
from .numerics import RngStream
from .sim import coverage_report_csv, replication_widths_csv, run_coverage_study

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_INFEASIBLE = 3


def _read_floats(path: str) -> np.ndarray:
    """Whitespace-separated ASCII decimal numbers; blank lines tolerated."""
    with open(path, "rb") as fh:
        text = fh.read()
    if not text or text.isspace():  # fromstring reads blanks as [-1.0]
        raise ValueError(f"input file {path} contains no numbers")
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)  # numpy < 2 warns and truncates
        try:
            return np.fromstring(text, dtype=np.float64, sep=" ")
        except (ValueError, DeprecationWarning):
            for token in text.split():  # name the first token numpy rejects
                try:
                    np.fromstring(token, dtype=np.float64, sep=" ")
                except (ValueError, DeprecationWarning):
                    break
    raise ValueError(f"input file {path} has a non-numeric entry: could not convert "
                     f"string to float: {token.decode('utf-8', 'backslashreplace')!r}")


def _read_points(path: str) -> np.ndarray:
    """Headerless CSV of coordinates, one point per row."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
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
    ci.add_argument("--input", required=True, help="text file of whitespace-separated numbers")
    ci.add_argument("--h", type=float, default=None, help="bandwidth for m2")
    ci.add_argument("--rho", type=float, default=None,
                    help="damping exponent for m3p (default 2)")
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
    m2d.add_argument("--method", choices=SCAN_CODES, default="m1")
    m2d.add_argument("--box", default="auto",
                     help="'auto' or lo:hi pairs, comma separated per dimension")
    m2d.add_argument("--res", type=int, default=64, help="cells per dimension")
    m2d.add_argument("--out", default=None,
                     help="mask CSV destination (default: stdout)")
    return parser


# the run_method option that each method-specific flag of ``ci`` sets, by argparse destination
_FLAG_OPTIONS = {"h": "h", "rho": "rho", "split_seed": "split_stream"}


def _run_ci(args) -> int:
    for dest, option in _FLAG_OPTIONS.items():
        if getattr(args, dest) is not None and option not in METHOD_OPTIONS[args.method]:
            flag = "--" + dest.replace("_", "-")
            methods = [m for m, taken in METHOD_OPTIONS.items() if option in taken]
            named = ("method " if len(methods) == 1 else "methods ") + ", ".join(methods)
            raise ValueError(f"{flag} applies only to {named}, not {args.method}")
    data = _read_floats(args.input)
    split_stream = None if args.split_seed is None else RngStream(args.split_seed, 0)
    options = {"h": args.h, "rho": args.rho, "split_stream": split_stream}
    cs = compute_confidence_set(data, args.alpha, args.method,
                                **{k: v for k, v in options.items() if v is not None})
    if np.isinf(cs.width) and np.isfinite(cs.intervals).all():  # JSON null means unbounded
        raise MethodInfeasibleError("the set is bounded but its width exceeds the largest float")
    if args.format == "json":
        payload = json.dumps(cs.to_json_dict(alpha=args.alpha, method=args.method),
                             allow_nan=False)
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
        lo, hi = points.min(axis=0), points.max(axis=0)
        pad = 0.1 * (hi - lo)
        pad[pad == 0] = 1.0
        return [(float(a - p), float(b + p)) for a, b, p in zip(lo, hi, pad)]
    sides = []
    for token in text.split(","):
        try:
            lo, hi = map(float, token.split(":"))
        except ValueError:
            raise ValueError(f"box side {token!r} is not of the form lo:hi") from None
        sides.append((lo, hi))
    return sides


def _run_mode2d(args) -> int:
    points = _read_points(args.input)
    cloud = PointCloud.from_points(points, args.gamma)
    box = _parse_box(args.box, cloud.points)
    grid = scan_region(cloud, box, args.res, args.alpha, args.method)
    axes = [[repr(c) for c in grid.centers(i).tolist()] for i in range(cloud.d)]
    cells = zip(itertools.product(*axes), grid.mask.ravel().tolist())
    lines = [",".join(f"x{i}" for i in range(cloud.d)) + ",in_set"]
    lines += [",".join(coords) + (",1" if member else ",0") for coords, member in cells]
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


# one parser per process: building it costs more than parsing, and parse_args keeps no state
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
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
