"""Monte-Carlo coverage and width studies on the piecewise power test density.

The test density has mode 0 with height 1/2, behaves like
1/2 - |x|**beta / 2 on [-1, 0], and descends on the right as
1/2 - beta**beta * x**beta / (2 * (beta + 2)**beta) until it hits zero at
(beta + 2) / beta; beta controls the flatness at the mode.  Sampling is by
inverse transform on the closed-form piecewise distribution function.

The study engine runs seeded replications per (method, n, beta), records
whether each confidence set covers the true mode 0 and how wide it is, and
aggregates to a deterministic report: the same base seed reproduces every
value bit for bit, with replications addressable by stream id so they can
run in parallel.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .core import ModeSetError, check_alpha
from .methods import METHOD_CODES, run_method
from .numerics import RngStream, sample_uniform

__all__ = [
    "CoverageReport",
    "FBetaDensity",
    "coverage_report_csv",
    "replication_widths_csv",
    "run_coverage_study",
    "study_bandwidth",
]

_PPF_BISECTIONS = 90


@dataclass(frozen=True)
class FBetaDensity:
    """Piecewise power density with mode 0 and smoothness exponent beta."""

    beta: float

    def __post_init__(self):
        if not self.beta > 0 or not math.isfinite(self.beta):
            raise ValueError(f"beta must be a positive finite real, got {self.beta}")

    @property
    def upper(self) -> float:
        """Right support endpoint (beta + 2) / beta."""
        return (self.beta + 2.0) / self.beta

    @property
    def mass_left(self) -> float:
        """Distribution function at the mode: beta / (2 (beta + 1))."""
        return self.beta / (2.0 * (self.beta + 1.0))

    def pdf(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        b = self.beta
        left = 0.5 - 0.5 * np.abs(x) ** b
        right = 0.5 - (b**b) * np.abs(x) ** b / (2.0 * (b + 2.0) ** b)
        out = np.where(x <= 0, left, right)
        out = np.where((x < -1.0) | (x > self.upper), 0.0, out)
        return out

    def cdf(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        b = self.beta
        left = (x + 1.0) / 2.0 + ((-np.minimum(x, 0.0)) ** (b + 1.0) - 1.0) / (2.0 * (b + 1.0))
        xr = np.maximum(x, 0.0)
        right = self.mass_left + xr / 2.0 - (b**b) * xr ** (b + 1.0) / (
            2.0 * (b + 2.0) ** b * (b + 1.0)
        )
        out = np.where(x <= 0, left, right)
        out = np.where(x < -1.0, 0.0, out)
        out = np.where(x > self.upper, 1.0, out)
        return np.clip(out, 0.0, 1.0)

    def ppf(self, u) -> np.ndarray:
        """Quantile function by per-piece bisection, |cdf(x) - u| <= 1e-12."""
        u = np.atleast_1d(np.asarray(u, dtype=np.float64))
        out = np.empty(u.shape, dtype=np.float64)
        f0 = self.mass_left
        left = u < f0
        right = u > f0
        out[~left & ~right] = 0.0
        for mask, lo_edge, hi_edge in (
            (left, -1.0, 0.0),
            (right, 0.0, self.upper),
        ):
            if not np.any(mask):
                continue
            target = u[mask]
            lo = np.full(target.shape, lo_edge)
            hi = np.full(target.shape, hi_edge)
            for _ in range(_PPF_BISECTIONS):
                mid = 0.5 * (lo + hi)
                too_low = self.cdf(mid) < target
                lo = np.where(too_low, mid, lo)
                hi = np.where(too_low, hi, mid)
            out[mask] = 0.5 * (lo + hi)
        return out

    def sample(self, stream: RngStream, n: int) -> np.ndarray:
        return self.ppf(sample_uniform(stream, n))


def study_bandwidth(n: int, beta: float) -> float:
    """Bandwidth n**(-1/(1+2*beta)) * sqrt(ln n) used by the study for m2."""
    return n ** (-1.0 / (1.0 + 2.0 * beta)) * math.sqrt(math.log(n))


@dataclass(frozen=True)
class CoverageReport:
    """Aggregate of one (method, n, beta) cell of a coverage study.

    ``coverage`` counts replications whose set contains the true mode 0,
    divided by all replications (errored replications count as misses).
    ``wall_time_s`` is measured and therefore excluded from the
    deterministic CSV payload.
    """

    method: str
    n: int
    beta: float
    alpha: float
    replications: int
    coverage: float
    width_q10: float
    width_q50: float
    width_q90: float
    vacuous: int
    errors: int
    wall_time_s: float = field(compare=False)
    widths: tuple[float, ...] | None = field(default=None, compare=False)


def _data_stream(base_seed: int, rep: int) -> RngStream:
    return RngStream(base_seed, 2 * rep)


def _split_stream(base_seed: int, rep: int) -> RngStream:
    return RngStream(base_seed, 2 * rep + 1)


def _run_replication(args) -> tuple[bool, float, bool, bool]:
    """One replication: (covered, width, vacuous, errored)."""
    method, n, beta, alpha, base_seed, rep = args
    data = FBetaDensity(beta).sample(_data_stream(base_seed, rep), n)
    try:
        cs, vacuous = run_method(
            data, alpha, method, h=study_bandwidth(n, beta),
            split_stream=_split_stream(base_seed, rep),
        )
    except ModeSetError:
        # a replication whose data defeats the method (too small, pilot
        # collision) counts as an error; it must not kill the study
        return False, math.nan, False, True
    return cs.contains(0.0), cs.width, vacuous, False


def run_coverage_study(
    methods,
    n_values,
    beta_values,
    alpha: float = 0.05,
    replications: int = 1000,
    base_seed: int = 0,
    workers: int | None = None,
    keep_widths: bool = False,
) -> list[CoverageReport]:
    """Coverage and width study over a (method, n, beta) grid.

    Replication ``r`` of every cell draws its data from stream ``2r`` and
    its sample split from stream ``2r + 1`` of ``base_seed``, so cells
    share datasets (common random numbers across methods and, by prefix,
    across sample sizes) and the whole study is reproducible bit for bit.
    ``workers`` > 1 distributes replications over processes without
    changing any result.  Arguments are validated before any replication
    runs; a replication that raises ``ModeSetError`` counts as an error,
    while any other exception propagates.
    """
    if replications < 1:
        raise ValueError("replications must be positive")
    check_alpha(alpha)
    methods = list(methods)
    if not methods:
        raise ValueError("methods must be nonempty")
    unknown = [m for m in methods if m not in METHOD_CODES]
    if unknown:
        raise ValueError(f"unknown methods {unknown}; choose from {METHOD_CODES}")
    n_values = list(n_values)
    if any(n < 2 for n in n_values):
        raise ValueError(f"sample sizes must be at least 2, got {n_values}")
    beta_values = list(beta_values)
    for beta in beta_values:
        FBetaDensity(beta)  # raises on a non-positive or non-finite beta
    if workers is None:
        workers = int(os.environ.get("MODESET_THREADS", "1"))
    workers = max(1, workers)
    reports: list[CoverageReport] = []
    for method in methods:
        for n in n_values:
            for beta in beta_values:
                start = time.perf_counter()
                jobs = [
                    (method, int(n), float(beta), float(alpha), int(base_seed), rep)
                    for rep in range(replications)
                ]
                if workers > 1:
                    with ProcessPoolExecutor(max_workers=workers) as pool:
                        results = list(pool.map(_run_replication, jobs, chunksize=16))
                else:
                    results = [_run_replication(job) for job in jobs]
                covered = sum(1 for c, _, _, _ in results if c)
                per_rep = tuple(w for _, w, _, _ in results)  # NaN where errored
                widths = np.array(
                    [w for _, w, _, err in results if not err], dtype=np.float64
                )
                vacuous = sum(1 for _, _, v, _ in results if v)
                errors = sum(1 for _, _, _, err in results if err)
                if widths.size:
                    q10, q50, q90 = (
                        float(q) for q in np.quantile(widths, [0.1, 0.5, 0.9])
                    )
                else:
                    q10 = q50 = q90 = math.nan
                reports.append(
                    CoverageReport(
                        method=method,
                        n=int(n),
                        beta=float(beta),
                        alpha=float(alpha),
                        replications=replications,
                        coverage=covered / replications,
                        width_q10=q10,
                        width_q50=q50,
                        width_q90=q90,
                        vacuous=vacuous,
                        errors=errors,
                        wall_time_s=time.perf_counter() - start,
                        widths=per_rep if keep_widths else None,
                    )
                )
    return reports


_CSV_HEADER = "method,n,beta,alpha,reps,coverage,width_q10,width_q50,width_q90,vacuous,errors"


def coverage_report_csv(reports) -> str:
    """Deterministic CSV payload: identical seeds give identical bytes.

    Wall time is measured, not derived from the seed, so it stays out of
    the payload; read it from the report objects or the stderr summary.
    """
    lines = [_CSV_HEADER]
    for r in reports:
        lines.append(
            f"{r.method},{r.n},{r.beta!r},{r.alpha!r},{r.replications},"
            f"{r.coverage!r},{r.width_q10!r},{r.width_q50!r},{r.width_q90!r},"
            f"{r.vacuous},{r.errors}"
        )
    return "\n".join(lines) + "\n"


def replication_widths_csv(reports) -> str:
    """Per-replication widths for external box plotting (needs keep_widths).

    ``rep`` is the replication's stream index; errored replications are
    skipped, so the column may have gaps.
    """
    lines = ["method,n,beta,alpha,rep,width"]
    for r in reports:
        if r.widths is None:
            raise ValueError("per-replication widths were not kept; rerun with keep_widths")
        for rep, w in enumerate(r.widths):
            if math.isnan(w):
                continue
            lines.append(f"{r.method},{r.n},{r.beta!r},{r.alpha!r},{rep},{w!r}")
    return "\n".join(lines) + "\n"
