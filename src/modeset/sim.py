"""Monte-Carlo coverage and width studies on the piecewise power test density.

The test density has mode 0 with height 1/2, behaves like
1/2 - |x|**beta / 2 on [-1, 0], and descends on the right as
1/2 - beta**beta * x**beta / (2 * (beta + 2)**beta) until it hits zero at
(beta + 2) / beta; beta controls the flatness at the mode.  Each piece
decreases away from the mode, so by Khintchine's representation a draw is
exact from three uniforms: one picks the side and the product of the other
two, one raised to 1/(beta + 1), gives the distance from the mode.

The study engine runs seeded replications per (method, n, beta), records
whether each confidence set covers the true mode 0 and how wide it is, and
aggregates to a deterministic report: the same base seed reproduces every
value bit for bit, with replications addressable by stream id so they can
run in parallel.
"""

from __future__ import annotations

import itertools
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .core import ModeSetError, check_alpha
from .methods import _check_method, _method_columns
from .numerics import RngStream, is_count, sample_uniform

__all__ = [
    "CoverageReport",
    "FBetaDensity",
    "coverage_report_csv",
    "replication_widths_csv",
    "run_coverage_study",
    "study_bandwidth",
]

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

    def sample(self, stream: RngStream, n: int) -> np.ndarray:
        """``n`` exact draws from three uniforms each, with no iteration.

        Each piece is proportional to 1 - (|x|/s)**beta on |x| <= s, with
        s = 1 on the left, which holds ``mass_left``, and s = ``upper`` on
        the right.  For U uniform and Z with density (beta + 1) z**beta on
        [0, 1], U*Z has density (beta + 1)/beta * (1 - t**beta) on [0, 1],
        the integral of (beta + 1) z**(beta - 1) over [t, 1] (Khintchine
        1938).  Z = V**(1/(beta + 1)) by inversion, so |x| = s*U*Z, and a
        third uniform below ``mass_left`` picks the left piece.  Draw i
        reads uniforms 3i..3i+2, so ``sample(s, k) == sample(s, n)[:k]``.
        """
        if not is_count(n) or n < 1:
            raise ValueError(f"n must be a positive integer, got {n}")
        u = sample_uniform(stream, 3 * n).reshape(n, 3)
        r = u[:, 1] * u[:, 2] ** (1.0 / (self.beta + 1.0))
        return np.where(u[:, 0] < self.mass_left, -r, self.upper * r)


def study_bandwidth(n: int, beta: float) -> float:
    """Bandwidth n**(-1/(1+2*beta)) * sqrt(ln n) used by the study for m2."""
    return n ** (-1.0 / (1.0 + 2.0 * beta)) * math.sqrt(math.log(n))


@dataclass(frozen=True)
class CoverageReport:
    """Aggregate of one (method, n, beta) cell of a coverage study.

    ``coverage`` counts replications whose set contains the true mode 0,
    divided by all replications (errored replications count as misses).
    ``wall_time_s`` sums this cell's method time over blocks of replications,
    in whichever process ran each; ``m1``, ``m2`` and ``m2a`` share one sort
    per (n, replication), and ``m3`` and ``m3p`` one split, each timed with
    the first method in ``methods`` that uses it.  It excludes sampling the
    shared data and is measured, so it stays out of the deterministic CSV
    payload.
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
    widths: tuple[float, ...] = field(compare=False)


_BLOCK_VALUES = 2**15  # cap on a block's replications times the largest n


def _run_block(methods, n_values, beta, alpha, base_seed, reps):
    """Per n and method at one beta, the method's seconds and a (covered, width,
    vacuous, errored) tuple for each replication in the range ``reps``, drawn
    once at the largest n and dispatched once per n on the length-n prefixes."""
    density = FBetaDensity(beta)
    full = np.stack([density.sample(RngStream(base_seed, 2 * rep), max(n_values)) for rep in reps])
    full.setflags(write=False)  # shared by every cell: no method may write to it
    by_n = []
    for n in n_values:
        columns = _method_columns(full[:, :n], alpha, methods, h=study_bandwidth(n, beta),
                                  split_stream=[RngStream(base_seed, 2 * rep + 1) for rep in reps])
        by_method, start = [], time.perf_counter()
        for column in columns:  # a shared sort or split is timed with the first method using it
            # data a method cannot handle (too small, pilot collision) is an error, not a crash
            outcomes = [(False, math.nan, False, True) if isinstance(res, ModeSetError) else
                        (res.confidence_set.contains(0.0), res.confidence_set.width, res.vacuous,
                         False) for res in column]
            by_method.append((time.perf_counter() - start, outcomes))
            start = time.perf_counter()
        by_n.append(by_method)
    return by_n


def _width_quantiles(widths: np.ndarray) -> list:
    """``np.quantile``'s 10%, 50% and 90% points, with its ``higher`` point wherever the linear
    one is nan: only beside an inf width, where it is inf or the equal neighbours' value."""
    with np.errstate(invalid="ignore"):  # numpy's interpolation reads inf - inf and inf * 0
        linear = np.quantile(widths, [0.1, 0.5, 0.9])
    if np.isnan(linear).any():
        higher = np.quantile(widths, [0.1, 0.5, 0.9], method="higher")
        linear = np.where(np.isnan(linear), higher, linear)
    return linear.tolist()


def run_coverage_study(methods, n_values, beta_values, alpha: float = 0.05,
                       replications: int = 1000, base_seed: int = 0,
                       workers: int = 1) -> list[CoverageReport]:
    """Coverage and width study over a (method, n, beta) grid.

    Replication ``r`` draws its data from stream ``2r`` of ``base_seed`` once
    per beta, at the largest n; every (method, n) cell runs on the length-n
    prefix of that draw, which ``m3`` and ``m3p`` split with stream
    ``2r + 1``.  Cells thus share datasets (common random numbers across
    methods and, by prefix, across sample sizes) and the whole study is
    reproducible bit for bit.  A job runs one beta on a block of replications
    (at most 2**15 drawn values, and replications / workers); ``workers`` > 1
    spreads the jobs over one process pool without changing any result.
    Arguments are validated first; a replication that raises ``ModeSetError``
    counts as an error, while any other exception propagates.
    """
    for name, count in (("replications", replications), ("workers", workers)):
        if not is_count(count) or count < 1:
            raise ValueError(f"{name} must be at least 1 and an integer, got {count!r}")
    replications, workers = int(replications), int(workers)
    check_alpha(alpha)
    methods = list(methods)
    if not methods:
        raise ValueError("methods must be nonempty")
    for method in methods:
        _check_method(method)
    n_values = list(n_values)
    if not n_values or not all(is_count(n) and n >= 2 for n in n_values):
        raise ValueError(f"sample sizes must be integers of at least 2, got {n_values}")
    n_values = [int(n) for n in n_values]
    beta_values = [float(beta) for beta in beta_values]
    if not beta_values:
        raise ValueError("beta values must be nonempty")
    for beta in beta_values:
        FBetaDensity(beta)  # raises on a non-positive or non-finite beta
    axes = (("methods", methods), ("sample sizes", n_values), ("beta values", beta_values))
    for name, values in axes:  # each (method, n, beta) is one row of the CSV
        if len(set(values)) < len(values):
            raise ValueError(f"{name} must not repeat, got {values}")
    if not is_count(base_seed):
        raise ValueError(f"base_seed must be an integer, got {base_seed!r}")
    RngStream(int(base_seed))  # raises on a seed outside the unsigned 64-bit range
    block = max(1, min(_BLOCK_VALUES // max(n_values), -(-replications // workers)))
    blocks = [range(r, min(r + block, replications)) for r in range(0, replications, block)]
    jobs = [(methods, n_values, beta, float(alpha), int(base_seed), reps)
            for beta in beta_values for reps in blocks]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            by_job = list(pool.map(_run_block, *zip(*jobs)))
    else:
        by_job = [_run_block(*job) for job in jobs]
    reports: list[CoverageReport] = []
    cells = itertools.product(enumerate(methods), enumerate(n_values), enumerate(beta_values))
    for (m, method), (i, n), (b, beta) in cells:
        cell = [job[i][m] for job in by_job[b * len(blocks):(b + 1) * len(blocks)]]
        outcomes = [outcome for _, block in cell for outcome in block]
        covered, per_rep, vacuous, errored = zip(*outcomes)  # per_rep holds NaN where errored
        widths = np.array([w for w, err in zip(per_rep, errored) if not err], dtype=np.float64)
        q10, q50, q90 = _width_quantiles(widths) if widths.size else (math.nan,) * 3
        reports.append(CoverageReport(
            method=method, n=n, beta=beta, alpha=float(alpha), replications=replications,
            coverage=sum(covered) / replications, width_q10=q10, width_q50=q50, width_q90=q90,
            vacuous=sum(vacuous), errors=sum(errored),
            wall_time_s=sum(seconds for seconds, _ in cell), widths=per_rep,
        ))
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
    """Per-replication widths for external box plotting.

    ``rep`` is the replication's stream index; errored replications are
    skipped, so the column may have gaps.
    """
    lines = ["method,n,beta,alpha,rep,width"]
    for r in reports:
        for rep, w in enumerate(r.widths):
            if math.isnan(w):
                continue
            lines.append(f"{r.method},{r.n},{r.beta!r},{r.alpha!r},{rep},{w!r}")
    return "\n".join(lines) + "\n"
