"""Monte-Carlo coverage and width studies on the piecewise power test density.

The test density has mode 0 with height 1/2, behaves like
1/2 - |x|**beta / 2 on [-1, 0], and descends on the right as
1/2 - beta**beta * x**beta / (2 * (beta + 2)**beta) until it hits zero at
(beta + 2) / beta; beta controls the flatness at the mode.  Sampling is by
inverse transform on the closed-form piecewise distribution function, whose
quantiles are found by Newton steps from the mode.

The study engine runs seeded replications per (method, n, beta), records
whether each confidence set covers the true mode 0 and how wide it is, and
aggregates to a deterministic report: the same base seed reproduces every
value bit for bit, with replications addressable by stream id so they can
run in parallel.
"""

from __future__ import annotations

import math
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

    def _right_terms(self, x):
        """x clipped to [0, upper], and t**beta - 1 with t = that / upper.

        The right piece is written in t because b**b / (b + 2)**b equals
        upper**-b: no power can overflow for large beta, and expm1 keeps
        t**beta - 1 accurate for small beta.
        """
        xr = np.clip(x, 0.0, self.upper)
        with np.errstate(divide="ignore"):  # t = 0 at the mode: t**beta - 1 = -1
            return xr, np.expm1(self.beta * np.log(xr / self.upper))

    def pdf(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        b = self.beta
        left = 0.5 - 0.5 * np.abs(x) ** b
        right = -0.5 * self._right_terms(x)[1]
        out = np.where(x <= 0, left, right)
        out = np.where((x < -1.0) | (x > self.upper), 0.0, out)
        return out

    def cdf(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        b = self.beta
        left = (x + 1.0) / 2.0 + ((-np.minimum(x, 0.0)) ** (b + 1.0) - 1.0) / (2.0 * (b + 1.0))
        # x (b - (t**b - 1)) / (2 (b + 1)) adds two nonnegative terms; the
        # form x/2 - x t**b / (2 (b + 1)) cancels to 1e-12 for small beta
        xr, t_b_minus_1 = self._right_terms(x)
        right = self.mass_left + xr * (b - t_b_minus_1) / (2.0 * (b + 1.0))
        out = np.where(x <= 0, left, right)
        out = np.where(x < -1.0, 0.0, out)
        out = np.where(x > self.upper, 1.0, out)
        return np.clip(out, 0.0, 1.0)

    def ppf(self, u) -> np.ndarray:
        """Quantile function by Newton steps from the mode, |cdf(x) - u| <= 1e-12.

        The distribution function is convex left of the mode, where the
        density rises, and concave right of it, where the density falls, so
        Newton iterates started at the mode move monotonically toward the
        root and stay inside the support.  Rounding where the density
        nearly vanishes can break that, so each step is clipped to run away
        from the mode and no further than the support edge.  Each element
        stops once its residual is at most 1e-15 or its iterate stops
        moving, and depends on its own u alone.
        """
        shape = np.shape(np.atleast_1d(u))
        u = np.asarray(u, dtype=np.float64).ravel()
        if not np.all((u >= 0.0) & (u <= 1.0)):
            raise ValueError("ppf needs probabilities in [0, 1]")
        x = np.zeros(u.shape)
        right = u > self.mass_left
        todo = np.flatnonzero(u != self.mass_left)  # the mode maps to exactly 0
        for _ in range(64):  # the extreme uniforms 2**-54 and 1 - 2**-53 take <= 29
            if not todo.size:
                break
            xt = x[todo]
            resid = self.cdf(xt) - u[todo]
            live = np.abs(resid) > 1e-15
            todo, xt, r = todo[live], xt[live], right[todo[live]]
            with np.errstate(divide="ignore"):  # a zero density steps to the edge
                newton = xt - resid[live] / self.pdf(xt)
            x[todo] = np.clip(newton, np.where(r, xt, -1.0), np.where(r, self.upper, xt))
            todo = todo[x[todo] != xt]
        worst = float(np.max(np.abs(self.cdf(x) - u)))
        if not worst <= 1e-12:
            raise ArithmeticError(f"ppf residual {worst!r} exceeds 1e-12 (beta={self.beta!r})")
        return x.reshape(shape)

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
    ``wall_time_s`` is the summed time of this cell's method calls, in
    whichever process ran them; it excludes sampling the shared data and
    is measured, so it stays out of the deterministic CSV payload.
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


def _data_stream(base_seed: int, rep: int) -> RngStream:
    return RngStream(base_seed, 2 * rep)


def _split_stream(base_seed: int, rep: int) -> RngStream:
    return RngStream(base_seed, 2 * rep + 1)


def _run_replication(cells, beta, alpha, base_seed, rep):
    """Replication ``rep`` of every ``(method, n)`` cell at one beta.

    The data are drawn once, at the largest n, and each cell runs on the
    length-n prefix of that draw.  Returns one (covered, width, vacuous,
    errored, method seconds) tuple per cell, in the order of ``cells``.
    """
    full = FBetaDensity(beta).sample(
        _data_stream(base_seed, rep), max(n for _, n in cells)
    )
    full.setflags(write=False)  # shared by every cell: no method may write to it
    split_stream = _split_stream(base_seed, rep)
    results = []
    for method, n in cells:
        start = time.perf_counter()
        try:
            cs, vacuous = run_method(
                full[:n], alpha, method, h=study_bandwidth(n, beta),
                split_stream=split_stream,
            )
        except ModeSetError:
            # a replication whose data defeats the method (too small, pilot
            # collision) counts as an error; it must not kill the study
            outcome = (False, math.nan, False, True)
        else:
            outcome = (cs.contains(0.0), cs.width, bool(vacuous), False)
        results.append(outcome + (time.perf_counter() - start,))
    return results


def run_coverage_study(
    methods,
    n_values,
    beta_values,
    alpha: float = 0.05,
    replications: int = 1000,
    base_seed: int = 0,
    workers: int = 1,
) -> list[CoverageReport]:
    """Coverage and width study over a (method, n, beta) grid.

    Replication ``r`` draws its data from stream ``2r`` of ``base_seed``
    once per beta, at the largest n; every (method, n) cell runs on the
    length-n prefix of that draw and splits it with stream ``2r + 1``.
    Cells thus share datasets (common random numbers across methods and,
    by prefix, across sample sizes) and the whole study is reproducible
    bit for bit.  ``workers`` > 1 spreads the (beta, replication) jobs over
    one process pool for the whole study without changing any result.
    Arguments are validated before any replication runs; a replication
    that raises ``ModeSetError`` counts as an error, while any other
    exception propagates.
    """
    if replications < 1:
        raise ValueError("replications must be positive")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    check_alpha(alpha)
    methods = list(methods)
    if not methods:
        raise ValueError("methods must be nonempty")
    unknown = [m for m in methods if m not in METHOD_CODES]
    if unknown:
        raise ValueError(f"unknown methods {unknown}; choose from {METHOD_CODES}")
    n_values = [int(n) for n in n_values]
    if any(n < 2 for n in n_values):
        raise ValueError(f"sample sizes must be at least 2, got {n_values}")
    beta_values = [float(beta) for beta in beta_values]
    for beta in beta_values:
        FBetaDensity(beta)  # raises on a non-positive or non-finite beta
    cells = [(method, n) for method in methods for n in n_values]
    jobs = [
        (cells, beta, float(alpha), int(base_seed), rep)
        for beta in beta_values
        for rep in range(replications)
    ]
    if workers > 1:
        chunksize = -(-len(jobs) // (4 * workers))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            by_job = list(pool.map(_run_replication, *zip(*jobs), chunksize=chunksize))
    else:
        by_job = [_run_replication(*job) for job in jobs]
    reports: list[CoverageReport] = []
    for c, (method, n) in enumerate(cells):
        for b, beta in enumerate(beta_values):
            covered, per_rep, vacuous, errored, seconds = zip(
                *(by_job[b * replications + rep][c] for rep in range(replications))
            )  # per_rep holds NaN where errored
            widths = np.array(
                [w for w, err in zip(per_rep, errored) if not err], dtype=np.float64
            )
            if widths.size:
                q10, q50, q90 = (float(q) for q in np.quantile(widths, [0.1, 0.5, 0.9]))
            else:
                q10 = q50 = q90 = math.nan
            reports.append(
                CoverageReport(
                    method=method,
                    n=n,
                    beta=beta,
                    alpha=float(alpha),
                    replications=replications,
                    coverage=sum(covered) / replications,
                    width_q10=q10,
                    width_q50=q50,
                    width_q90=q90,
                    vacuous=sum(vacuous),
                    errors=sum(errored),
                    wall_time_s=sum(seconds),
                    widths=per_rep,
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
