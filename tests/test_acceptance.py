"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the criterion
lines as they complete.  Everything is seeded; the whole suite is
deterministic and finishes in a few minutes on two cores.
"""

import math
import time

import numpy as np
import pytest
from scipy import special, stats

from modeset import (
    RngStream,
    contains_mode_candidate,
    run_coverage_study,
    run_method,
    sample_uniform,
)
from modeset.cli import main as cli_main
from modeset.core import split_and_pilot
from modeset.mest import _sweep, dkw_count_slack, hoeffding_count_slack
from modeset.multivariate import PointCloud
from modeset.numerics import qbeta, qchisq
from modeset.sim import FBetaDensity
from modeset.spacings import build_plan

from fbeta_ppf import ppf

SEED = 1001
REPS = 500
ALPHA = 0.05


def _criterion(number, name, ok, detail):
    print(f"[criterion {number:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def _mc_slack(alpha, reps):
    return 2.0 * math.sqrt(alpha * (1.0 - alpha) / reps)


@pytest.fixture(scope="module")
def study_n1000():
    start = time.perf_counter()
    reports = run_coverage_study(["m1", "m2", "m3"], [1000], [1.0],
                                 alpha=ALPHA, replications=REPS, base_seed=SEED)
    elapsed = time.perf_counter() - start
    return {r.method: r for r in reports}, elapsed


@pytest.fixture(scope="module")
def study_n2000():
    reports = run_coverage_study(["m1", "m2", "m3"], [2000], [1.0],
                                 alpha=ALPHA, replications=REPS, base_seed=SEED)
    return {r.method: r for r in reports}


@pytest.fixture(scope="module")
def m1_n4000():
    return run_coverage_study(["m1"], [4000], [1.0], alpha=ALPHA,
                              replications=REPS, base_seed=SEED)[0]


def test_criterion_01_coverage_reproduction(study_n1000):
    reports, elapsed = study_n1000
    floor = 1 - ALPHA - _mc_slack(ALPHA, REPS)
    covs = {m: reports[m].coverage for m in ("m1", "m2", "m3")}
    ok = all(c >= floor for c in covs.values()) and elapsed <= 600.0
    detail = (f"m1={covs['m1']:.3f} m2={covs['m2']:.3f} m3={covs['m3']:.3f} "
              f"floor={floor:.4f} runtime={elapsed:.0f}s<=600s")
    assert _criterion(1, "coverage reproduction", ok, detail), detail


def test_criterion_02_width_shrinkage(study_n1000, study_n2000):
    r1, _ = study_n1000
    r2 = study_n2000
    m1_ok = r2["m1"].width_q50 < r1["m1"].width_q50
    m2_ok = r2["m2"].width_q50 < r1["m2"].width_q50
    ratio = r2["m3"].width_q50 / r1["m3"].width_q50
    m3_ok = 0.75 <= ratio <= 1.25
    ok = m1_ok and m2_ok and m3_ok
    detail = (f"m1 {r1['m1'].width_q50:.3f}->{r2['m1'].width_q50:.3f} "
              f"m2 {r1['m2'].width_q50:.3f}->{r2['m2'].width_q50:.3f} "
              f"m3 ratio={ratio:.3f} in [0.75,1.25]")
    assert _criterion(2, "width shrinkage", ok, detail), detail


def test_criterion_03_m1_rate_sanity(study_n1000, study_n2000, m1_n4000):
    r1, _ = study_n1000
    meds = {1000: r1["m1"].width_q50,
            2000: study_n2000["m1"].width_q50,
            4000: m1_n4000.width_q50}
    ratios = {n: meds[n] * n ** (1 / 3) / math.log(n) for n in meds}
    ok = (ratios[2000] <= 1.2 * ratios[1000]
          and ratios[4000] <= 1.2 * ratios[2000])
    detail = (f"median*n^(1/3)/ln(n): {ratios[1000]:.3f}, {ratios[2000]:.3f}, "
              f"{ratios[4000]:.3f} (20% slack)")
    assert _criterion(3, "m1 width rate sanity", ok, detail), detail


def test_criterion_04_single_observation_inequality():
    reps = 10**4
    results = []
    for i, a in enumerate((0.3, -0.5)):
        for j, alpha in enumerate((0.1, 0.5)):
            x = FBetaDensity(1.0).sample(RngStream(SEED + 40, 10 * i + j), reps)
            lo = x - (2.0 / alpha - 1.0) * np.abs(x - a)
            hi = x + (2.0 / alpha + 1.0) * np.abs(x - a)
            cov = float(np.mean((lo <= 0.0) & (0.0 <= hi)))
            results.append((a, alpha, cov, cov >= 1 - alpha - _mc_slack(alpha, reps)))
    ok = all(r[3] for r in results)
    detail = " ".join(f"a={a},alpha={al}:{c:.3f}" for a, al, c, _ in results)
    assert _criterion(4, "single-observation inequality", ok, detail), detail


def test_criterion_05_trinomial_threshold():
    reps = 10**4
    worst = 0.0
    entries = []
    for k, (p, q) in enumerate(((0.3, 0.3), (0.1, 0.8))):
        mu = (1 - p - q) - p  # values (-1, 0, 1)
        for n in (100, 1000):
            gen = RngStream(SEED + 50, 10 * k + n).generator()
            counts = gen.multinomial(n, [p, q, 1 - p - q], size=reps)
            muhat = (counts[:, 2] - counts[:, 0]) / n
            for alpha in (0.05, 0.2):
                thr = 3.0 * math.sqrt(3.0 / (2 * n)) * (
                    math.sqrt(math.log(1.0 / alpha)) + 2.0
                )
                freq = float(np.mean(muhat - mu > thr))
                worst = max(worst, freq - alpha)
                entries.append(freq <= alpha)
    ok = all(entries)
    detail = f"8 configs, max(freq - alpha)={worst:.4f} (should be <= 0)"
    assert _criterion(5, "trinomial mean threshold", ok, detail), detail


def test_criterion_06_dkw_simultaneity():
    n, reps, alpha = 500, 10**4, 0.05
    gen = RngStream(606, 2).generator()
    u = np.sort(gen.random((reps, n)), axis=1)
    i = np.arange(1, n + 1)
    d = np.maximum(np.max(i / n - u, axis=1), np.max(u - (i - 1) / n, axis=1))
    eps = math.sqrt(math.log(2.0 / alpha) / (2.0 * n))
    freq = float(np.mean(d > eps))
    ok = freq <= alpha
    detail = f"freq={freq:.4f} <= {alpha} at eps={eps:.5f}"
    assert _criterion(6, "empirical-cdf band exceedance", ok, detail), detail


def _m2_oracle_instances():
    rng = np.random.default_rng(2024)
    for inst in range(100):
        n2 = int(rng.integers(20, 51))
        cluster = rng.random(n2) < 0.6
        raw = np.where(cluster, rng.normal(0, 0.5, n2), rng.normal(3, 0.3, n2))
        s2 = np.round(raw * 64) / 64
        pilot = float(np.round(rng.normal(0, 0.5) * 64) / 64)
        if inst % 2:
            h = float(rng.choice([0.75, 1.5, 3.0]))
            alpha = 0.9
            slack = dkw_count_slack(n2, alpha)
            tau = (1.0 / h) * math.sqrt(2.0 * math.log(2.0 / alpha) / n2)
        else:
            h = float(rng.choice([0.25, 0.75, 1.5]))
            alpha = float(rng.choice([0.2, 0.5, 0.9]))
            slack = hoeffding_count_slack(n2, alpha)
            tau = (1.0 / h) * math.sqrt(3.0 / (2 * n2)) * (
                math.sqrt(math.log(1.0 / alpha)) + 2.0
            )
        yield s2, pilot, h, slack, tau


def test_criterion_07_exact_level_set_oracles():
    # m2: breakpoint sweep vs the literal defining inequality on a dense grid
    m2_mismatch = 0
    m2_points = 0
    for s2, pilot, h, slack, tau in _m2_oracle_instances():
        # the pre-dilation level set the library returns
        res = _sweep(np.sort(s2), pilot, (h,), slack)
        pre = res.pre_dilation
        vacuous = res.vacuous
        knots = np.unique(np.concatenate([s2 - h, s2 + h]))
        gaps = np.diff(knots)
        step = gaps[gaps > 0].min() / 3.3
        grid = np.arange(knots[0] - 2 * h + 0.1234567 * step,
                         knots[-1] + 2 * h, step)
        n_theta = np.count_nonzero(
            (s2[None, :] > grid[:, None] - h) & (s2[None, :] <= grid[:, None] + h),
            axis=1,
        )
        n_pilot = np.count_nonzero((s2 > pilot - h) & (s2 <= pilot + h))
        want = (n_pilot - n_theta) / (2.0 * h * s2.size) <= tau
        if vacuous:
            want &= (grid >= knots[0]) & (grid <= knots[-1])
        got = np.zeros(grid.size, dtype=bool)
        for a, b in pre.intervals:
            got |= (grid >= a) & (grid <= b)
        m2_mismatch += int(np.sum(want != got))
        m2_points += grid.size

    # m3 / m3p: extracted boundaries vs dense-grid membership of the
    # literal statistics, step = data range / 1e6 around the set
    def check_family(kind, count, seed0):
        mism = 0
        rng = np.random.default_rng(seed0)
        for k in range(count):
            n = int(rng.integers(16, 31))
            data = np.where(rng.random(n) < 0.7,
                            rng.normal(0, 1, n), rng.normal(5, 0.4, n))
            stream = RngStream(seed0 + k, 0)
            if kind == "m3":
                alpha = 0.5
                cs = run_method(data, alpha, "m3", split_stream=stream).confidence_set
            else:
                alpha = 0.9
                cs = run_method(data, alpha, "m3p", rho=2.0,
                                split_stream=stream).confidence_set
            points, pilots = split_and_pilot(data[None, :], stream, None)
            pts, pilot = points[0], pilots[0]
            dn = np.abs(pts - pilot)

            def member_oracle(thetas):
                r = np.abs(pts[None, :] - thetas[:, None]) / dn[None, :]
                if kind == "m3":
                    stat = -2.0 * np.log(2.0 / (1.0 + r)).sum(axis=1)
                    return stat < qchisq(1 - alpha, 2 * pts.size)
                stat = (1.0 / 3.0) / pts.size * np.sqrt(r).sum(axis=1)
                return stat < 1.0 / alpha

            hull_lo, hull_hi = cs.hull()
            w = hull_hi - hull_lo
            step = (data.max() - data.min()) / 1e6
            grid = np.arange(hull_lo - 0.0487123 * w, hull_hi + 0.05 * w, step)
            got = np.zeros(grid.size, dtype=bool)
            for a, b in cs.intervals:
                got |= (grid >= a) & (grid <= b)
            for i in range(0, grid.size, 500_000):
                g = grid[i:i + 500_000]
                mism += int(np.sum(member_oracle(g) != got[i:i + 500_000]))
            coarse = np.arange(hull_lo - 1.5 * w, hull_hi + 1.5 * w,
                               (data.max() - data.min()) / 1e3)
            got_c = np.zeros(coarse.size, dtype=bool)
            for a, b in cs.intervals:
                got_c |= (coarse >= a) & (coarse <= b)
            mism += int(np.sum(member_oracle(coarse) != got_c))
        return mism

    m3_mismatch = check_family("m3", 30, 7100)
    m3p_mismatch = check_family("m3p", 20, 8200)
    ok = m2_mismatch == 0 and m3_mismatch == 0 and m3p_mismatch == 0
    detail = (f"m2 {m2_mismatch}/{m2_points} pts; m3 {m3_mismatch}; "
              f"m3p {m3p_mismatch} mismatches")
    assert _criterion(7, "exact level-set oracles", ok, detail), detail


def test_criterion_08_numerics_contracts():
    worst_rt = 0.0
    rng = np.random.default_rng(808)
    for _ in range(1000):
        a = rng.uniform(0.5, 5000.0)
        b = rng.uniform(0.5, 5000.0)
        p = rng.uniform(1e-9, 1 - 1e-9)
        worst_rt = max(worst_rt, abs(special.betainc(a, b, qbeta(p, a, b)) - p))
    plan = build_plan(4096, ALPHA)
    for lvl in range(plan.b_max + 1):
        a = float(1 << (lvl + plan.s_n))
        b = float(4096 + 1 - (1 << (lvl + plan.s_n)))
        p = ALPHA / (4 * (lvl + 2) * plan.n_b[lvl] * plan.t_n)
        for pp in (p, 1 - p):
            worst_rt = max(worst_rt, abs(special.betainc(a, b, qbeta(pp, a, b)) - pp))
    worst_chi = 0.0
    for p in np.arange(0.01, 1.0, 0.01):
        worst_chi = max(worst_chi, abs(qchisq(float(p), 2) + 2 * math.log1p(-p)))
    ok = worst_rt <= 1e-9 and worst_chi <= 1e-10
    detail = f"beta round trip {worst_rt:.2e}<=1e-9; chisq(2) {worst_chi:.2e}<=1e-10"
    assert _criterion(8, "numerics contracts", ok, detail), detail


def test_criterion_09_dependent_data_validity():
    reps, n, corr = 500, 1000, 0.5
    density = FBetaDensity(1.0)
    covered = 0
    for rep in range(reps):
        gen = RngStream(SEED + 90, rep).generator()
        w = gen.standard_normal()
        eps = gen.standard_normal(n)
        z = math.sqrt(corr) * w + math.sqrt(1 - corr) * eps
        data = ppf(density, stats.norm.cdf(z))
        cs = run_method(data, ALPHA, "m3p", rho=2.0,
                        split_stream=RngStream(SEED + 91, rep)).confidence_set
        covered += cs.contains(0.0)
    cov = covered / reps
    floor = 1 - ALPHA - _mc_slack(ALPHA, reps)
    ok = cov >= floor
    detail = f"copula-dependent m3p coverage {cov:.3f} >= {floor:.4f}"
    assert _criterion(9, "dependent-data validity", ok, detail), detail


def test_criterion_10_multivariate_lift():
    reps, n = 300, 1000
    covered = 0
    for rep in range(reps):
        u = sample_uniform(RngStream(SEED + 100, rep), 2 * n)
        r = np.sqrt(u[:n])
        ang = 2.0 * np.pi * u[n:]
        pts = np.column_stack([r * np.cos(ang), r * np.sin(ang)])
        cloud = PointCloud.from_points(pts, gamma=2.0)
        covered += contains_mode_candidate(cloud, [0.0, 0.0], ALPHA, "m1")
    cov = covered / reps
    floor = 1 - ALPHA - _mc_slack(ALPHA, reps)
    ok = cov >= floor
    detail = f"disk-center membership {cov:.3f} >= {floor:.4f}"
    assert _criterion(10, "multivariate lift coverage", ok, detail), detail


def test_criterion_11_simulate_determinism(tmp_path, capsys):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["simulate", "--methods", "m1,m3", "--n", "200", "--beta", "1",
            "--reps", "25", "--seed", "2024"]
    assert cli_main(argv + ["--out", str(out1)]) == 0
    assert cli_main(argv + ["--out", str(out2)]) == 0
    capsys.readouterr()
    ok = out1.read_bytes() == out2.read_bytes()
    detail = f"{len(out1.read_bytes())} CSV bytes identical across reruns"
    assert _criterion(11, "simulate determinism", ok, detail), detail


# Criterion 12 is reserved for the guarantee audit.
# 1.5 times the largest |slope - rate| over seeds SEED + 131 to SEED + 135 and
# the three betas (0.0227 at beta 2), rounded up to 0.01
RATE_TOLERANCE = 0.04


def test_criterion_13_m1_width_rate_across_beta():
    n_values, betas = [1000, 4000, 16000, 64000], [1, 2, 4]
    reports = run_coverage_study(["m1", "m2", "m2a"], n_values, betas, alpha=ALPHA,
                                 replications=40, base_seed=SEED + 130)
    medians = {(r.method, r.beta): [] for r in reports}
    for r in reports:
        medians[r.method, r.beta].append(r.width_q50)
    slopes = {key: np.polyfit(np.log(n_values), np.log(meds), 1)[0]
              for key, meds in medians.items()}
    # m2 and m2a are reported only: their small-n widths are clamped hulls
    ok = all(abs(slopes["m1", b] - (-1 / (2 * b + 1))) <= RATE_TOLERANCE for b in betas)
    detail = " ".join(
        f"beta={b}: m1 {slopes['m1', b]:.3f} vs {-1 / (2 * b + 1):.3f}"
        f" (m2 {slopes['m2', b]:.3f}, m2a {slopes['m2a', b]:.3f})" for b in betas)
    detail += f"; tolerance {RATE_TOLERANCE}"
    assert _criterion(13, "m1 width rate across beta", ok, detail), detail
