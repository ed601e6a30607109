import math

import numpy as np
import pytest
from scipy import integrate

from modeset import (
    ModeSetError,
    RngStream,
    SortedSample,
    compute_confidence_set,
    coverage_report_csv,
    run_coverage_study,
    sample_uniform,
    study_bandwidth,
)
from modeset.core import venter_pilot
from modeset.sim import FBetaDensity, replication_widths_csv

BETAS = (0.5, 1.0, 2.0, 4.0)


def test_density_normalizes_and_mass_left():
    for beta in BETAS:
        d = FBetaDensity(beta)
        # split at the mode: the integrand has a cusp there, and across it
        # quad stops near its default 1.5e-8 tolerance, above the 1e-9 asserted
        total, _ = integrate.quad(d.pdf, -1.0, d.upper, limit=200, points=[0.0])
        assert total == pytest.approx(1.0, abs=1e-9)
        left, _ = integrate.quad(d.pdf, -1.0, 0.0, limit=200)
        assert left == pytest.approx(beta / (2 * (beta + 1)), abs=1e-10)


def test_cdf_checkpoints():
    # F(0) = beta/(2(beta+1)); for beta=1 that is 1/4
    assert FBetaDensity(1.0).cdf(0.0) == pytest.approx(0.25, abs=1e-14)
    for beta in BETAS:
        d = FBetaDensity(beta)
        assert d.cdf(0.0) == pytest.approx(beta / (2 * (beta + 1)), abs=1e-14)
        assert d.cdf(d.upper) == pytest.approx(1.0, abs=1e-12)
        assert d.cdf(-1.0) == 0.0
        assert d.cdf(-5.0) == 0.0
        assert d.cdf(d.upper + 3.0) == 1.0


def test_cdf_matches_quadrature_oracle():
    for beta in (0.5, 1.0, 3.7):
        d = FBetaDensity(beta)
        for x in (-0.8, -0.2, 0.0, 0.4, 1.9, d.upper - 0.05):
            # split at the mode: the integrand has a kink there
            oracle, err = integrate.quad(d.pdf, -1.0, x, limit=400,
                                         points=[0.0] if x > 0 else None)
            assert d.cdf(x) == pytest.approx(oracle, abs=max(1e-9, 10 * err))


def test_cdf_monotone_and_continuous():
    for beta in BETAS:
        d = FBetaDensity(beta)
        xs = np.linspace(-1.2, d.upper + 0.2, 10**4)
        f = d.cdf(xs)
        assert np.all(np.diff(f) >= -1e-12)
        step = xs[1] - xs[0]
        assert np.max(np.diff(f)) <= 0.5 * step + 1e-9  # density is at most 1/2


def test_ppf_round_trip_and_mode_point():
    for beta in BETAS:
        d = FBetaDensity(beta)
        assert d.ppf(d.mass_left)[0] == 0.0
        u = np.linspace(1e-9, 1 - 1e-9, 2001)
        x = d.ppf(u)
        assert np.all(x >= -1.0) and np.all(x <= d.upper)
        assert np.max(np.abs(d.cdf(x) - u)) <= 1e-12


@pytest.mark.parametrize("beta", [1e-5, 1e-4, 0.1, 0.5, 1.0, 4.0, 10.0, 200.0, 1000.0])
def test_ppf_extreme_uniforms(beta):
    # 2**-54 and 1 - 2**-53 are the smallest and largest uniforms drawn
    d = FBetaDensity(beta)
    u = np.array([2.0**-54, 1e-15, 1 - 1e-12, 1 - 2.0**-53])
    x = d.ppf(u)
    assert np.all(x >= -1.0) and np.all(x <= d.upper)
    assert np.max(np.abs(d.cdf(x) - u)) <= 1e-12
    for bad in (-0.1, 1.1, math.nan):
        with pytest.raises(ValueError, match="probabilities"):
            d.ppf([0.5, bad])


@pytest.mark.parametrize("beta", [1e-5, 1e-4, 200.0, 1000.0])
def test_sampler_at_extreme_beta(beta):
    # small beta: the right piece of the cdf must not cancel; large beta:
    # beta**beta and (beta + 2)**beta overflow, upper**-beta does not
    d = FBetaDensity(beta)
    u = sample_uniform(RngStream(86, 0), 5000)
    x = d.ppf(u)
    assert np.all(x >= -1.0) and np.all(x <= d.upper)
    assert np.max(np.abs(d.cdf(x) - u)) <= 1e-12
    assert np.all(d.pdf(x) >= 0.0) and np.all(d.pdf(x) <= 0.5)


def test_ppf_is_elementwise():
    # the study shares one draw across sample sizes by prefix: every
    # quantile must depend on its own uniform alone, bit for bit
    for beta in (0.1, 1.0, 4.0):
        d = FBetaDensity(beta)
        u = sample_uniform(RngStream(85, 0), 2000)
        x = d.ppf(u)
        for k in (1, 37, 1000):
            assert np.array_equal(d.ppf(u[:k]), x[:k])
        perm = RngStream(85, 1).generator().permutation(u.size)
        assert np.array_equal(d.ppf(u[perm]), x[perm])
        assert np.array_equal(d.ppf(u.reshape(40, 50)), x.reshape(40, 50))


def test_ppf_mode_point_inside_an_array():
    for beta in BETAS:
        d = FBetaDensity(beta)
        x = d.ppf([0.01, d.mass_left, 0.99, d.mass_left])
        assert x[1] == 0.0 and x[3] == 0.0
        assert x[0] < 0.0 < x[2]


def test_sampler_ks_band():
    d = FBetaDensity(1.0)
    x = d.sample(RngStream(81, 0), 10**5)
    assert np.all(x >= -1.0) and np.all(x <= 3.0)
    u = np.sort(d.cdf(x))
    i = np.arange(1, u.size + 1)
    ks = max(np.max(i / u.size - u), np.max(u - (i - 1) / u.size))
    assert ks <= 1.63 / math.sqrt(u.size)


def test_sampler_mean_against_quadrature():
    d = FBetaDensity(1.0)
    mean, _ = integrate.quad(lambda t: t * d.pdf(t), -1.0, 3.0, limit=200)
    assert mean == pytest.approx(2.0 / 3.0, abs=1e-10)  # hand integral
    second, _ = integrate.quad(lambda t: t * t * d.pdf(t), -1.0, 3.0, limit=200)
    sigma = math.sqrt(second - mean * mean)
    x = d.sample(RngStream(82, 0), 10**6)
    assert abs(x.mean() - mean) <= 3.0 * sigma / 1000.0


def test_sampler_mode_neighborhood_mass():
    d = FBetaDensity(1.0)
    x = d.sample(RngStream(83, 0), 10**5)
    p = float(d.cdf(0.01) - d.cdf(-0.01))
    assert p == pytest.approx(0.01, rel=0.02)  # 2*eps*f(0) with f(0)=1/2
    frac = np.mean(np.abs(x) <= 0.01)
    assert abs(frac - p) <= 3.0 * math.sqrt(p * (1 - p) / x.size)


def test_study_bandwidth_rule():
    assert study_bandwidth(1000, 1.0) == pytest.approx(
        1000 ** (-1 / 3) * math.sqrt(math.log(1000))
    )


def test_pilot_consistency_monte_carlo():
    # median |pilot - 0| shrinks with n on the beta=1 density
    medians = []
    for n in (200, 2000, 20000):
        errs = []
        for rep in range(200):
            data = FBetaDensity(1.0).sample(RngStream(84, 1000 * n + rep), n)
            errs.append(abs(venter_pilot(SortedSample.from_data(data))))
        medians.append(float(np.median(errs)))
    assert medians[0] > medians[1] > medians[2]


def test_study_determinism_and_csv():
    args = dict(methods=["m1", "m2"], n_values=[200], beta_values=[1.0],
                alpha=0.05, replications=12, base_seed=99)
    a = run_coverage_study(**args)
    b = run_coverage_study(**args)
    assert coverage_report_csv(a) == coverage_report_csv(b)
    assert a == b  # wall time excluded from comparisons
    lines = coverage_report_csv(a).strip().split("\n")
    assert lines[0] == (
        "method,n,beta,alpha,reps,coverage,width_q10,width_q50,width_q90,"
        "vacuous,errors"
    )
    assert len(lines) == 3


def test_study_parallel_matches_serial():
    args = dict(methods=["m1"], n_values=[200], beta_values=[1.0],
                alpha=0.05, replications=8, base_seed=7)
    serial = run_coverage_study(**args, workers=1)
    parallel = run_coverage_study(**args, workers=2)
    assert coverage_report_csv(serial) == coverage_report_csv(parallel)


def test_study_draws_once_per_replication(monkeypatch):
    # each (beta, rep) samples max(n) values once, shared by every (method, n)
    sizes = []
    ppf = FBetaDensity.ppf

    def counting_ppf(self, u):
        sizes.append(np.size(u))
        return ppf(self, u)

    monkeypatch.setattr(FBetaDensity, "ppf", counting_ppf)
    betas, reps = [1.0, 4.0, 0.5], 3
    run_coverage_study(["m1", "m2", "m2a"], [120, 300, 60], betas,
                       replications=reps, base_seed=4)
    assert sizes == [300] * (len(betas) * reps)


def test_study_counts_method_errors_without_aborting():
    # n=16 is too small for the spacing interval: every replication errors
    reports = run_coverage_study(["m1"], [16], [1.0], alpha=0.05,
                                 replications=5, base_seed=3)
    r = reports[0]
    assert r.errors == 5
    assert r.coverage == 0.0
    assert math.isnan(r.width_q50)


def test_study_propagates_errors_that_are_not_method_errors(monkeypatch):
    # only a ModeSetError counts as an errored replication; anything else is a bug
    def broken(*args, **kwargs):
        raise ValueError("bug")

    monkeypatch.setattr("modeset.sim.run_method", broken)
    with pytest.raises(ValueError, match="bug"):
        run_coverage_study(["m1"], [200], [1.0], replications=2, base_seed=3)


def test_replication_widths_emission():
    reports = run_coverage_study(["m1"], [200], [1.0], alpha=0.05,
                                 replications=6, base_seed=11)
    csv = replication_widths_csv(reports)
    lines = csv.strip().split("\n")
    assert lines[0] == "method,n,beta,alpha,rep,width"
    assert len(lines) == 7


def test_study_validation():
    with pytest.raises(ValueError):
        run_coverage_study([], [200], [1.0], replications=5)
    with pytest.raises(ValueError):
        run_coverage_study(["m1"], [200], [1.0], replications=0)
    with pytest.raises(ValueError, match="at least 2"):
        run_coverage_study(["m1"], [200, 1], [1.0], replications=5)
    with pytest.raises(ValueError, match="beta"):
        run_coverage_study(["m1"], [200], [1.0, 0.0], replications=5)


def test_study_default_grid_smoke():
    # every (method, n, beta) cell of the CLI's default grid runs error-free
    reports = run_coverage_study(["m1", "m2", "m3"], [1000, 2000],
                                 [0.5, 1.0, 2.0, 4.0], alpha=0.05,
                                 replications=2, base_seed=31)
    assert len(reports) == 24
    assert all(r.errors == 0 for r in reports)
    assert all(r.coverage == 1.0 for r in reports)  # conservative methods


@pytest.mark.parametrize("method", ["m1", "m2", "m2a", "m3", "m3p"])
def test_study_replications_match_direct_dispatch(method):
    # the study runs each method exactly as compute_confidence_set does,
    # on replication r's data stream 2r and split stream 2r + 1
    seed, n_values, betas, reps = 17, [24, 120], [0.5, 2.0], 3
    reports = run_coverage_study([method], n_values, betas, alpha=0.1,
                                 replications=reps, base_seed=seed)
    assert [(r.n, r.beta) for r in reports] == [(n, b) for n in n_values for b in betas]
    for r in reports:
        assert len(r.widths) == reps
        for rep, width in enumerate(r.widths):
            data = FBetaDensity(r.beta).sample(RngStream(seed, 2 * rep), r.n)
            try:
                cs = compute_confidence_set(
                    data, 0.1, method, h=study_bandwidth(r.n, r.beta),
                    split_stream=RngStream(seed, 2 * rep + 1),
                )
            except ModeSetError:
                assert math.isnan(width)
            else:
                assert width == cs.width
