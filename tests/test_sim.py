import math
import re

import numpy as np
import pytest
from scipy import integrate

from modeset import (
    ModeSetError,
    RngStream,
    coverage_report_csv,
    run_coverage_study,
    run_method,
    sample_uniform,
    study_bandwidth,
)
from modeset.core import venter_pilot
from modeset.methods import METHOD_CODES
from modeset.sim import FBetaDensity, _width_quantiles, replication_widths_csv

from fbeta_ppf import cdf, pdf, ppf

BETAS = (0.5, 1.0, 2.0, 4.0)


def test_density_normalizes_and_mass_left():
    for beta in BETAS:
        d = FBetaDensity(beta)
        # split at the mode: the integrand has a cusp there, and across it
        # quad stops near its default 1.5e-8 tolerance, above the 1e-9 asserted
        total, _ = integrate.quad(lambda t: pdf(d, t), -1.0, d.upper, limit=200, points=[0.0])
        assert total == pytest.approx(1.0, abs=1e-9)
        left, _ = integrate.quad(lambda t: pdf(d, t), -1.0, 0.0, limit=200)
        assert left == pytest.approx(beta / (2 * (beta + 1)), abs=1e-10)


def test_cdf_checkpoints():
    # F(0) = beta/(2(beta+1)); for beta=1 that is 1/4
    assert cdf(FBetaDensity(1.0), 0.0) == pytest.approx(0.25, abs=1e-14)
    for beta in BETAS:
        d = FBetaDensity(beta)
        assert cdf(d, 0.0) == pytest.approx(beta / (2 * (beta + 1)), abs=1e-14)
        assert cdf(d, d.upper) == pytest.approx(1.0, abs=1e-12)
        assert cdf(d, -1.0) == 0.0
        assert cdf(d, -5.0) == 0.0
        assert cdf(d, d.upper + 3.0) == 1.0


def test_cdf_matches_quadrature_oracle():
    for beta in (0.5, 1.0, 3.7):
        d = FBetaDensity(beta)
        for x in (-0.8, -0.2, 0.0, 0.4, 1.9, d.upper - 0.05):
            # split at the mode: the integrand has a kink there
            oracle, err = integrate.quad(lambda t: pdf(d, t), -1.0, x, limit=400,
                                         points=[0.0] if x > 0 else None)
            assert cdf(d, x) == pytest.approx(oracle, abs=max(1e-9, 10 * err))


def test_cdf_monotone_and_continuous():
    for beta in BETAS:
        d = FBetaDensity(beta)
        xs = np.linspace(-1.2, d.upper + 0.2, 10**4)
        f = cdf(d, xs)
        assert np.all(np.diff(f) >= -1e-12)
        step = xs[1] - xs[0]
        assert np.max(np.diff(f)) <= 0.5 * step + 1e-9  # density is at most 1/2


def test_ppf_round_trip_and_mode_point():
    for beta in BETAS:
        d = FBetaDensity(beta)
        assert ppf(d, d.mass_left)[0] == 0.0
        u = np.linspace(1e-9, 1 - 1e-9, 2001)
        x = ppf(d, u)
        assert np.all(x >= -1.0) and np.all(x <= d.upper)
        assert np.max(np.abs(cdf(d, x) - u)) <= 1e-12


@pytest.mark.parametrize("beta", [1e-5, 1e-4, 0.1, 0.5, 1.0, 4.0, 10.0, 200.0, 1000.0])
def test_ppf_extreme_uniforms(beta):
    # 2**-54 and 1 - 2**-53 are the smallest and largest uniforms drawn
    d = FBetaDensity(beta)
    u = np.array([2.0**-54, 1e-15, 1 - 1e-12, 1 - 2.0**-53])
    x = ppf(d, u)
    assert np.all(x >= -1.0) and np.all(x <= d.upper)
    assert np.max(np.abs(cdf(d, x) - u)) <= 1e-12
    for bad in (-0.1, 1.1, math.nan):
        with pytest.raises(ValueError, match="probabilities"):
            ppf(d, [0.5, bad])


@pytest.mark.parametrize("beta", [1e-5, 1e-4, 200.0, 1000.0])
def test_sampler_at_extreme_beta(beta):
    # draws stay in the support, where the pdf must stay finite: at large
    # beta, beta**beta and (beta + 2)**beta overflow, upper**-beta does not
    d = FBetaDensity(beta)
    x = d.sample(RngStream(86, 0), 5000)
    assert np.all(x >= -1.0) and np.all(x <= d.upper)
    assert np.all(pdf(d, x) >= 0.0) and np.all(pdf(d, x) <= 0.5)


def test_ppf_is_elementwise():
    # every quantile depends on its own uniform alone, bit for bit
    for beta in (0.1, 1.0, 4.0):
        d = FBetaDensity(beta)
        u = sample_uniform(RngStream(85, 0), 2000)
        x = ppf(d, u)
        for k in (1, 37, 1000):
            assert np.array_equal(ppf(d, u[:k]), x[:k])
        perm = RngStream(85, 1).generator().permutation(u.size)
        assert np.array_equal(ppf(d, u[perm]), x[perm])
        assert np.array_equal(ppf(d, u.reshape(40, 50)), x.reshape(40, 50))


def test_ppf_mode_point_inside_an_array():
    for beta in BETAS:
        d = FBetaDensity(beta)
        x = ppf(d, [0.01, d.mass_left, 0.99, d.mass_left])
        assert x[1] == 0.0 and x[3] == 0.0
        assert x[0] < 0.0 < x[2]


def test_sampler_ks_band():
    for beta in (1e-4, 0.5, 1.0, 4.0, 50.0, 1000.0):
        d = FBetaDensity(beta)
        x = d.sample(RngStream(81, 0), 10**5)
        assert np.all(x >= -1.0) and np.all(x <= d.upper)
        u = np.sort(cdf(d, x))
        i = np.arange(1, u.size + 1)
        ks = max(np.max(i / u.size - u), np.max(u - (i - 1) / u.size))
        assert ks <= 1.63 / math.sqrt(u.size), beta


def test_sample_prefix_is_the_shorter_sample():
    # the study shares one draw across sample sizes by prefix, bit for bit
    for beta in (0.1, 1.0, 4.0):
        d = FBetaDensity(beta)
        x = d.sample(RngStream(85, 0), 2000)
        for k in (1, 37, 1000, 1999):
            assert np.array_equal(d.sample(RngStream(85, 0), k), x[:k])


def test_sample_checks_its_own_size():
    d = FBetaDensity(1.0)
    for bad in (-1, 0, 2.5, "3"):
        with pytest.raises(ValueError, match=f"^n must be a positive integer, got {bad}$"):
            d.sample(RngStream(85, 0), bad)


def test_sampler_mean_against_quadrature():
    d = FBetaDensity(1.0)
    mean, _ = integrate.quad(lambda t: t * pdf(d, t), -1.0, 3.0, limit=200)
    assert mean == pytest.approx(2.0 / 3.0, abs=1e-10)  # hand integral
    second, _ = integrate.quad(lambda t: t * t * pdf(d, t), -1.0, 3.0, limit=200)
    sigma = math.sqrt(second - mean * mean)
    x = d.sample(RngStream(82, 0), 10**6)
    assert abs(x.mean() - mean) <= 3.0 * sigma / 1000.0


def test_sampler_mode_neighborhood_mass():
    d = FBetaDensity(1.0)
    x = d.sample(RngStream(83, 0), 10**5)
    p = float(cdf(d, 0.01) - cdf(d, -0.01))
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
            errs.append(abs(venter_pilot(np.sort(data)[None, :])[0]))
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
    sample = FBetaDensity.sample

    def counting_sample(self, stream, n):
        sizes.append(n)
        return sample(self, stream, n)

    monkeypatch.setattr(FBetaDensity, "sample", counting_sample)
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

    monkeypatch.setattr("modeset.sim._method_columns", broken)
    with pytest.raises(ValueError, match="bug"):
        run_coverage_study(["m1"], [200], [1.0], replications=2, base_seed=3)


def test_study_checks_the_seed_before_starting_workers(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("process pool built before the seed was checked")

    monkeypatch.setattr("modeset.sim.ProcessPoolExecutor", no_pool)
    with pytest.raises(ValueError, match="^seed must fit in an unsigned 64-bit integer, got -1$"):
        run_coverage_study(["m1"], [200], [1.0], replications=2, base_seed=-1, workers=2)


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


@pytest.mark.parametrize("method", ["m9", "M1", "m2 "])
def test_study_and_run_method_reject_an_unknown_method_with_one_message(method):
    message = re.escape(f"unknown method {method!r}; choose one of {METHOD_CODES}")
    with pytest.raises(ValueError, match=message):
        run_coverage_study(["m1", method], [200], [1.0], replications=5)
    with pytest.raises(ValueError, match=message):
        run_method(np.arange(10.0), 0.05, method)


def test_study_reports_inf_not_nan_for_the_width_quantiles_of_unbounded_sets():
    # at alpha 1e-30 most m3p sets are the whole line; numpy interpolates a
    # quantile beside an infinite width to nan, with a RuntimeWarning
    reports = run_coverage_study(["m3p"], [50, 100, 400], [1.0], alpha=1e-30,
                                 replications=20, base_seed=1)
    assert [sum(w == math.inf for w in r.widths) for r in reports] == [19, 17, 10]
    assert coverage_report_csv(reports).splitlines()[1:] == [
        "m3p,50,1.0,1e-30,20,1.0,inf,inf,inf,0,0",
        "m3p,100,1.0,1e-30,20,1.0,4.883966594657337e+60,inf,inf,0,0",
        "m3p,400,1.0,1e-30,20,1.0,4.300812084745403e+60,inf,inf,0,0"]
    # at a whole index the lower neighbour stands, even beside an inf one
    assert _width_quantiles(np.r_[np.arange(1.0, 11.0), math.inf]) == [2.0, 6.0, 10.0]
    finite = np.sort(np.random.default_rng(5).exponential(size=37))
    assert _width_quantiles(finite) == np.quantile(finite, [0.1, 0.5, 0.9]).tolist()


def _quantiles_by_neighbours(widths):
    """Oracle of ``_width_quantiles``: numpy's linear point, except that a point whose
    lower and higher neighbours are equal is their value and one beside an inf is inf."""
    with np.errstate(invalid="ignore"):
        linear = np.quantile(widths, [0.1, 0.5, 0.9])
    lower, upper = (np.quantile(widths, [0.1, 0.5, 0.9], method=m) for m in ("lower", "higher"))
    return np.where((lower == upper) | (upper == math.inf), upper, linear).tolist()


def test_width_quantiles_match_the_neighbour_rule():
    gen = np.random.default_rng(25)
    finite_beside_inf = inf_points = 0
    for i in range(3000):
        n = int(gen.integers(1, 60))
        widths = gen.exponential(size=n)
        if i % 3 == 0:
            widths = np.round(widths)  # repeated values
        if i % 2 == 0:
            widths[gen.random(n) < gen.random()] = math.inf
        got = _width_quantiles(widths)
        assert repr(got) == repr(_quantiles_by_neighbours(widths))
        with np.errstate(invalid="ignore"):
            nan_linear = np.isnan(np.quantile(widths, [0.1, 0.5, 0.9]))
        finite_beside_inf += np.count_nonzero(nan_linear & np.isfinite(got))
        inf_points += got.count(math.inf)
    assert finite_beside_inf > 0 and inf_points > 0


def test_study_default_grid_smoke():
    # every (method, n, beta) cell of the CLI's default grid runs error-free
    reports = run_coverage_study(["m1", "m2", "m3"], [1000, 2000],
                                 [0.5, 1.0, 2.0, 4.0], alpha=0.05,
                                 replications=2, base_seed=31)
    assert len(reports) == 24
    assert all(r.errors == 0 for r in reports)
    assert all(r.coverage == 1.0 for r in reports)  # conservative methods


@pytest.fixture(scope="module")
def five_method_study():
    """One study of all five methods, so each replication's split is shared by four."""
    seed, reps = 17, 3
    reports = run_coverage_study(METHOD_CODES, [24, 120, 1000], [0.5, 2.0], alpha=0.1,
                                 replications=reps, base_seed=seed)
    return seed, reps, reports


@pytest.mark.parametrize("method", METHOD_CODES)
def test_study_replications_match_direct_dispatch(five_method_study, method):
    # every cell is run_method's result on replication r's data stream 2r
    # and split stream 2r + 1: coverage, vacuous and errors as well as widths
    seed, reps, reports = five_method_study
    cells = [r for r in reports if r.method == method]
    assert [(r.n, r.beta) for r in cells] == [(n, b) for n in (24, 120, 1000) for b in (0.5, 2.0)]
    for r in cells:
        covered = vacuous = errors = 0
        widths = []
        for rep in range(reps):
            data = FBetaDensity(r.beta).sample(RngStream(seed, 2 * rep), r.n)
            try:
                res = run_method(data, 0.1, method, h=study_bandwidth(r.n, r.beta),
                                 split_stream=RngStream(seed, 2 * rep + 1))
            except ModeSetError:
                errors += 1
                widths.append(math.nan)
            else:
                covered += res.confidence_set.contains(0.0)
                vacuous += res.vacuous
                widths.append(res.confidence_set.width)
        assert (r.coverage, r.vacuous, r.errors) == (covered / reps, vacuous, errors)
        assert np.array_equal(r.widths, widths, equal_nan=True)


def test_study_blocks_of_replications_do_not_change_results(monkeypatch):
    # replications run in blocks bounded by drawn values; any blocking gives the same bytes
    args = dict(methods=["m1", "m2", "m2a", "m3"], n_values=[150, 300], beta_values=[1.0, 4.0],
                replications=5, base_seed=21)
    whole = run_coverage_study(**args)
    monkeypatch.setattr("modeset.sim._BLOCK_VALUES", 2 * 300)  # blocks of 2, 2 and 1
    blocked = run_coverage_study(**args)
    assert coverage_report_csv(blocked) == coverage_report_csv(whole)
    assert replication_widths_csv(blocked) == replication_widths_csv(whole)


def test_study_times_each_method_on_its_own(monkeypatch):
    # a cell's time is its own method's column of each dispatch, summed over blocks
    import modeset.sim as sim
    clock, real = [0.0], sim._method_columns
    cost = {"m1": 1.0, "m2": 10.0, "m3": 100.0}

    def costed(rows, alpha, methods, **options):
        for method, column in zip(methods, real(rows, alpha, methods, **options)):
            clock[0] += cost[method]
            yield column

    monkeypatch.setattr("modeset.sim._method_columns", costed)
    monkeypatch.setattr("modeset.sim.time", type("Clock", (), {"perf_counter": lambda: clock[0]}))
    monkeypatch.setattr("modeset.sim._BLOCK_VALUES", 300)  # three blocks of one replication
    reports = run_coverage_study(["m1", "m2", "m3"], [200, 300], [1.0], replications=3,
                                 base_seed=4)
    assert [(r.method, r.n, r.wall_time_s) for r in reports] == [
        ("m1", 200, 3.0), ("m1", 300, 3.0), ("m2", 200, 30.0), ("m2", 300, 30.0),
        ("m3", 200, 300.0), ("m3", 300, 300.0)]


@pytest.mark.parametrize("options, message", [
    (dict(n_values=[200.7]), "sample sizes must be integers of at least 2, got [200.7]"),
    (dict(n_values=[]), "sample sizes must be integers of at least 2, got []"),
    (dict(replications=True), "replications must be at least 1 and an integer, got True"),
    (dict(replications=2.5), "replications must be at least 1 and an integer, got 2.5"),
    (dict(workers=1.5), "workers must be at least 1 and an integer, got 1.5"),
    (dict(base_seed=2.7), "base_seed must be an integer, got 2.7"),
    (dict(base_seed=True), "base_seed must be an integer, got True"),
    (dict(beta_values=[]), "beta values must be nonempty"),
    (dict(methods=["m1", "m1"]), "methods must not repeat, got ['m1', 'm1']"),
    (dict(n_values=[200, np.int64(200)]), "sample sizes must not repeat, got [200, 200]"),
    (dict(beta_values=[1, 1.0]), "beta values must not repeat, got [1.0, 1.0]"),
])
def test_study_rejects_counts_that_are_not_integers(options, message):
    args = dict(methods=["m1"], n_values=[200], beta_values=[1.0], replications=2, base_seed=3)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run_coverage_study(**{**args, **options})


def test_study_accepts_numpy_integer_counts():
    args = dict(methods=["m1"], beta_values=[1.0], base_seed=3)
    plain = run_coverage_study(n_values=[200], replications=2, workers=1, **args)
    numpy = run_coverage_study(n_values=[np.int64(200)], replications=np.int32(2),
                               workers=np.int64(1), **args)
    assert coverage_report_csv(numpy) == coverage_report_csv(plain)
