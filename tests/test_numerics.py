import math

import numpy as np
import pytest
from scipy import special

from modeset import FBetaDensity, MethodInfeasibleError, RngStream, sample_uniform
from modeset.numerics import qbeta, qchisq
from modeset.spacings import build_plan, lanke_inflation


def beta22_cdf(x):
    # hand-derived: Beta(2,2) density is 6x(1-x), so the CDF is 3x^2 - 2x^3
    return 3.0 * x**2 - 2.0 * x**3


def bisect_beta22_quantile(p, tol=1e-13):
    # independent oracle: bisection on the hand-derived cubic
    lo, hi = 0.0, 1.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if beta22_cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_qbeta_symmetry_and_uniform():
    for k in (0.5, 1.0, 2.0, 7.5, 4000.0):
        assert qbeta(0.5, k, k) == pytest.approx(0.5, abs=1e-12)
    for p in (0.1, 0.37, 0.99):
        assert qbeta(p, 1, 1) == pytest.approx(p, abs=1e-12)


def test_qbeta_against_bisection_oracle():
    oracle = bisect_beta22_quantile(0.975)
    assert qbeta(0.975, 2, 2) == pytest.approx(oracle, abs=1e-10)


def test_qbeta_endpoints_and_errors():
    assert qbeta(0.0, 3, 4) == 0.0
    assert qbeta(1.0, 3, 4) == 1.0
    with pytest.raises(ValueError, match="shape a must be a positive finite real"):
        qbeta(0.5, -1, 1)
    with pytest.raises(ValueError, match="shape b must be a positive finite real"):
        qbeta(0.5, 1, math.inf)
    with pytest.raises(ValueError):
        qbeta(1.5, 1, 1)


def test_qbeta_strictly_increasing_in_p():
    ps = np.linspace(1e-6, 1 - 1e-6, 300)
    for a, b in ((2.0, 2.0), (16.0, 4081.0), (0.6, 0.9)):
        xs = np.array([qbeta(p, a, b) for p in ps])
        assert np.all(np.diff(xs) > 0)


def test_qbeta_round_trip():
    rng = np.random.default_rng(171)
    for _ in range(1000):
        a = rng.uniform(0.5, 5000.0)
        b = rng.uniform(0.5, 5000.0)
        p = rng.uniform(1e-9, 1.0 - 1e-9)
        assert abs(special.betainc(a, b, qbeta(p, a, b)) - p) <= 1e-9


def test_qbeta_raises_when_the_inverse_misses(monkeypatch):
    inverse = special.betaincinv
    monkeypatch.setattr("modeset.numerics.special.betaincinv",
                        lambda a, b, p: inverse(a, b, p) + 1e-6)
    with pytest.raises(ArithmeticError, match="exceeds 1e-10"):
        qbeta(0.3, 2.0, 5.0)


def test_qchisq_exponential_closed_form():
    # chi-square with 2 df is Exponential(rate 1/2): quantile -2*ln(1-p)
    assert qchisq(0.95, 2) == pytest.approx(-2.0 * math.log(0.05), abs=1e-10)
    assert qchisq(0.5, 2) == pytest.approx(-2.0 * math.log(0.5), abs=1e-10)
    for p in np.arange(0.01, 1.0, 0.01):
        assert qchisq(float(p), 2) == pytest.approx(-2.0 * math.log1p(-p), abs=1e-10)


def test_qchisq_lower_support_and_errors():
    assert qchisq(1e-12, 3) > 0.0
    assert qchisq(1e-12, 3) < 1e-3
    with pytest.raises(ValueError):
        qchisq(0.5, 0)
    with pytest.raises(ValueError):
        qchisq(0.5, -4)


def test_sample_uniform_determinism_and_streams():
    a = sample_uniform(RngStream(1, 0), 3)
    b = sample_uniform(RngStream(1, 0), 3)
    assert np.array_equal(a, b)
    c = sample_uniform(RngStream(1, 1), 3)
    assert not np.array_equal(a, c)


def test_sample_uniform_open_interval_and_mean():
    u = sample_uniform(RngStream(9, 4), 10**6)
    assert np.all(u > 0.0) and np.all(u < 1.0)
    assert abs(u.mean() - 0.5) <= 0.002


def test_rng_stream_validation():
    # each message names the offending value
    with pytest.raises(ValueError) as exc:
        RngStream(-1, 0)
    assert str(exc.value) == "seed must fit in an unsigned 64-bit integer, got -1"
    with pytest.raises(ValueError) as exc:
        RngStream(0, 2**64)
    assert str(exc.value) == (
        "stream_id must fit in an unsigned 64-bit integer, got 18446744073709551616")
    with pytest.raises(ValueError) as exc:
        RngStream(1.5, 0)
    assert str(exc.value) == "seed must be an integer, got 1.5"


@pytest.mark.parametrize("call, error", [
    (lambda: RngStream(True, 0), ValueError),
    (lambda: RngStream(0, False), ValueError),
    (lambda: qchisq(0.5, True), ValueError),
    (lambda: sample_uniform(RngStream(0, 0), True), ValueError),
    (lambda: FBetaDensity(1.0).sample(RngStream(0, 0), True), ValueError),
    (lambda: build_plan(True, 0.05), MethodInfeasibleError),
    (lambda: lanke_inflation(True, 0.05), ValueError),
], ids=["seed", "stream_id", "df", "uniform_n", "fbeta_n", "plan_n", "lanke_n"])
def test_a_bool_is_not_a_count(call, error):
    # True == 1, but every integer option takes an int or NumPy integer only
    with pytest.raises(error):
        call()
