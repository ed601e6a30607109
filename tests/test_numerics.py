import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from scipy import special

from modeset import FBetaDensity, MethodInfeasibleError, RngStream, sample_uniform
from modeset.numerics import _beta_tails, _chisq_tails, qbeta, qchisq
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
    for k in (1, 2, 7, 8, 4000):
        assert qbeta(0.5, k, k) == pytest.approx(0.5, abs=1e-12)
    for p in (0.1, 0.37, 0.99):
        assert qbeta(p, 1, 1) == pytest.approx(p, abs=1e-12)


def test_qbeta_against_bisection_oracle():
    oracle = bisect_beta22_quantile(0.975)
    assert qbeta(0.975, 2, 2) == pytest.approx(oracle, abs=1e-10)


def test_qbeta_endpoints_and_errors():
    assert qbeta(0.0, 3, 4) == 0.0
    assert qbeta(1.0, 3, 4) == 1.0
    with pytest.raises(ValueError, match="shape a must be a positive integer"):
        qbeta(0.5, -1, 1)
    with pytest.raises(ValueError, match="shape b must be a positive integer"):
        qbeta(0.5, 1, math.inf)
    with pytest.raises(ValueError):
        qbeta(1.5, 1, 1)


@pytest.mark.parametrize("a, b", [(2.0, 3), (2, 3.0), (2.5, 3), (2, 0.5), (True, 3), (0, 3)])
def test_qbeta_takes_positive_integer_shapes_only(a, b):
    # the plans' shapes are 2**k and n + 1 - 2**k: a float, even a whole one, is refused
    with pytest.raises(ValueError, match="must be a positive integer"):
        qbeta(0.5, a, b)


def exact_beta_cdfs(x, n):
    """[I_x(a, n + 1 - a) for a = 1..n] in exact rationals at the float x: the upper
    tails P(Binomial(n, x) >= a), from integer terms over the common denominator."""
    num, den = x.as_integer_ratio()
    terms = [math.comb(n, k) * num**k * (den - num) ** (n - k) for k in range(n + 1)]
    tails = [sum(terms[a:]) for a in range(1, n + 1)]
    return [Fraction(tail, den**n) for tail in tails]


def exact_beta_cdf(x, a, b):
    return exact_beta_cdfs(x, a + b - 1)[a - 1]


def test_beta_tails_match_exact_binomial_sums():
    # every tail here is above the double range's floor, (1e-6)**40 the least
    worst = 0.0
    for n in range(1, 41):
        for x in (1e-6, 0.003, 0.1, 0.37, 0.5, 0.81, 0.999, 1 - 2**-20):
            for a, exact in enumerate(exact_beta_cdfs(x, n), start=1):
                lower, upper, _ = _beta_tails(x, a, n + 1 - a)
                for got, want in ((upper, exact), (lower, 1 - exact)):
                    worst = max(worst, float(abs(Fraction(got) - want) / want))
    assert worst <= 1e-12


def test_qbeta_lies_within_1e_13_of_the_exact_root():
    # the exact cdf crosses p between x (1 - 1e-13) and x (1 + 1e-13)
    for n in (1, 2, 5, 17, 40):
        for a in range(1, n + 1):
            b = n + 1 - a
            for p in (1e-8, 0.025, 0.5, 0.975, 1 - 1e-8):
                x = qbeta(p, a, b)
                assert exact_beta_cdf(x * (1 - 1e-13), a, b) <= p
                assert p <= exact_beta_cdf(min(x * (1 + 1e-13), 1.0), a, b)


def test_qbeta_strictly_increasing_in_p():
    ps = np.linspace(1e-6, 1 - 1e-6, 300)
    for a, b in ((2, 2), (16, 4081), (1, 3)):
        xs = np.array([qbeta(p, a, b) for p in ps])
        assert np.all(np.diff(xs) > 0)


def test_qbeta_round_trip():
    rng = np.random.default_rng(171)
    for _ in range(1000):
        a = int(rng.integers(1, 5001))
        b = int(rng.integers(1, 5001))
        p = rng.uniform(1e-9, 1.0 - 1e-9)
        assert abs(special.betainc(a, b, qbeta(p, a, b)) - p) <= 1e-9


def test_qbeta_raises_when_the_inverse_misses(monkeypatch):
    from modeset import numerics

    inverse = numerics._cdf_root
    monkeypatch.setattr(numerics, "_cdf_root", lambda *args: inverse(*args) + 1e-6)
    with pytest.raises(ArithmeticError, match="exceeds 1e-10"):
        qbeta(0.3, 2, 5)


def test_qchisq_exponential_closed_form():
    # chi-square with 2 df is Exponential(rate 1/2): quantile -2*ln(1-p)
    assert qchisq(0.95, 2) == pytest.approx(-2.0 * math.log(0.05), abs=1e-10)
    assert qchisq(0.5, 2) == pytest.approx(-2.0 * math.log(0.5), abs=1e-10)
    for p in np.arange(0.01, 1.0, 0.01):
        assert qchisq(float(p), 2) == pytest.approx(-2.0 * math.log1p(-p), abs=1e-10)


def test_qchisq_lower_support_and_errors():
    assert qchisq(1e-12, 4) > 0.0
    assert qchisq(1e-12, 4) < 1e-3
    with pytest.raises(ValueError):
        qchisq(0.5, 0)
    with pytest.raises(ValueError):
        qchisq(0.5, -4)
    for df in (3, 5):  # m3's cutoff takes even df only
        with pytest.raises(ValueError, match="positive even integer"):
            qchisq(0.5, df)


def test_qchisq_raises_when_the_inverse_misses(monkeypatch):
    from modeset import numerics

    inverse = numerics._cdf_root
    monkeypatch.setattr(numerics, "_cdf_root", lambda *args: inverse(*args) + 1e-6)
    with pytest.raises(ArithmeticError, match="exceeds 1e-10"):
        qchisq(0.3, 4)


def _exact_poisson_tails(k, x):
    # 80-digit sums of t_j = P(Poisson(x / 2) = j), each tail on its own:
    # j < k, and j >= k until the terms have fallen below 1e-40 of the sum
    with localcontext() as ctx:
        ctx.prec = 80
        lam = Decimal(x) / 2
        term, lower, upper, j = (-lam).exp(), Decimal(0), Decimal(0), 0
        while j < k or j <= lam or term > upper * Decimal("1e-40"):
            if j < k:
                lower += term
            else:
                upper += term
            if j == k - 1:
                density = term / 2
            j += 1
            term = term * lam / j
        return lower, upper, density


@pytest.mark.parametrize("k", [1, 2, 3, 7, 30, 120, 200])
def test_chisq_tails_match_exact_poisson_sums(k):
    # both sides of the mean 2k; x where the smaller tail underflows are left out
    xs = sorted({*np.geomspace(0.01, 3 * k + 50, 17).tolist(), 2 * k - 0.5, 2 * k, 2 * k + 0.5})
    checked = 0
    for x in xs:
        exact = _exact_poisson_tails(k, x)
        if min(exact[:2]) < Decimal("1e-300"):
            continue
        checked += 1
        got = _chisq_tails(x, k)  # 1 - F = P(N < k) and F = P(N >= k)
        small, big = (0, 1) if exact[0] < exact[1] else (1, 0)
        for i in (small, 2):
            assert abs(Decimal(got[i]) - exact[i]) <= Decimal("1e-12") * exact[i], (k, x, i)
        assert abs(Decimal(got[big]) - exact[big]) <= Decimal("1e-15"), (k, x)
    assert checked >= 10


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
