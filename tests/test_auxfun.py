import math

import mpmath
import numpy as np
import pytest

from pascucert import auxfun, oracles
from pascucert.auxfun import AuxContext
from pascucert.quadrature import ALTERNATING_TERMS, averaged_partial_sum
from pascucert.errors import DomainError, PoleError
from pascucert.oracles import ConvergenceFailure, DivergentSeries


def test_context_validation():
    with pytest.raises(DomainError):
        AuxContext(1.0, 2.0, sigma=1.0)
    with pytest.raises(DomainError):
        AuxContext(1.0, 2.0, xi=-0.1)
    with pytest.raises(DomainError):
        AuxContext(1.0, 2.0, epsilon=2.0 + 0j)
    AuxContext(1.0, 2.0, epsilon=complex(math.cos(1.0), math.sin(1.0)))


def test_g_and_q_at_zero():
    ctx = AuxContext(1.0, 2.0, 0.1, 0.5)
    assert oracles.g_series(ctx, 0.0) == pytest.approx(1.0)
    # the n = 0 term of the q series is 1 regardless of parameters
    assert oracles.q_series(ctx, 0.0) == pytest.approx(1.0)


@pytest.mark.parametrize("mu,nu", [(1.0, 1.0), (1.0, 2.0)])
@pytest.mark.parametrize("sigma", [0.0, 0.1])
def test_g_series_vs_integral(mu, nu, sigma):
    ctx = AuxContext(mu, nu, sigma)
    for t in np.arange(0.1, 0.95, 0.1):
        s = oracles.g_series(ctx, t)
        i = oracles.g_integral(ctx, t)
        assert abs(s - i) < 1e-8


@pytest.mark.parametrize("mu,nu", [(1.0, 1.0), (1.0, 2.0)])
@pytest.mark.parametrize("sigma", [0.0, 0.1])
def test_q_series_vs_integral(mu, nu, sigma):
    ctx = AuxContext(mu, nu, sigma)
    for t in np.arange(0.1, 0.95, 0.1):
        s = oracles.q_series(ctx, t)
        i = oracles.q_integral(ctx, t)
        assert abs(s - i) < 1e-8


def test_g_integral_mu_zero_branch():
    ctx = AuxContext(0.0, 3.0, 0.1)
    for t in (0.2, 0.6):
        s = oracles.g_series(ctx, t)
        i = oracles.g_integral(ctx, t)
        assert abs(s - i) < 1e-8


def test_combined_gq_mixes_profiles():
    ctx = AuxContext(1.0, 2.0, 0.1, 0.3)
    t = 0.4
    g = oracles.g_series(ctx, t)
    q = oracles.q_series(ctx, t)
    expect = (1.0 - 0.3) * g + 0.3 * (2.0 * q - 1.0)
    assert oracles.combined_gq(ctx, t) == pytest.approx(expect, abs=1e-12)


@pytest.mark.parametrize("mu,nu,sigma,xi", [(1.0, 2.0, 0.1, 1.0),
                                             (2.0, 3.0, 0.1, 0.25),
                                             (0.0, 1.0, 0.0, 0.0)])
def test_combined_gq_array_matches_scalar_and_float_power(mu, nu, sigma, xi):
    ctx = AuxContext(mu, nu, sigma, xi)
    t = np.concatenate([[0.0, 0.5, 0.99, 0.999, 1.0],
                        np.linspace(0.0, 1.0, 401)])
    arr = oracles.combined_gq(ctx, t)
    assert arr.shape == t.shape
    scalar = np.array([oracles.combined_gq(ctx, float(x)) for x in t])
    assert np.max(np.abs(arr - scalar)) <= 1e-13
    # the float-power series: all 3000 terms (-t)**n, tail-averaged
    n = np.arange(3000, dtype=float)
    coef = ((1.0 + xi * n) * (n + 1.0 - sigma)
            / ((1.0 - sigma) * (1.0 + n * mu) * (1.0 + n * nu)))
    powered = np.array([2.0 * averaged_partial_sum(coef * (-x) ** n) - 1.0
                        for x in t])
    assert np.max(np.abs(arr - powered)) <= 1e-13
    assert oracles.combined_gq(ctx, t.reshape(2, -1)).shape == (2, 203)


def _gq_reference(mu, nu, sigma, xi, t):
    """G(t) = 2 int int R(t u**mu v**nu) du dv - 1 to 30 digits.

    R(y) = sum_k c_k (1 + y)**-k, k = 1..3, and the u integral of
    (1 + y u**mu)**-k is 2F1(k, 1/mu; 1 + 1/mu; -y), so mpmath integrates
    in v only, never in s = u**mu, whose weight s**(1/mu - 1) defeats the
    tanh-sinh rule at large mu.
    """
    with mpmath.workdps(30):
        sg, xi, t = mpmath.mpf(sigma), mpmath.mpf(xi), mpmath.mpf(t)
        coef = [c / (1 - sg)
                for c in (-sg * (1 - xi), 1 - xi * (2 + sg), 2 * xi)]

        def inner(y):
            if mu == 0.0:
                return sum(c / (1 + y) ** k for k, c in enumerate(coef, 1))
            e = 1 / mpmath.mpf(mu)
            return sum(c * mpmath.hyp2f1(k, e, 1 + e, -y)
                       for k, c in enumerate(coef, 1))

        val = mpmath.quad(lambda v: inner(t * v ** mpmath.mpf(nu)), [0, 1])
        return 2 * val - 1


GQ_CASES = [(1.0, 2.0, 0.1, 1.0), (2.0, 3.0, 0.1, 0.25), (0.0, 1.0, 0.0, 0.0),
            (0.0, 2.0, 0.1, 1.0), (0.5, 2.0, 0.7, 1.0), (0.01, 2.0, 0.1, 1.0),
            (1.0, 1.0, 0.99, 1.0)]
GQ_T = (0.0, 0.5, 0.99, 0.999, 1.0)


@pytest.mark.parametrize("mu,nu,sigma,xi", GQ_CASES, ids=str)
def test_combined_gq_matches_mpmath(mu, nu, sigma, xi):
    # (0, 2, 0.1, 1) at t = 1 is where the 3000-term series was 4.9e-12
    # off.  At sigma = 0.99, R is of size 1/(1 - sigma) = 100 at the nodes
    # and G reaches -38; there 1e-14 is 1.4 units in the last place of G,
    # below the rounding of any double sum of such terms, so the bound
    # scales with |G| beyond 1
    ctx = AuxContext(mu, nu, sigma, xi)
    got = oracles.combined_gq(ctx, np.array(GQ_T))
    for g, t in zip(got, GQ_T):
        ref = _gq_reference(mu, nu, sigma, xi, t)
        assert abs(g - ref) <= 1e-14 * max(1.0, abs(ref)), (t, g, ref)


def test_g_and_q_by_the_rule(monkeypatch):
    # the rule alone, neither the series nor, near t = 1, the adaptive
    # dblquad: g is G at xi = 0 and q = (G at xi = 1 + 1)/2
    monkeypatch.setattr(oracles, "_series_sum", None)
    monkeypatch.setattr(oracles, "_double_integral", None)
    mu, nu, sigma = 1.0, 2.0, 0.1
    ctx = AuxContext(mu, nu, sigma, 0.5)
    at_0, at_1 = AuxContext(mu, nu, sigma, 0.0), AuxContext(mu, nu, sigma, 1.0)
    for t in GQ_T:
        g = oracles.combined_gq(at_0, t)
        q = 0.5 * (oracles.combined_gq(at_1, t) + 1.0)
        assert isinstance(g, float) and isinstance(q, float)
        assert abs(g - _gq_reference(mu, nu, sigma, 0.0, t)) <= 1e-14
        assert abs(2.0 * q - 1.0
                   - _gq_reference(mu, nu, sigma, 1.0, t)) <= 1e-14
    assert oracles.combined_gq(ctx, np.array(GQ_T)).shape == (5,)


def test_combined_gq_domain():
    ctx = AuxContext(1.0, 2.0, 0.1, 1.0)
    with pytest.raises(DomainError):
        oracles.combined_gq(ctx, np.array([0.5, 1.5]))


def test_combined_gq_hypergeometric_identity():
    for xi in (0.25, 1.0):
        ctx = AuxContext(1.0, 2.0, 0.1, xi)
        for t in (0.1, 0.5, 0.9):
            a = oracles.combined_gq(ctx, t)
            b = oracles.combined_gq_hypergeometric(ctx, t)
            assert a == pytest.approx(b, abs=1e-10)


def test_h_sigma_values():
    ctx = AuxContext(1.0, 2.0, sigma=0.1, epsilon=1.0 + 0j)
    # A = (1 + 2 sigma - 1)/(2(1 - sigma)) = sigma/(1 - sigma)
    z = 0.3 + 0.2j
    a = 0.1 / 0.9
    expect = z * (1.0 + a * z) / (1.0 - z) ** 2
    assert oracles.h_sigma(ctx, z) == pytest.approx(expect)


def test_h_sigma_prime_matches_difference_quotient():
    ctx = AuxContext(1.0, 2.0, sigma=0.2,
                     epsilon=complex(math.cos(0.7), math.sin(0.7)))
    z = 0.4 - 0.3j
    h = 1e-6
    fd = (oracles.h_sigma(ctx, z + h) - oracles.h_sigma(ctx, z - h)) / (2 * h)
    assert oracles.h_sigma_prime(ctx, z) == pytest.approx(fd, rel=1e-8)


def test_h_sigma_pole():
    ctx = AuxContext(1.0, 2.0)
    with pytest.raises(PoleError):
        oracles.h_sigma(ctx, 1.0 + 0j)
    with pytest.raises(PoleError):
        oracles.h_sigma_prime(ctx, 1.0 + 1e-12j)


def test_l_integrand_vanishes_at_unit_epsilon_minus_one():
    ctx = AuxContext(1.0, 2.0, 0.1, 0.5, epsilon=1.0 + 0j)
    t = np.linspace(0.05, 0.95, 40)
    vals = auxfun.l_integrand(ctx, -1.0 + 1e-4, t)
    assert np.max(np.abs(vals)) <= 1e-3


def test_l_integrand_scalar_and_vector_agree():
    ctx = AuxContext(1.0, 2.0, 0.1, 0.5,
                     epsilon=complex(math.cos(0.3), math.sin(0.3)))
    z = 0.5 + 0.4j
    t = np.array([0.2, 0.5, 0.8])
    vec = auxfun.l_integrand(ctx, z, t)
    for i, ti in enumerate(t):
        assert vec[i] == pytest.approx(auxfun.l_integrand(ctx, z, float(ti)))


# ---------------------------------------------------------------------------
# generalized hypergeometric evaluator

def test_pfq_log_series():
    # 2F1(1, 1; 2; x) = -log(1 - x)/x
    for x in (0.3, -0.7, 0.9):
        expect = -math.log1p(-x) / x
        assert oracles.pfq([1.0, 1.0], [2.0], x) == pytest.approx(
            expect, rel=1e-12)


def test_pfq_polynomial_termination():
    # negative integer numerator truncates: 2F1(-2, b; c; x) is quadratic
    b, c, x = 1.5, 2.5, 3.7
    expect = 1.0 + (-2.0) * b / c * x \
        + ((-2.0) * (-1.0) / 2.0) * (b * (b + 1.0)) / (c * (c + 1.0)) * x**2
    assert oracles.pfq([-2.0, b], [c], x) == pytest.approx(expect, rel=1e-12)


def test_pfq_matches_mpmath():
    cases = [
        ([0.5, 1.2], [2.3], 0.6),
        ([0.5, 1.2, 0.7], [2.3, 1.1], -0.95),
        ([1.0, 0.5, 2.0, 1.9, 3.0], [2.0, 1.5, 0.9, 4.0], -1.0),
    ]
    for num, den, x in cases:
        expect = float(mpmath.hyper(num, den, x))
        assert oracles.pfq(num, den, x) == pytest.approx(expect, rel=1e-9)


def _pfq_loop(num, den, x, max_terms=50000):
    """The term-by-term recurrence, for series without a terminating or
    x = 1 special case; ALTERNATING_TERMS terms at x = -1."""
    term, total, ring = 1.0, 0.0, []
    for k in range(ALTERNATING_TERMS if x == -1.0 else max_terms + 1):
        total += term
        ring = (ring + [total])[-8:]
        ratio = x / (k + 1.0)
        for a in num:
            ratio *= a + k
        for b in den:
            ratio /= b + k
        term *= ratio
        if k > 10 and abs(term) < 1e-15 * max(abs(total), 1e-300):
            return total + term
    w = [math.comb(7, j) / 128.0 for j in range(8)]
    return float(np.dot(w, ring))


@pytest.mark.parametrize("num,den,x", [
    ([1.0, 1.0], [2.0], -1.0),
    ([1.0, 1.0], [2.0], 0.999),
    ([0.5, 1.2, 0.7], [2.3, 1.1], -0.95),
    # the Hohlov a = 1 6F5 at -1 behind beta0_hohlov_closed_form
    ([1.0, 1.0, 1.0, 0.5, 1.9, 2.0], [4.0, 2.0, 1.5, 0.9, 1.0], -1.0),
])
def test_pfq_matches_scalar_recurrence_exactly(num, den, x):
    assert oracles.pfq(num, den, x) == _pfq_loop(num, den, x)


def test_pfq_gauss_value_at_one():
    a, b, c = 0.3, 0.4, 2.0
    expect = (math.gamma(c) * math.gamma(c - a - b)
              / (math.gamma(c - a) * math.gamma(c - b)))
    assert oracles.pfq([a, b], [c], 1.0) == pytest.approx(expect, rel=1e-9)


def test_pfq_domain_errors():
    with pytest.raises(DomainError):
        oracles.pfq([1.0], [-2.0], 0.5)
    with pytest.raises(DivergentSeries):
        oracles.pfq([1.0, 1.0], [2.0], 1.5)
    with pytest.raises(DivergentSeries):
        oracles.pfq([1.0, 1.0, 1.0], [2.0], 0.5)  # p > q + 1
    with pytest.raises(DivergentSeries):
        oracles.pfq([1.0, 1.5], [2.0], 1.0)  # excess = -0.5 at x = 1
