"""The alternating sums behind beta: the series route on the verdict path
and the 6F5 of the Hohlov closed form in the oracles, each
ALTERNATING_TERMS terms closed by averaged_partial_sum, against 30-digit
mpmath sums."""

import mpmath
import pytest

import pascucert as pc
from pascucert import certify, cli, kernels, oracles
from pascucert.quadrature import ALTERNATING_TERMS

FAMILIES = [
    "bernardi c=1",
    "komatu c=0 delta=3",
    "hohlov a=1 b=1 c=4",
    "hohlov a=0.5 b=0.8 c=4.5",
    "two_param_log a=-0.5 b=0",
    "ali_singh k=0.5",
    "generalized A=1 B=1 C=4 x1=1",
]
# (mu, nu, sigma, xi), mu = 0 and sigma = 0.9 among them
POINTS = [(1.0, 2.0, 0.1, 1.0), (0.0, 2.0, 0.1, 1.0), (0.5, 3.0, 0.9, 0.5),
          (1.0, 1.0, 0.0, 0.0), (0.25, 5.0, 0.5, 1.0), (2.0, 2.0, 0.9, 0.0),
          (0.0, 1.0, 0.9, 0.5)]
# the Hohlov a = 1 kernels (b, c) of the closed form
HOHLOV_BC = [(1.0, 4.0), (0.5, 2.5), (2.0, 3.0), (0.8, 4.5), (1.5, 6.0)]


def _tau(kernel, n):
    """tau_n in mpmath from the family's closed form."""
    p, n = {k: mpmath.mpf(v) for k, v in kernel.params}, mpmath.mpf(n)
    if kernel.family == "bernardi":
        return (p["c"] + 1) / (n + p["c"] + 1)
    if kernel.family == "komatu":
        return ((1 + p["c"]) / (n + p["c"] + 1)) ** p["delta"]
    if kernel.family == "hohlov":
        return (mpmath.rf(p["a"], n) * mpmath.rf(p["b"], n)
                / (mpmath.rf(p["c"], n) * mpmath.factorial(n)))
    if kernel.family == "two_param_log":
        return ((p["a"] + 1) * (p["b"] + 1)
                / ((n + p["a"] + 1) * (n + p["b"] + 1)))
    if kernel.family == "ali_singh":
        k = p["k"]
        return (1 - k) * (3 - k) / 2 * (1 / (n + 1 - k) - 1 / (n + 3 - k))
    assert kernel.family == "generalized_omega"
    q = p["C"] - p["A"] - p["B"]
    omega = [mpmath.mpf(x) for x in kernel.omega]
    mass = sum(x * mpmath.beta(p["B"], q + i + 1) for i, x in enumerate(omega))
    return sum(x * mpmath.beta(p["B"] + n, q + i + 1)
               for i, x in enumerate(omega)) / mass


def _alternating_mp(a, n=80):
    """sum_k (-1)**k a(k), k >= 0, by Algorithm 1 of Cohen, Rodriguez
    Villegas and Zagier (error ~ 5.8**-n for moment sequences)."""
    d = (3 + mpmath.sqrt(8)) ** n
    d = (d + 1 / d) / 2
    b, c, s = mpmath.mpf(-1), -d, mpmath.mpf(0)
    for k in range(n):
        c = b - c
        s += c * a(k)
        b = (k + n) * (k - n) * b / ((k + mpmath.mpf(1) / 2) * (k + 1))
    return s / d


def _beta_series_mp(kernel, mu, nu, sigma, xi):
    mu, nu, sg, xi = (mpmath.mpf(v) for v in (mu, nu, sigma, xi))

    def b(k):
        n = k + 1
        return ((1 + xi * n) * (n + 1 - sg) * _tau(kernel, n)
                / ((1 - sg) * (1 + mu * n) * (1 + nu * n)))

    i = 1 - 2 * _alternating_mp(b)
    return i / (i - 1)


def _hohlov_6f5(params, b, c):
    """The numerator and denominator parameters of the closed form."""
    inv_xi = 1.0 / params.xi
    return ([1.0, b, 1.0 / params.mu, 1.0 / params.nu, 2.0 - params.sigma,
             1.0 + inv_xi],
            [c, 1.0 + 1.0 / params.mu, 1.0 + 1.0 / params.nu,
             1.0 - params.sigma, inv_xi])


def _params(mu, nu, sigma, xi):
    return pc.ParameterSet.from_mu_nu(mu, nu, sigma=sigma, xi=xi)


@pytest.mark.parametrize("text", FAMILIES)
def test_series_route_beta_matches_mpmath(text):
    kernel = kernels.parse_kernel(text)
    with mpmath.workdps(30):
        for point in POINTS:
            beta = certify.beta_from_integral(
                certify.beta_series_route(kernel, _params(*point)))
            want = _beta_series_mp(kernel, *point)
            assert abs((beta - want) / want) < 1e-13, point


@pytest.mark.parametrize("b,c", HOHLOV_BC)
def test_hohlov_6f5_matches_mpmath(b, c):
    with mpmath.workdps(30):
        for mu, nu, sigma, xi in POINTS:
            if mu == 0.0 or xi == 0.0:
                continue
            params = _params(mu, nu, sigma, xi)
            num, den = _hohlov_6f5(params, b, c)
            f_mp = mpmath.hyper(num, den, -1)
            f_val = oracles.pfq(num, den, -1.0)
            assert abs((f_val - f_mp) / f_mp) < 1e-13, (mu, nu, sigma, xi)
            beta = oracles.beta0_hohlov_closed_form(params, b, c)
            want = 1 - 1 / (2 * (1 - f_mp))
            assert abs((beta - want) / want) < 1e-13, (mu, nu, sigma, xi)
            # the 6F5's k-th term is the series route's, which the verdict
            # runs.  Its sum I = 1 + sum 2 (-1)**n b_n starts from terms of
            # size 1, so it is good to an ulp of 1 in 1 - I = 1/(1 - beta);
            # where beta is small (1.5e-3 at b = 1.5, c = 6, sigma = 0.9)
            # one ulp of 1 is 1.4e-13 of beta
            kernel = pc.make_kernel("hohlov", a=1.0, b=b, c=c)
            beta = certify.beta_from_integral(
                certify.beta_series_route(kernel, params))
            assert abs((beta - want) / (1 - want)) < 1e-13, \
                (mu, nu, sigma, xi)


@pytest.mark.parametrize("text", FAMILIES)
def test_series_route_tail_is_settled(text, monkeypatch):
    # the average of the first N/2 terms already has the sum of N
    kernel = kernels.parse_kernel(text)
    full = [certify.beta_series_route(kernel, _params(*point))
            for point in POINTS]
    monkeypatch.setattr(certify, "ALTERNATING_TERMS", ALTERNATING_TERMS // 2)
    for point, i_full in zip(POINTS, full):
        i_half = certify.beta_series_route(kernel, _params(*point))
        assert abs(i_half - i_full) < 1e-13 * abs(i_full), point


def test_hohlov_6f5_tail_is_settled(monkeypatch):
    cases = [_hohlov_6f5(_params(mu, nu, sigma, xi), b, c)
             for b, c in HOHLOV_BC for mu, nu, sigma, xi in POINTS
             if mu > 0.0 and xi > 0.0]
    full = [oracles.pfq(num, den, -1.0) for num, den in cases]
    monkeypatch.setattr(oracles, "ALTERNATING_TERMS", ALTERNATING_TERMS // 2)
    for (num, den), f_full in zip(cases, full):
        # absolute: the first term, 1, sets the scale, and at b = 2, c = 3
        # the terms, falling like 7/k, cancel to 6F5 = -0.0077
        assert abs(oracles.pfq(num, den, -1.0) - f_full) < 1e-13, (num, den)


def test_verdict_path_takes_alternating_terms_moments(monkeypatch, tmp_path):
    # certify and sweep read tau_1 .. tau_N, N = ALTERNATING_TERMS, only
    asked = []
    sequence = kernels.moment_sequence

    def recorded(kernel, nmax):
        asked.append(nmax)
        return sequence(kernel, nmax)

    monkeypatch.setattr(kernels, "moment_sequence", recorded)
    for text in FAMILIES:
        certify.run_certification(kernels.parse_kernel(text),
                                  _params(1.0, 2.0, 0.1, 1.0))
    out = tmp_path / "sweep.csv"
    cli.main(["sweep", "--kernel", "hohlov a=1 b={1,2} c=4", "--mu", "1",
              "--nu", "2", "--sigma", "{0,0.1}", "--xi", "1",
              "--format", "csv", "--output", str(out)])
    assert len(out.read_text().splitlines()) == 5
    assert asked and set(asked) == {ALTERNATING_TERMS}
