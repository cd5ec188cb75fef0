import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pascucert import certify, kernels, oracles
from pascucert.errors import (ConfigError, CriticalPoint, DomainError,
                              NotApplicable)
from pascucert.params import ParameterSet
from pascucert.oracles import integrate_01

FAMILY_EXAMPLES = [
    kernels.make_kernel("bernardi", c=1.0),
    kernels.make_kernel("bernardi", c=-0.5),
    kernels.make_kernel("komatu", c=0.0, delta=3.0),
    kernels.make_kernel("komatu", c=1.0, delta=0.5),
    kernels.make_kernel("hohlov", a=1.0, b=1.0, c=4.0),
    kernels.make_kernel("hohlov", a=0.5, b=0.8, c=4.5),
    kernels.make_kernel("two_param_log", a=0.0, b=1.0),
    kernels.make_kernel("two_param_log", a=-0.5, b=-0.5),
    kernels.make_kernel("ali_singh", k=0.5),
    kernels.make_kernel("generalized", A=1.0, B=1.0, C=4.0, x1=1.0),
    kernels.make_kernel("generalized", A=0.5, B=1.0, C=4.0, x1=0.5, x2=0.5),
]


@pytest.mark.parametrize("kernel", FAMILY_EXAMPLES,
                         ids=[k.text() for k in FAMILY_EXAMPLES])
def test_density_has_unit_mass(kernel):
    p, q = kernels.endpoint_exponents(kernel)
    mass = integrate_01(lambda t: kernels.density(kernel, t), p, q)
    assert mass == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("kernel", FAMILY_EXAMPLES,
                         ids=[k.text() for k in FAMILY_EXAMPLES])
def test_moments_match_quadrature(kernel):
    p, q = kernels.endpoint_exponents(kernel)
    for n in (1, 2, 5):
        num = integrate_01(lambda t: t**n * kernels.density(kernel, t), p, q)
        assert kernels.moment(kernel, n) == pytest.approx(num, abs=1e-9)


def test_moment_zero_is_one():
    k = kernels.make_kernel("komatu", c=0.0, delta=3.0)
    assert kernels.moment(k, 0) == 1.0


def test_moment_sequence_matches_scalar():
    # every family, exactly: moment(k, n) is entry n of moment_sequence
    for k in FAMILY_EXAMPLES:
        seq = kernels.moment_sequence(k, 50)
        assert np.array_equal(seq, [kernels.moment(k, n)
                                    for n in range(1, 51)]), k.text()


HOHLOV_QUADMOMENTS = [
    kernels.make_kernel("hohlov", a=0.5, b=0.8, c=4.5),
    kernels.make_kernel("hohlov", a=1.5, b=0.5, c=4.0),
]


@pytest.mark.parametrize("kernel", HOHLOV_QUADMOMENTS,
                         ids=[k.text() for k in HOHLOV_QUADMOMENTS])
def test_hohlov_closed_moments_match_quadrature(kernel):
    p, q = kernels.endpoint_exponents(kernel)
    tau = kernels.moment_sequence(kernel, 50)
    for n in range(1, 51):
        num = integrate_01(
            lambda t: t**n * kernels.density(kernel, t), p + n, q,
            epsabs=1e-12,
            f_complement=lambda d: kernels.density_complement(kernel, d)
            * (1.0 - d) ** n)
        assert tau[n - 1] == pytest.approx(num, rel=1e-8, abs=1e-12)
        assert kernels.moment(kernel, n) == tau[n - 1]


def test_bernardi_moments_closed_form():
    k = kernels.make_kernel("bernardi", c=1.0)
    for n in range(1, 6):
        assert kernels.moment(k, n) == pytest.approx(2.0 / (n + 2.0))


def test_komatu_moments_closed_form():
    k = kernels.make_kernel("komatu", c=0.0, delta=3.0)
    for n in range(1, 6):
        assert kernels.moment(k, n) == pytest.approx((1.0 / (n + 1.0)) ** 3)


def test_hohlov_a1_moments_beta_ratio():
    k = kernels.make_kernel("hohlov", a=1.0, b=1.0, c=4.0)
    for n in range(1, 6):
        expect = math.gamma(1.0 + n) * math.gamma(4.0) / math.gamma(4.0 + n)
        assert kernels.moment(k, n) == pytest.approx(expect)


@pytest.mark.parametrize("kernel", FAMILY_EXAMPLES,
                         ids=[k.text() for k in FAMILY_EXAMPLES])
def test_density_derivatives_match_finite_difference(kernel):
    h = 1e-6
    for t in (0.2, 0.5, 0.8):
        lam, d1, d2 = kernels.density_derivatives(kernel, t)
        assert lam == pytest.approx(kernels.density(kernel, t), rel=1e-12)
        fd1 = (kernels.density(kernel, t + h)
               - kernels.density(kernel, t - h)) / (2.0 * h)
        fd2 = (kernels.density(kernel, t + h) - 2.0 * lam
               + kernels.density(kernel, t - h)) / h**2
        assert d1 == pytest.approx(fd1, rel=2e-6, abs=1e-6)
        assert d2 == pytest.approx(fd2, rel=5e-4, abs=5e-3)


def test_envelopes_positive_and_decreasing():
    k = kernels.make_kernel("komatu", c=0.0, delta=3.0)
    ts = [0.1, 0.3, 0.6, 0.9]
    lam = [oracles.lambda_envelope(k, 2.0, t) for t in ts]
    pi = [oracles.pi_envelope(k, 1.0, 2.0, t) for t in ts]
    assert all(v > 0 for v in lam + pi)
    assert all(a > b for a, b in zip(lam, lam[1:]))
    assert all(a > b for a, b in zip(pi, pi[1:]))


def test_pi_envelope_reduces_to_lambda_at_mu_zero():
    k = kernels.make_kernel("bernardi", c=1.0)
    for t in (0.2, 0.7):
        assert oracles.pi_envelope(k, 0.0, 2.0, t) == pytest.approx(
            oracles.lambda_envelope(k, 2.0, t), rel=1e-9)


@pytest.mark.parametrize("t", [1e-17, 1e-20])
def test_envelopes_below_machine_epsilon(t):
    # bernardi c=1: lambda = 2x, so Lambda_2 = (4/3)(1 - t**1.5) and, at
    # mu = 1, Pi = (4/3)(2 t**-0.5 + t - 3); 1 - t rounds to 1 here
    k = kernels.make_kernel("bernardi", c=1.0)
    assert oracles.lambda_envelope(k, 2.0, t) == pytest.approx(
        4.0 / 3.0 * (1.0 - t**1.5), rel=1e-14)
    assert oracles.pi_envelope(k, 1.0, 2.0, t) == pytest.approx(
        4.0 / 3.0 * (2.0 * t**-0.5 + t - 3.0), rel=1e-12)


def test_pi_envelope_matches_double_integral():
    from scipy.integrate import quad
    k = kernels.make_kernel("bernardi", c=1.0)
    mu, nu = 1.0, 2.0
    for t in (0.3, 0.7):
        def outer(x):
            inner, _ = quad(
                lambda y: kernels.density(k, y) * y ** (-1.0 / nu),
                x, 1.0, epsabs=1e-12)
            return x ** (1.0 / nu - 1.0 - 1.0 / mu) * inner
        direct, _ = quad(outer, t, 1.0, epsabs=1e-11)
        assert oracles.pi_envelope(k, mu, nu, t) == pytest.approx(
            direct, rel=1e-8)


ENVELOPE_FAMILIES = [
    kernels.make_kernel("bernardi", c=1.0),
    kernels.make_kernel("komatu", c=-0.5, delta=4.0),
    kernels.make_kernel("hohlov", a=1.5, b=0.5, c=4.0),
    kernels.make_kernel("two_param_log", a=-0.5, b=0.0),
    kernels.make_kernel("ali_singh", k=0.5),
    kernels.make_kernel("generalized", A=1.0, B=1.0, C=4.0, x1=1.0),
]


def _envelopes_mpmath(kernel, mu, nu, t):
    """(Lambda_nu(t), Pi_{mu,nu}(t)) for mu > 0, mu != nu, by mpmath's
    tanh-sinh rule in y = -log x over pieces split at y = 2**k.  It reaches
    the M-nodes below t = 1e-8, where the adaptive oracle stops with
    QuadratureFailure (at t = 9.1e-11 on komatu c=-0.5 delta=4) or warns
    of round-off."""
    import mpmath
    y_t = -math.log(t)
    d = 1.0 / nu - 1.0 / mu

    def lam(y):
        # lambda x**(-1/nu) dx with dx = x dy
        y = float(y)
        x = math.exp(-y)
        val = (kernels.density(kernel, x) if y >= math.log(2.0)
               else kernels.density_complement(kernel, -math.expm1(-y)))
        return val * x ** (1.0 - 1.0 / nu)

    def pi_weight(y):
        # (x**d - t**d)/d
        return (math.exp(-d * float(y)) - math.exp(-d * y_t)) / d

    cuts = [0.0] + [2.0**k for k in range(-1, 6) if 2.0**k < y_t] + [y_t]
    return (float(mpmath.quad(lam, cuts)),
            float(mpmath.quad(lambda y: lam(y) * pi_weight(y), cuts)))


def _assert_envelopes_match_oracle(kernel, mu, nu, t):
    lam, pi = kernels.envelopes(kernel, mu, nu, t)
    # the adaptive oracle where it reaches, mpmath below
    near = t >= 1e-8
    lam_o, pi_o = np.empty_like(t), np.empty_like(t)
    lam_o[near] = [oracles.lambda_envelope(kernel, nu, x) for x in t[near]]
    pi_o[near] = [oracles.pi_envelope(kernel, mu, nu, x) for x in t[near]]
    for i in np.flatnonzero(~near):
        lam_o[i], pi_o[i] = _envelopes_mpmath(kernel, mu, nu, t[i])
    # 1e-10 is the oracle's own epsabs
    assert np.all(np.abs(lam - lam_o) <= 1e-8 * np.abs(lam_o) + 1e-10)
    assert np.all(np.abs(pi - pi_o) <= 1e-8 * np.abs(pi_o) + 1e-10)


@pytest.mark.parametrize("kernel", ENVELOPE_FAMILIES,
                         ids=[k.text() for k in ENVELOPE_FAMILIES])
def test_envelopes_match_adaptive_oracle(kernel):
    # the functional's M-nodes, the monotone-check grid, the decay points
    m_nodes, _ = certify._m_nodes(
        kernel, ParameterSet.from_mu_nu(1.0, 2.0, sigma=0.1, xi=1.0))
    t = np.concatenate([m_nodes, certify.default_t_grid(257),
                        [1e-2, 1e-4, 1e-6]])
    _assert_envelopes_match_oracle(kernel, 1.0, 2.0, t)


@pytest.mark.parametrize("mu", [0.0, 2.0], ids=["pi_is_lambda", "log_form"])
def test_envelopes_degenerate_exponents_match_oracle(mu):
    # mu = 0 gives Pi = Lambda; mu = nu makes d = 1/nu - 1/mu vanish
    k = kernels.make_kernel("komatu", c=0.0, delta=3.0)
    t = np.concatenate([certify.default_t_grid(257), [1e-2, 1e-4, 1e-6]])
    _assert_envelopes_match_oracle(k, mu, 2.0, t)


@pytest.mark.parametrize("kernel", [
    kernels.make_kernel("komatu", c=1.0, delta=0.5),
    kernels.make_kernel("hohlov", a=0.5, b=0.8, c=1.5),
], ids=["komatu_q=-0.5", "hohlov_q=0.2"])
def test_envelopes_on_sparse_grid_match_oracle(kernel):
    # long gaps next to the (1 - t)**q endpoint singularity
    _assert_envelopes_match_oracle(kernel, 1.0, 2.0,
                                   np.array([0.05, 0.5, 0.9, 0.999]))


@pytest.mark.parametrize("text", ["komatu c=40 delta=1.5",
                                  "komatu c=40 delta=2.5"])
@pytest.mark.parametrize("mu", [0.0, 1.0, 2.0])
def test_envelopes_on_a_one_point_grid_under_a_steep_density(text, mu):
    # y = log(1/t) = 13.8 in one gap under e**(-40.5 y): pieces 1 long in
    # y would err by 6.2e-9 and 1.0e-11 at mu = 1; capped at 4/rate they
    # reach rounding
    k = kernels.parse_kernel(text)
    lam, pi = kernels.envelopes(k, mu, 2.0, np.array([1e-6]))
    assert lam[0] == pytest.approx(oracles.lambda_envelope(k, 2.0, 1e-6),
                                   rel=1e-14, abs=0.0)
    assert pi[0] == pytest.approx(oracles.pi_envelope(k, mu, 2.0, 1e-6),
                                  rel=1e-14, abs=0.0)


def test_envelopes_near_one_match_mpmath():
    # Pi ~ (1 - t)**(q + 2) with q = 0.2 here; the adaptive oracle is off
    # by about 1e-8 relative at this t, the grid route is not
    import mpmath
    a, b, c = 0.5, 0.8, 1.5
    mu, nu = 1.0, 2.0
    k = kernels.make_kernel("hohlov", a=a, b=b, c=c)
    t = 1.0 - 5e-7
    with mpmath.workdps(40):
        q = mpmath.mpf(c) - a - b
        norm = mpmath.gamma(c) / (mpmath.gamma(a) * mpmath.gamma(b)
                                  * mpmath.gamma(q + 1))
        d = mpmath.mpf(1) / nu - mpmath.mpf(1) / mu
        big_t = mpmath.mpf(t)

        def lam(s):  # lambda(1 - s) x**(-1/nu) at x = 1 - s
            return (norm * (1 - s) ** (b - 1 - mpmath.mpf(1) / nu) * s**q
                    * mpmath.hyp2f1(c - a, 1 - a, q + 1, s))

        lam_ref = mpmath.quad(lam, [0, 1 - big_t])
        pi_ref = mpmath.quad(
            lambda s: lam(s) * ((1 - s) ** d - big_t**d) / d, [0, 1 - big_t])
    lam_g, pi_g = kernels.envelopes(k, mu, nu, np.array([t]))
    assert lam_g[0] == pytest.approx(float(lam_ref), rel=1e-13, abs=0.0)
    assert pi_g[0] == pytest.approx(float(pi_ref), rel=1e-13, abs=0.0)


def test_envelopes_keep_input_order_and_shape():
    k = kernels.make_kernel("komatu", c=0.0, delta=3.0)
    lam, pi = kernels.envelopes(k, 1.0, 2.0, np.array([[0.7, 0.1],
                                                       [0.7, 0.3]]))
    flat_lam, flat_pi = kernels.envelopes(k, 1.0, 2.0,
                                          np.array([0.1, 0.3, 0.7]))
    assert lam.shape == pi.shape == (2, 2)
    assert lam[0, 0] == lam[1, 0] == flat_lam[2]
    assert pi[0, 1] == flat_pi[0] and pi[1, 1] == flat_pi[1]


def test_envelopes_domain():
    k = kernels.make_kernel("bernardi", c=1.0)
    for bad_t in (0.0, 1.0, 1.5):
        with pytest.raises(DomainError):
            kernels.envelopes(k, 1.0, 2.0, np.array([0.5, bad_t]))
    with pytest.raises(DomainError):
        kernels.envelopes(k, -1.0, 2.0, np.array([0.5]))
    with pytest.raises(DomainError):
        kernels.envelopes(k, 1.0, 0.0, np.array([0.5]))


def _gap_pieces(lo, hi, cap):
    edges = [lo]
    while edges[-1] < hi:
        e = edges[-1]
        edges.append(min(hi, e + cap, 4.0 * e))
    return edges


def _envelope_rule_per_gap(y_top, q, rate):
    # the rule built one piece at a time, as the reference: the endpoint
    # piece, then the 20-node pieces, then the 10-node ones, each in gap
    # order and within a gap in increasing y, every piece at most
    # min(1, 4/rate) long (1 at rate = inf)
    n = len(y_top) - 1
    cap = min(1.0, 4.0 / rate) or 1.0
    h = min(cap, y_top[n - 1])
    m = max(1, math.ceil(5.0 / (1.0 + q)))
    gl_x, gl_w = kernels._GL_X, kernels._GL_W
    nodes = [h * gl_x**m]
    weights = [h * m * gl_x ** (m - 1) * gl_w]
    owner = [np.full(len(gl_x), n - 1)]
    rules = {20: (gl_x, gl_w, [], [], []),
             10: (kernels._GL10_X, kernels._GL10_W, [], [], [])}
    lows = np.append(y_top[1:n], h)
    for k in range(n):
        edges = _gap_pieces(lows[k], y_top[k], cap)
        for lo, hi in zip(edges[:-1], edges[1:]):
            width = hi - lo
            short = 2.0 * (1.0 + abs(q)) * width <= lo and rate * width <= 1.0
            x, w, xs, ws, ks = rules[10 if short else 20]
            xs.append(lo + width * x)
            ws.append(width * w)
            ks.append(np.full(len(x), k))
    for _, _, xs, ws, ks in rules.values():
        nodes += xs
        weights += ws
        owner += ks
    return np.concatenate(nodes), np.concatenate(weights), \
        np.concatenate(owner)


def _m_node_t(mu, nu=2.0):
    p = ParameterSet.from_mu_nu(mu, nu, sigma=0.1, xi=1.0)
    return certify._m_nodes(kernels.make_kernel("komatu", c=0.0, delta=3.0),
                            p)[0]


RULE_GRIDS = {f"m_nodes mu={mu:g}": _m_node_t(mu)
              for mu in (0.0, 0.5, 1.0, 2.0, 3.0)}
# m follows nu and the density at t = 0, and shrinks where 1/mu is large
RULE_GRIDS["m_nodes mu=0.5 nu=5"] = _m_node_t(0.5, 5.0)
RULE_GRIDS["m_nodes mu=0.03"] = _m_node_t(0.03)
RULE_GRIDS.update({
    "monotone grid": certify.default_t_grid(257),
    "decay points": np.array([1e-2, 1e-4, 1e-6]),
    "one point": np.array([0.5]),
    "extremes": np.array([1e-300, 0.3, 1.0 - 1e-15]),
    "random": np.random.default_rng(7).uniform(0.0, 1.0, 1000),
})


@pytest.mark.parametrize("q", [-0.5, 0.0, 3.0, 197.0])
@pytest.mark.parametrize("name", list(RULE_GRIDS))
def test_envelope_rule_matches_per_gap_loop(name, q):
    # all gaps stepped together, each piece choosing its rule, give the
    # per-piece rule bit for bit, in the same order, so the envelope sums
    # do not move; rate = inf puts 20 nodes on every piece, rate = 40 cuts
    # them to 0.1 in y.  The pieces of a grid are built once and shared,
    # read-only, by later calls
    y_top = np.append(-np.log(np.unique(RULE_GRIDS[name])), 0.0)
    pieces = kernels._gap_pieces(y_top.tobytes(), 1.0)
    assert not any(a.flags.writeable for a in pieces)
    for rate in (1.0, 6.0, 40.0, math.inf):
        got = kernels._envelope_rule(y_top, q, rate)
        want = _envelope_rule_per_gap(y_top, q, rate)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)


# the benchmark's kernels and five with steep or large endpoint exponents
PIECE_RULE_KERNELS = [
    "komatu c=0 delta=3", "bernardi c=1", "hohlov a=1 b=1 c=4",
    "two_param_log a=-0.5 b=0", "komatu c=-0.5 delta=4",
    "hohlov a=0.5 b=0.8 c=4.5", "hohlov a=1.5 b=0.5 c=4",
] + [f"generalized A=1 B=1 C=4 x1={x1:g}" for x1 in (0.5, 1.0, 2.0, 4.0)] \
    + ["bernardi c=-0.9", "bernardi c=30", "komatu c=40 delta=2",
       "hohlov a=1 b=1 c=200", "ali_singh k=0.9"]


MU_NU = [(1.0, 2.0), (0.5, 5.0), (2.0, 2.0), (0.05, 2.0), (0.025, 2.0),
         (4.0, 8.0), (0.0, 2.0)]


@pytest.mark.parametrize("text", PIECE_RULE_KERNELS)
def test_envelope_pieces_match_the_20_node_rule(text, monkeypatch):
    # the 10-node pieces move Lambda and Pi at rounding only, against 20
    # nodes on every piece, on the M-nodes and the checkers' grid wherever
    # the envelope is far enough above the underflow to carry its digits;
    # the rule itself, also for the families that take closed forms
    kernel = kernels.parse_kernel(text)
    grid = certify.default_t_grid(certify.CHECK_GRID_POINTS)
    for mu, nu in MU_NU:
        p = ParameterSet.from_mu_nu(mu, nu, sigma=0.1, xi=1.0)
        for t in (certify._m_nodes(kernel, p)[0], grid):
            got = kernels._composite_envelopes(kernel, mu, nu, t)
            with monkeypatch.context() as m:
                m.setattr(kernels, "_envelope_rule",
                          lambda y_top, q, rate:
                          _envelope_rule_per_gap(y_top, q, math.inf))
                want = kernels._composite_envelopes(kernel, mu, nu, t)
            for a, b in zip(got, want):
                ok = b > 1e-290
                assert np.max(np.abs(a[ok] / b[ok] - 1.0)) <= 4e-15


# the closed forms' kernels: the benchmark's four, then steep, large,
# confluent and clustered exponents, and komatu at the largest delta that
# takes the closed forms
CLOSED_FORM_KERNELS = [
    "komatu c=0 delta=3", "komatu c=-0.5 delta=4", "bernardi c=1",
    "two_param_log a=-0.5 b=0", "bernardi c=-0.9", "bernardi c=30",
    "komatu c=40 delta=2", "komatu c=40 delta=1", "two_param_log a=0.5 b=0.5",
    "two_param_log a=0 b=1e-6", "ali_singh k=0", "ali_singh k=0.5",
    "ali_singh k=0.9", "komatu c=0 delta=8"]


def _exp_dd_mpmath(t, points):
    """y**n exp[y b_0, ..., y b_n] for the doubles b and the exact
    y = log(1/t), by partial fractions (a repeated point by its Taylor
    coefficients), at 40 digits plus those that close points cancel."""
    import mpmath
    values = sorted(set(points))
    counts = [points.count(b) for b in values]
    y_f = -math.log(t)
    extra = sum(mi * mj * max(0.0, -math.log10(y_f * (bj - bi)))
                for i, (bi, mi) in enumerate(zip(values, counts))
                for bj, mj in zip(values[i + 1:], counts[i + 1:]))
    with mpmath.workdps(40 + int(extra) + 5):
        y = -mpmath.log(mpmath.mpf(t))
        z = [y * mpmath.mpf(b) for b in values]
        total = mpmath.mpf(0)
        for zj, mj in zip(z, counts):
            # Taylor coefficients in h of exp(zj + h) prod (zj - zl + h)**-ml
            series = [mpmath.exp(zj) / math.factorial(i) for i in range(mj)]
            for zl, ml in zip(z, counts):
                if zl != zj:
                    q = zj - zl
                    f = [mpmath.binomial(-ml, i) / q ** (ml + i)
                         for i in range(mj)]
                    series = [sum(series[a] * f[i - a] for a in range(i + 1))
                              for i in range(mj)]
            total += series[-1]
        return float(total * y ** (len(points) - 1))


def _envelopes_exact(kernel, mu, nu, t):
    """envelopes() at 40 digits, at the doubles of its divided
    differences' points (c + 1 - 1/nu, 1/mu - 1/nu, c + 1 - 1/mu): the
    rounding of 1/mu alone moves Pi by y |d| eps, more than the forms err
    at mu = 0.025, and so does the rounding of y, so the reference takes
    y exact and the points as the forms do."""
    factor, powers = kernels._FAMILIES[kernel.family].envelopes(kernel)
    lam_pts = [0.0] + [-(c + 1.0 - 1.0 / nu) for c in powers]
    lam = np.array([factor * _exp_dd_mpmath(x, lam_pts) for x in t])
    if mu == 0.0:
        return lam, lam
    pi_pts = [0.0, 1.0 / mu - 1.0 / nu] + [-(c + 1.0 - 1.0 / mu)
                                          for c in powers]
    return lam, np.array([factor * _exp_dd_mpmath(x, pi_pts) for x in t])


@pytest.mark.parametrize("text", CLOSED_FORM_KERNELS)
def test_closed_form_envelopes_match_mpmath_and_the_rule(text):
    # the divided differences of exp to 4e-15 of 40 digits on the M-nodes,
    # the checkers' grid and below machine epsilon, wherever the envelope
    # exceeds 1e-290 and is finite, and the composite rule to 1e-14 of
    # them there too, also on the sparse grid 1e-17, 1e-20, where pieces
    # 1 wide in y under e**(-40.5 y) would err by 3e-8 at c = 40: capped
    # at 4/rate they keep the slack
    kernel = kernels.parse_kernel(text)
    _, powers = kernels._FAMILIES[kernel.family].envelopes(kernel)
    grid = certify.default_t_grid(certify.CHECK_GRID_POINTS)
    for mu, nu in MU_NU:
        p = ParameterSet.from_mu_nu(mu, nu, sigma=0.1, xi=1.0)
        d = 1.0 / nu - 1.0 / mu if mu else 0.0
        for t in (certify._m_nodes(kernel, p)[0], grid,
                  np.array([1e-17, 1e-20])):
            # Pi overflows at the smallest t for mu = 0.025
            with np.errstate(over="ignore", invalid="ignore"):
                got = kernels.envelopes(kernel, mu, nu, t)
                rule = kernels._composite_envelopes(kernel, mu, nu, t)
            # 40 digits cost some 0.3 ms a point: every fourth point and
            # the last, where the grid ends next to t = 1
            some = np.append(np.arange(0, t.size, 4), t.size - 1)
            exact = _envelopes_exact(kernel, mu, nu, t[some])
            # the rule takes exp(b y) of a rounded y and b, up to
            # eps y |b| off at the largest |b|, 1.2e-13 at mu = 0.05
            largest = max(abs(c + 1.0 - 1.0 / x) for c in powers
                          for x in (mu or nu, nu)) + abs(d)
            slack = 1e-14 + 2.0 * np.finfo(float).eps * largest * -np.log(t)
            for a, b, c in zip(got, exact, rule):
                ok = (b > 1e-290) & (b < np.inf)
                assert np.all(np.abs(a[some][ok] / b[ok] - 1.0) <= 4e-15)
                ok = (a > 1e-290) & (a < np.inf)
                assert np.all(np.abs(c[ok] / a[ok] - 1.0) <= slack[ok]), (
                    mu, nu, np.max(np.abs(c[ok] / a[ok] - 1.0) / slack[ok]))


@pytest.mark.parametrize("points", [
    [0.0, 0.05, 0.05, 1.0, 6.0], [-3.0, -3.0, -3.0, 0.0, 0.5],
    [0.0, -0.5, -0.5, -0.5, -0.5, 2.0], [0.0, 1e-9, 2.0, 2.0 + 1e-6]])
def test_exp_dd_matches_mpmath_across_the_cuts(points):
    # y from 0.01 to 200 crosses every count of gaps wider than _DD_APART
    # that the points allow, confluent, clustered and far apart; the whole
    # array takes the recursion, each point alone the Taylor series where
    # its y is small enough
    t = np.exp(-np.geomspace(0.01, 200.0, 41))
    y = -np.log(t)
    with np.errstate(over="ignore", invalid="ignore"):
        got = kernels._exp_dd(t, y, points)
        alone = np.array([kernels._exp_dd(t[i:i + 1], y[i:i + 1], points)[0]
                          for i in range(t.size)])
    want = np.array([_exp_dd_mpmath(x, points) for x in t])
    ok = (want > 1e-290) & (want < 1e290)  # exp(6 y) overflows at y > 118
    assert np.count_nonzero(ok) >= 30
    for a in (got, alone):
        assert np.max(np.abs(a[ok] / want[ok] - 1.0)) <= 4e-15


def test_log_derivative_ratio_and_sign():
    k = kernels.make_kernel("komatu", c=0.0, delta=3.0)
    t = 0.5
    lam, d1, d2 = kernels.density_derivatives(k, t)
    assert kernels.slope_profile(k, t) == (
        pytest.approx(t * d2 / d1), math.copysign(1.0, d1))


def test_log_derivative_ratio_critical_point():
    # t**(-k)(1 - t**2) with k = -1 peaks at t = 1/sqrt(3); k < 0 is
    # outside make_kernel's domain so the record is built directly
    k = kernels.KernelSpec("ali_singh", (("k", -1.0),), 4.0)
    with pytest.raises(CriticalPoint):
        kernels.slope_profile(k, 1.0 / math.sqrt(3.0))


def test_slope_profile_constant_density_not_applicable():
    # lambda = 1 has no slope; an isolated zero of lambda' is a
    # CriticalPoint (test_log_derivative_ratio_critical_point)
    k = kernels.make_kernel("bernardi", c=0.0)
    with pytest.raises(NotApplicable):
        kernels.slope_profile(k, np.linspace(0.1, 0.9, 5))


def test_make_kernel_domain_validation():
    with pytest.raises(DomainError):
        kernels.make_kernel("bernardi", c=-1.0)
    with pytest.raises(DomainError):
        kernels.make_kernel("komatu", c=0.0, delta=0.0)
    with pytest.raises(DomainError):
        kernels.make_kernel("ali_singh", k=1.0)
    with pytest.raises(DomainError):
        kernels.make_kernel("hohlov", a=1.0, b=1.0, c=1.0)


def _hohlov_density_mpmath(a, b, c, t):
    """The Hohlov density, t a float or the text "1 - d": 80 digits, as
    mpmath's 2F1 near argument 1 loses some at a = b (3e-3 of 30 digits
    at a = b = 1.016, t = 1e-30)."""
    import mpmath
    with mpmath.workdps(80):
        a, b, c = map(mpmath.mpf, (a, b, c))
        t = (1 - mpmath.mpf(t[4:]) if str(t).startswith("1 - ")
             else mpmath.mpf(t))
        norm = mpmath.gamma(c) / (mpmath.gamma(a) * mpmath.gamma(b)
                                  * mpmath.gamma(c - a - b + 1))
        return float(norm * t ** (b - 1) * (1 - t) ** (c - a - b)
                     * mpmath.hyp2f1(c - a, 1 - a, c - a - b + 1, 1 - t))


_SIGN_MESSAGE = (r"^unit-mass check of the hohlov density: lambda = (\S+) < 0"
                 r" at t = (1 - \S+|\S+)$")


@pytest.mark.parametrize("text,lam,t", [
    ("hohlov a=3 b=3 c=7", r"-3\.84", r"0\.482"),
    ("hohlov a=2.5 b=3.5 c=6.2", r"-3\.72", r"1 - 0\.482"),
    ("hohlov a=0.5 b=0.5 c=0.2", r"-2\.22", r"0\.0332"),
    ("hohlov a=0.5 b=0.5 c=0.101", r"-2\.31", r"0\.141"),
    ("hohlov a=2.5 b=10 c=12.02", r"-59\.7", r"1 - 0\.141"),
    ("hohlov a=1.03 b=1.03 c=2.06", r"-0\.0071", r"1\.79\d*e-15")],
    ids=["a=3 b=3 c=7", "a=2.5 b=3.5 c=6.2", "a=0.5 b=0.5 c=0.2",
         "a=0.5 b=0.5 c=0.101", "a=2.5 b=10 c=12.02",
         "a=1.03 b=1.03 c=2.06"])
def test_make_kernel_rejects_negative_density(text, lam, t):
    # unit mass, but no density: lambda < 0 on part of (0, 1), at
    # a=3 b=3 c=7 on 49% of it.  A sign judged against the largest
    # lambda, 9.3e54 next to the (1 - t)**-0.8 singularity at c = 0.2,
    # passes the c = 0.2, 0.101 and 12.02 cases.  At a = b = 1.03,
    # lambda ~ (log(1/t) / Gamma(-0.03) + const) t**0.03 turns negative
    # below t = 1e-14, which a sign judged against lambda t misses.
    # The sign rule names the least lambda min(t, 1 - t) of its points, and
    # mpmath confirms the value there
    with pytest.raises(ConfigError, match=(
            rf"^unit-mass check of the hohlov density: lambda = {lam}\d* < 0 "
            rf"at t = {t}\d*$")) as info:
        kernels.parse_kernel(text)
    got, at = re.match(_SIGN_MESSAGE, str(info.value)).groups()
    a, b, c = (float(x.split("=")[1]) for x in text.split()[1:])
    assert float(got) == pytest.approx(_hohlov_density_mpmath(a, b, c, at),
                                       rel=1e-10)


def test_make_kernel_rejects_hohlov_negative_below_the_sign_rule():
    # c < min(a, b, 1) makes M(-c) = int t**-c lambda dt = 0, which no
    # density allows; here lambda is positive at every point of the sign
    # rule and turns negative between t = 1e-100 and 1e-150 (mpmath needs
    # some 180 digits there)
    import mpmath
    with pytest.raises(ConfigError, match=(
            r"^unit-mass check of the hohlov density: lambda < 0 near "
            r"t = 0, as c < min\(a, b, 1\) makes int t\*\*-c lambda dt = 0$")):
        kernels.parse_kernel("hohlov a=0.024 b=0.024 c=0.021")
    with mpmath.workdps(180):
        a = b = mpmath.mpf("0.024")
        c, t = mpmath.mpf("0.021"), mpmath.mpf(10) ** -150
        lam = (mpmath.gamma(c) / (mpmath.gamma(a) * mpmath.gamma(b)
                                  * mpmath.gamma(c - a - b + 1))
               * t ** (b - 1) * (1 - t) ** (c - a - b)
               * mpmath.hyp2f1(c - a, 1 - a, c - a - b + 1, 1 - t))
        assert -mpmath.inf < lam < 0


def test_sign_rule_reaches_the_least_m_node():
    # t = u**m with m <= 6 puts a certification's least M-node at
    # 1.9e-22: the rule judges lambda at least as far toward t = 0
    assert kernels._SIGN_T.min() <= certify._M_U[0] ** 6


@pytest.mark.parametrize("text,end,mass,reference", [
    # the references are mpmath's: Q(3, 0.03 L) of komatu's Gamma(delta)
    # law in log(1/t), L = 708.4, where 2.2e-308**0.03 = 5.9e-10 alone
    # would pass it
    ("komatu c=-0.97 delta=3", 0, "1.47e-07", 1.4622e-7),
    # N tiny**delta / delta = 2.2e-308**0.02 next to t = 1; the envelopes
    # drop their nodes there
    ("komatu c=0 delta=0.02", 1, "7.11e-07", 7.1092e-7),
    # tiny**(c + 1), and the mass that two_param_log's t**a - t**b leaves
    ("bernardi c=-0.99", 0, "0.000838", 8.3844e-4),
    ("two_param_log a=-0.99 b=0", 0, "0.000847", 8.4691e-4),
    # the leading term Gamma(c) Gamma(b - a) / (Gamma(a) Gamma(b)
    # Gamma(c - a) Gamma(1 - a)) tiny**a / a
    ("hohlov a=0.005 b=3 c=4", 0, "0.029", 0.0290),
    # the Markov bound at a = b: lambda = (c - 1)(1 - t)**(c - 2) leaves
    # 1 - (1 - tiny)**(c - 1) = 2.2e-8 below tiny
    ("hohlov a=1 b=1 c=1e300", 0, "1.04e-06", 2.2251e-8),
    # an endpoint exponent of -1 in floating point
    ("komatu c=0 delta=1e-300", 1, "1", 1.0),
    ("hohlov a=1e-300 b=1 c=4", 0, "1", 1.0),
])
def test_make_kernel_rejects_mass_beyond_the_doubles(text, end, mass,
                                                      reference):
    with pytest.raises(ConfigError, match=(
            rf"^unit-mass check of the {text.split()[0]} density: up to "
            rf"{re.escape(mass)} of its mass lies within 2\.23e-308 of "
            rf"t = {end}, beyond the doubles$")):
        kernels.parse_kernel(text)
    # every bound is at least the mass it bounds, to the 3 digits printed
    assert float(mass) >= reference * (1.0 - 5e-3)


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def _hohlov_domain(a, b, r):
    return {"a": a, "b": b, "c": a + b + r}


def _omega_domain(aa, bb, r, x1, x2):
    return {"A": aa, "B": bb, "C": aa + bb + r, "x1": x1, "x2": x2}


# each family's domain, up to where the oracle reaches: it integrates
# over t, 1 - t >= 2.2e-308 by adaptive Gauss-Kronrod, whose nodes find
# komatu's mass near y = log(1/t) = delta/(c + 1) only for moderate
# delta.  The Hohlov b runs to a + 10, where lambda is still finite at
# the sign rule's points
DOMAINS = {
    "bernardi": st.fixed_dictionaries({"c": _floats(-0.999, 40.0)}),
    "komatu": st.fixed_dictionaries({"c": _floats(-0.999, 20.0),
                                     "delta": _floats(1e-3, 12.0)}),
    "hohlov": st.floats(1e-3, 5.0).flatmap(lambda a: st.builds(
        _hohlov_domain, st.just(a), _floats(1e-3, a + 10.0),
        _floats(-0.999, 8.0))),
    "two_param_log": st.fixed_dictionaries({"a": _floats(-0.999, 10.0),
                                            "b": _floats(-0.999, 10.0)}),
    "ali_singh": st.fixed_dictionaries({"k": _floats(0.0, 0.999)}),
    "generalized": st.builds(_omega_domain, _floats(-2.0, 4.0),
                             _floats(1e-3, 4.0), _floats(-0.999, 6.0),
                             _floats(0.0, 4.0), _floats(0.0, 4.0)),
}
# a denser grid than the sign rule's, graded toward both ends, down to
# where certifications evaluate lambda
_DENSE_T = np.geomspace(1e-22, 0.5, 2000)


@pytest.mark.parametrize("family", list(DOMAINS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_make_kernel_accepts_only_unit_mass_densities(family, data):
    # the runtime check decides from closed forms and a fixed sign rule;
    # the unit mass it stands for is checked here.  Where make_kernel
    # accepts, the oracle's mass is 1 within 1e-9 (the most a density may
    # leave beyond the doubles) and lambda >= 0 on a denser grid; where it
    # rejects for sign, mpmath confirms the negative lambda at the t named
    params = data.draw(DOMAINS[family])
    try:
        kernel = kernels.make_kernel(family, **params)
    except DomainError as exc:
        sign = re.match(_SIGN_MESSAGE, str(exc))
        if sign:
            got, at = sign.groups()
            ref = _hohlov_density_mpmath(params["a"], params["b"],
                                         params["c"], at)
            assert ref < 0.0
            assert float(got) == pytest.approx(ref, rel=1e-8)
        return
    # the Hohlov density is symmetric in a and b, as its Mellin transform
    # is; the oracle takes the form with a >= b, whose 2F1 factor stays
    # bounded at t = 0 (the density itself swaps only past b = a + 1)
    same = kernel
    if family == "hohlov" and kernel.p["a"] < kernel.p["b"]:
        same = kernel._replace(params=(("a", params["b"]), ("b", params["a"]),
                                       ("c", params["c"])))
    p, q = kernels.endpoint_exponents(same)
    mass = integrate_01(
        lambda t: kernels.density(same, t), p, q, epsabs=1e-12,
        f_complement=lambda d: kernels.density_complement(same, d))
    assert mass == pytest.approx(1.0, abs=1e-9)
    with np.errstate(under="ignore"):
        for view in (kernels.density, kernels.density_complement):
            assert np.all(view(kernel, _DENSE_T) >= 0.0)


def _hohlov_leading_mass_mpmath(a, b, c):
    """The two leading terms of the Hohlov mass below tiny, R_a tiny**a/a +
    R_b tiny**b/b, R_x = Gamma(c) Gamma(y - x) / (Gamma(a) Gamma(b)
    Gamma(c - x) Gamma(1 - x)) for y the other exponent, at 330 digits,
    so that c - x keeps its digits up to c = 1e300; b = a is taken at
    b = a + 1e-12, where the two terms stay 1e-12 from their limit."""
    import mpmath
    with mpmath.workdps(330):
        tiny = mpmath.mpf(np.finfo(float).tiny)
        a, b, c = map(mpmath.mpf, (a, b + 1e-12 if b == a else b, c))
        return float(sum(
            mpmath.gamma(c) * mpmath.gamma(y - x) * tiny**x / x
            * mpmath.rgamma(a) * mpmath.rgamma(b) * mpmath.rgamma(c - x)
            * mpmath.rgamma(1 - x) for x, y in ((a, b), (b, a))))


@pytest.mark.parametrize("a,b,c", [
    (0.03, 0.5, 4.0), (0.03, 0.9, 1.0), (0.5, 0.8, 4.5), (0.04, 0.09, 4.0),
    (0.036, 0.036, 4.0), (0.03, 0.03 + 1e-9, 4.0), (0.3, 0.2, 1e6),
    (0.3, 0.2, 1e300), (0.1, 3.0, 4.0), (1.7, 0.5, 4.0)])
def test_hohlov_mass_beyond_the_doubles_matches_mpmath(a, b, c):
    # the two leading terms, as one divided difference where both
    # exponents lie below 1 (a log(1/t) at a = b; at c = 1e300 the second
    # term's share (c tiny)**0.1 is 0.17), else the first alone
    k = kernels.KernelSpec("hohlov", (("a", a), ("b", b), ("c", c)),
                           kernels._hohlov_check({"a": a, "b": b, "c": c}))
    got = math.exp(kernels._hohlov_tails(k)[0])
    assert got == pytest.approx(_hohlov_leading_mass_mpmath(a, b, c),
                                rel=1e-8)


def test_komatu_mass_beyond_the_doubles_matches_mpmath():
    # Q(delta, (c + 1) L) below tiny: the bound of _power_tail is at least
    # it and, away from x = (c + 1) L ~ delta - 1, within 20% of it
    import mpmath
    for c, delta in ((-0.97, 3.0), (-0.95, 3.0), (-0.98, 0.5), (-0.9, 8.0),
                     (0.0, 100.0), (3.0, 150.0)):
        x = (1.0 + c) * kernels._LOG_TINY
        log_ref = float(mpmath.log(mpmath.gammainc(delta, x,
                                                   regularized=True)))
        k = kernels.KernelSpec("komatu", (("c", c), ("delta", delta)),
                               kernels._komatu_check({"c": c,
                                                      "delta": delta}))
        log_bound, _ = kernels._komatu_tails(k)
        assert log_ref <= log_bound <= log_ref + math.log(1.2), (c, delta)


def test_make_kernel_accepts_what_the_doubles_hold():
    # each leaves less than 1e-9 of its mass beyond the doubles, the
    # Hohlov ones 1e-30 (with b > a + 1 their density is evaluated in the
    # a <-> b swapped form, finite near 2.2e-308), and komatu's mass lies
    # near t = e**-100, which adaptive nodes miss
    for text in ("hohlov a=0.1 b=3 c=4", "hohlov a=0.5 b=10 c=12",
                 "komatu c=0 delta=100", "komatu c=0 delta=0.03"):
        k = kernels.parse_kernel(text)
        assert max(kernels._FAMILIES[k.family].tails(k)) < math.log(1e-9)
    p = ParameterSet.from_mu_nu(1.0, 2.0, sigma=0.1, xi=1.0)
    report = certify.run_certification(
        kernels.parse_kernel("hohlov a=0.1 b=3 c=4"), p)
    assert report.passed()
    assert abs(report.beta_integral - report.beta_series) < 1e-12


@pytest.mark.parametrize("text", ["hohlov a=1e6 b=1 c=2e6",
                                  "komatu c=1e300 delta=2"])
def test_make_kernel_names_a_normaliser_that_overflows(text):
    with pytest.raises(ConfigError, match=(
            r"^unit-mass check of the \w+ density: the normaliser "
            r"overflows$")):
        kernels.parse_kernel(text)


def test_two_param_log_symmetric_in_a_b():
    k1 = kernels.make_kernel("two_param_log", a=0.0, b=1.0)
    k2 = kernels.make_kernel("two_param_log", a=1.0, b=0.0)
    assert k1.p == k2.p
    # equal-parameter limit switches to the log form continuously
    k3 = kernels.make_kernel("two_param_log", a=0.5, b=0.5)
    k4 = kernels.make_kernel("two_param_log", a=0.5, b=0.5 + 1e-6)
    for t in (0.2, 0.8):
        assert kernels.density(k3, t) == pytest.approx(
            kernels.density(k4, t), rel=1e-5)


def test_generalized_reduces_to_hohlov_weight():
    # the default envelope polynomial is 1, a pure beta weight
    k = kernels.make_kernel("generalized", A=1.0, B=1.0, C=4.0)
    h = kernels.make_kernel("hohlov", a=1.0, b=1.0, c=4.0)
    for t in (0.2, 0.5, 0.9):
        assert kernels.density(k, t) == pytest.approx(
            kernels.density(h, t), rel=1e-9)


def test_parse_kernel_round_trip():
    for k in FAMILY_EXAMPLES:
        assert kernels.parse_kernel(k.text()) == k


def test_kernel_text_is_the_shortest_that_parses_back():
    assert kernels.make_kernel("hohlov", a=0.5, b=0.8, c=4.5).text() \
        == "hohlov a=0.5 b=0.8 c=4.5"
    assert kernels.make_kernel("bernardi", c=0.1).text() == "bernardi c=0.1"
    k = kernels.make_kernel("generalized", A=1.0, B=1.0, C=4.0, x1=1.0 / 3.0)
    assert k.text() == "generalized_omega A=1 B=1 C=4 x1=0.3333333333333333"
    assert kernels.parse_kernel(k.text()) == k
    assert [kernels.value_text(v) for v in (0.5000001, 1e-7, 4.0, 1e20)] \
        == ["0.5000001", "1e-07", "4", "1e+20"]


def test_parse_kernel_errors():
    with pytest.raises(ConfigError):
        kernels.parse_kernel("")
    with pytest.raises(ConfigError):
        kernels.parse_kernel("nosuchfamily c=1")
    with pytest.raises(ConfigError):
        kernels.parse_kernel("bernardi c")
    with pytest.raises(ConfigError):
        kernels.parse_kernel("bernardi c=xyz")


@pytest.mark.parametrize("b", [0.5000001, 0.52])
def test_hohlov_near_integer_exponent(b):
    # a - b within 0.05 of an integer: 15.3.6 cancels, and the mass check
    # used to stop with QuadratureFailure at b = 0.5000001
    k = kernels.make_kernel("hohlov", a=0.5, b=b, c=4.0)
    p = ParameterSet.from_mu_nu(1.0, 2.0, sigma=0.1, xi=1.0)
    routes = certify.beta_routes(k, p)
    assert routes.agree
    assert abs(routes.nodes - routes.series) < 1e-10


def _hohlov_slopes_mpmath(a, b, c, t):
    """(lambda, lambda', lambda'') of the Hohlov density in the form as
    given, N t**(b - 1) (1 - t)**q 2F1(c - a, 1 - a; q + 1; 1 - t), at
    1300 bits, so that 1 - t keeps t = 1e-300 exactly."""
    import mpmath
    with mpmath.workprec(1300):
        a, b, c, t = map(mpmath.mpf, (a, b, c, t))
        u, q = 1 - t, c - a - b
        A, B, C = c - a, 1 - a, q + 1
        norm = mpmath.gamma(c) / (mpmath.gamma(a) * mpmath.gamma(b)
                                  * mpmath.gamma(q + 1))
        # the factor and its derivatives in t (15.2.1)
        f = [mpmath.hyp2f1(A, B, C, u),
             -A * B / C * mpmath.hyp2f1(A + 1, B + 1, C + 1, u),
             A * (A + 1) * B * (B + 1) / (C * (C + 1))
             * mpmath.hyp2f1(A + 2, B + 2, C + 2, u)]
        p = [t ** (b - 1) * u**q,
             (b - 1) * t ** (b - 2) * u**q - q * t ** (b - 1) * u ** (q - 1),
             (b - 1) * (b - 2) * t ** (b - 3) * u**q
             - 2 * (b - 1) * q * t ** (b - 2) * u ** (q - 1)
             + q * (q - 1) * t ** (b - 1) * u ** (q - 2)]
        return [norm * p[0] * f[0], norm * (p[1] * f[0] + p[0] * f[1]),
                norm * (p[2] * f[0] + 2 * p[1] * f[1] + p[0] * f[2])]


def test_hohlov_density_at_tiny_t_with_b_far_above_a():
    # the form as given multiplies t**(b - 1), which underflows, by a 2F1
    # factor ~ t**(a - b), which overflows: NaN at 1e-100 and 1e-300.  The
    # density is evaluated in the a <-> b swapped form; the kernel keeps
    # its parameters and text
    k = kernels.parse_kernel("hohlov a=0.5 b=10 c=12")
    assert k.p == {"a": 0.5, "b": 10.0, "c": 12.0}
    assert k.text() == "hohlov a=0.5 b=10 c=12"
    t = np.array([1e-30, 1e-100, 1e-300])
    with np.errstate(over="ignore", invalid="ignore"):
        rows = kernels.density_derivatives(k, t)
    for i, tt in enumerate(t):
        for row, ref in zip(rows, _hohlov_slopes_mpmath(0.5, 10.0, 12.0, tt)):
            if abs(ref) < np.finfo(float).max:
                assert abs(row[i] - ref) <= 1e-14 * abs(ref), (tt, ref)
            else:  # lambda' = -1.8e449 and lambda'' = 2.6e749 at 1e-300
                assert not np.isfinite(row[i]), (tt, ref)
    assert rows[1][2] == -np.inf


@pytest.mark.parametrize("text", ["komatu c=40 delta=200",
                                  "komatu c=3 delta=200"])
def test_komatu_density_in_log_space_where_the_product_is_not_finite(text):
    # at t = 5.0e-17 log(1/t)**199 overflows, while N t**40 underflows to
    # 0 (0 * inf = NaN, for a value of e**-894 that rounds to 0), and N t**3
    # is 1e-301 (inf, for 1.6e12).  Both kernels were rejected as having a
    # density that is not finite; both are densities of unit mass
    import mpmath
    k = kernels.parse_kernel(text)
    c, dl = k.p["c"], k.p["delta"]
    t = np.array([5.042053869887052e-17, 1e-3, 0.2, 0.7])
    rows = kernels.density_derivatives(k, t)
    with mpmath.workdps(40):
        for i, tt in enumerate(t):
            x, ln = mpmath.mpf(tt), -mpmath.log(tt)
            norm = (1 + mpmath.mpf(c)) ** dl / mpmath.gamma(dl)
            refs = [norm * x**c * ln ** (dl - 1),
                    norm * x ** (c - 1) * ln ** (dl - 2) * (c * ln - (dl - 1)),
                    norm * x ** (c - 2) * ln ** (dl - 3) * (
                        c * (c - 1) * ln**2 - (dl - 1) * (2 * c - 1) * ln
                        + (dl - 1) * (dl - 2))]
            for row, ref in zip(rows, refs):
                assert abs(row[i] - ref) <= 1e-12 * abs(ref) + 5e-324, \
                    (tt, row[i], ref)
    # where the product is a number it keeps its value
    ln = -np.log(t[1:])
    direct = k.normalizer * t[1:] ** c * ln ** (dl - 1.0)
    assert kernels.density(k, t[1:]).tobytes() == direct.tobytes()


def test_terminating_hyp2f1_factor_skips_mpmath(monkeypatch):
    import mpmath

    def fail(*args):
        raise AssertionError("mpmath called for a terminating 2F1")

    monkeypatch.setattr(mpmath, "hyp2f1", fail)
    k = kernels.make_kernel("hohlov", a=1.0, b=1.0, c=4.0)
    assert kernels._hyp2f1_factors(k, 1e-12) == 1.0
    t = np.array([1e-15, 1e-12, 1e-9, 0.5])
    assert np.all(kernels._hyp2f1_factors(k, t) == 1.0)
    f0, f1, f2 = kernels._hyp2f1_factors(k, t, slopes=True)
    assert np.all(f0 == 1.0) and not np.any(f1) and not np.any(f2)


@pytest.mark.parametrize("c", [40.0, 100.0])
def test_slope_profile_flatness_has_no_absolute_floor(c):
    # lambda = (c - 1)(1 - t)**(c - 2) is small near t = 1 but not flat;
    # an absolute floor on lambda' called it a critical point there
    k = kernels.make_kernel("hohlov", a=1.0, b=1.0, c=c)
    t = certify.default_t_grid(257)
    ratio, sign = kernels.slope_profile(k, t)
    assert np.all(sign == -1.0)
    assert np.allclose(ratio, -(c - 3.0) * t / (1.0 - t), rtol=1e-12, atol=0)


def test_slope_profile_names_underflow():
    # (1 - t)**198 falls below the smallest normal double past t = 0.973
    k = kernels.make_kernel("hohlov", a=1.0, b=1.0, c=200.0)
    with pytest.raises(CriticalPoint, match=r"lambda\(0\.97\d*\) underflows"):
        kernels.slope_profile(k, certify.default_t_grid(257))
    # the growth check fails instead of dropping out as not applicable,
    # or names the error in its margin; so does the monotone check, whose
    # Pi underflows first, at t = 0.971, and is exactly 0 past t = 0.977
    p = ParameterSet.from_mu_nu(1.0, 2.0, sigma=0.1, xi=1.0)
    with pytest.raises(CriticalPoint):
        certify.condition_margins(k, p)
    with pytest.raises(CriticalPoint, match=r"^Pi\(0\.97\d*\) underflows"):
        certify.check_monotone_condition(k, p)
    margins, _ = certify.condition_margins(k, p, name_errors=True)
    assert margins == {"growth": "CriticalPoint",
                       "monotone": "CriticalPoint"}


@pytest.mark.parametrize("text", ["generalized A=1 B=1 C=4 x40=1",
                                  "bernardi c=1 delta=3",
                                  "bernardi c=1 c=2",
                                  "generalized A=1 B=1 C=4 x1=1 x1=2"])
def test_parse_kernel_rejects_unknown_and_repeated_parameters(text):
    with pytest.raises(ConfigError):
        kernels.parse_kernel(text)


def test_make_kernel_rejects_unknown_parameter():
    with pytest.raises(ConfigError, match="delta"):
        kernels.make_kernel("bernardi", c=1.0, delta=3.0)
    with pytest.raises(DomainError, match="missing"):
        kernels.make_kernel("komatu", c=1.0)


def test_density_derivatives_evaluate_each_2f1_factor_once(monkeypatch):
    # lambda, lambda' and lambda'' read one triple (F, F', F'') of the
    # density's own 2F1, with no shifted parameters, and one plan
    calls = []
    real = kernels._hyp2f1c

    def counted(A, B, C, d, slopes=False):
        calls.append((A, B, C, slopes))
        return real(A, B, C, d, slopes)

    monkeypatch.setattr(kernels, "_hyp2f1c", counted)
    k = kernels.make_kernel("hohlov", a=0.5, b=0.8, c=4.5)
    t = np.linspace(0.1, 0.9, 5)
    calls.clear()
    kernels.density(k, t)
    triple = (4.5 - 0.5, 1.0 - 0.5, 4.5 - 0.5 - 0.8 + 1.0)
    assert calls == [(*triple, False)]
    calls.clear()
    kernels._far_plan.cache_clear()
    kernels.density_derivatives(k, t)
    assert calls == [(*triple, True)]
    assert kernels._far_plan.cache_info().misses == 1


@pytest.mark.parametrize("kernel", FAMILY_EXAMPLES,
                         ids=[k.text() for k in FAMILY_EXAMPLES])
def test_density_and_complement_share_one_formula(kernel):
    # t and d = 1 - t both exact: the two views of the one lambda agree
    t = np.array([0.125, 0.25, 0.5, 0.75, 0.875])
    assert np.allclose(kernels.density(kernel, t),
                       kernels.density_complement(kernel, 1.0 - t),
                       rtol=1e-14, atol=0)


BATCH_KERNELS = HOHLOV_QUADMOMENTS + [
    kernels.make_kernel("hohlov", a=0.5, b=0.5000001, c=4.0)]


@pytest.mark.parametrize("kernel", BATCH_KERNELS,
                         ids=[k.text() for k in BATCH_KERNELS])
def test_density_does_not_depend_on_its_batch(kernel):
    # one t takes _horner's one-point path, a batch its blocks of 8.  The
    # 2F1 polynomials of these kernels hold at most 134 terms, whose sizes
    # add up to at most 2.3 times their sum, so each side errs by at most
    # 2 (134 + 8) eps 2.3 relative: the two differ by less than 4e-13
    rng = np.random.default_rng(11)
    t = np.concatenate([np.geomspace(1e-12, 0.5, 20),
                        1.0 - np.geomspace(1e-12, 0.5, 20)])
    one = np.array([kernels.density(kernel, x) for x in t.tolist()])
    tens = np.concatenate([kernels.density(kernel, row)
                           for row in t.reshape(4, 10)])
    batch = rng.uniform(0.0, 1.0, 5000)
    at = rng.choice(batch.size, t.size, replace=False)
    batch[at] = t
    for got in (tens, kernels.density(kernel, batch)[at]):
        assert np.all(np.abs(got - one) <= 4e-13 * np.abs(one))


@pytest.mark.parametrize("omega", [(), (0.3,), (0.3, 2.5), (0.7, 2.5, 0.125)],
                         ids=["constant", "linear", "quadratic", "cubic"])
@pytest.mark.parametrize("order", [0, 1, 2])
@pytest.mark.parametrize("points", [1, 9])
def test_omega_derivative_equals_polyder(omega, order, points):
    # polyder gives [0.] past the degree, where a plain slice of the
    # coefficients would be empty
    k = kernels.make_kernel("generalized", A=1.0, B=1.0, C=4.0,
                            **{f"x{i}": x for i, x in enumerate(omega, 1)})
    d = np.linspace(0.05, 0.95, points)
    ref = kernels._horner(
        np.polynomial.polynomial.polyder(np.array(k.omega), order), d)
    assert kernels._omega(k, 1.0 - d, d, order).tobytes() == ref.tobytes()
