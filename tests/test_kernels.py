import math

import numpy as np
import pytest

from pascucert import certify, kernels, oracles
from pascucert.errors import (ConfigError, CriticalPoint, DomainError,
                              NotApplicable)
from pascucert.params import ParameterSet
from pascucert.quadrature import integrate_01

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


def _gap_pieces(lo, hi):
    edges = [lo]
    while edges[-1] < hi:
        e = edges[-1]
        edges.append(min(hi, e + 1.0, 4.0 * e))
    return edges


def _envelope_rule_per_gap(y_top, q, rate):
    # the rule built one piece at a time, as the reference: the endpoint
    # piece, then the 20-node pieces, then the 10-node ones, each in gap
    # order and within a gap in increasing y
    n = len(y_top) - 1
    h = min(1.0, y_top[n - 1])
    m = max(1, math.ceil(5.0 / (1.0 + q)))
    gl_x, gl_w = kernels._GL_X, kernels._GL_W
    nodes = [h * gl_x**m]
    weights = [h * m * gl_x ** (m - 1) * gl_w]
    owner = [np.full(len(gl_x), n - 1)]
    rules = {20: (gl_x, gl_w, [], [], []),
             10: (kernels._GL10_X, kernels._GL10_W, [], [], [])}
    lows = np.append(y_top[1:n], h)
    for k in range(n):
        edges = _gap_pieces(lows[k], y_top[k])
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
    # do not move; rate = inf puts 20 nodes on every piece.  The pieces
    # of a grid are built once and shared, read-only, by later calls
    y_top = np.append(-np.log(np.unique(RULE_GRIDS[name])), 0.0)
    pieces = kernels._gap_pieces(y_top.tobytes())
    assert not any(a.flags.writeable for a in pieces)
    for rate in (1.0, 6.0, math.inf):
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
    # them on the M-nodes and the grid.  On the sparse grid 1e-17, 1e-20
    # the rule errs by up to 3e-8 at c = 40: pieces 1 wide in y under
    # e**(-40.5 y)
    kernel = kernels.parse_kernel(text)
    _, powers = kernels._FAMILIES[kernel.family].envelopes(kernel)
    grid = certify.default_t_grid(certify.CHECK_GRID_POINTS)
    for mu, nu in MU_NU:
        p = ParameterSet.from_mu_nu(mu, nu, sigma=0.1, xi=1.0)
        d = 1.0 / nu - 1.0 / mu if mu else 0.0
        for t in (certify._m_nodes(kernel, p)[0], grid,
                  np.array([1e-17, 1e-20])):
            dense = t.size > 2
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
                ok = (a > 1e-290) & (a < np.inf) & dense
                assert np.all(np.abs(c[ok] / a[ok] - 1.0) <= slack[ok]), (
                    mu, nu, np.max(np.abs(c[ok] / a[ok] - 1.0) / slack[ok]))


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


@pytest.mark.parametrize("text,lam,t", [
    ("hohlov a=3 b=3 c=7", r"-3\.87", r"0\.46"),
    ("hohlov a=2.5 b=3.5 c=6.2", r"-3\.90", r"0\.56")],
    ids=["a=3 b=3 c=7", "a=2.5 b=3.5 c=6.2"])
def test_make_kernel_rejects_negative_density(text, lam, t):
    # unit mass, but no density: lambda < 0 on part of (0, 1), at
    # a=3 b=3 c=7 on 49% of it; the least value the mass check samples
    # names the t
    with pytest.raises(ConfigError, match=(
            rf"^unit-mass check of the hohlov density: lambda = {lam}\d* < 0 "
            rf"at t = {t}\d*$")):
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


def test_terminating_hyp2f1_factor_skips_mpmath(monkeypatch):
    import mpmath

    def fail(*args):
        raise AssertionError("mpmath called for a terminating 2F1")

    monkeypatch.setattr(mpmath, "hyp2f1", fail)
    k = kernels.make_kernel("hohlov", a=1.0, b=1.0, c=4.0)
    f0, _, _ = kernels._hyp2f1_factors(k)
    assert f0(1e-12) == 1.0
    assert np.all(f0(np.array([1e-15, 1e-12, 1e-9, 0.5])) == 1.0)


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
    calls = []
    real = kernels._hyp2f1c

    def counted(A, B, C, d):
        calls.append((A, B, C))
        return real(A, B, C, d)

    monkeypatch.setattr(kernels, "_hyp2f1c", counted)
    k = kernels.make_kernel("hohlov", a=0.5, b=0.8, c=4.5)
    t = np.linspace(0.1, 0.9, 5)
    calls.clear()
    kernels.density(k, t)
    assert len(calls) == 1
    calls.clear()
    kernels.density_derivatives(k, t)
    assert len(calls) == 3 and len(set(calls)) == 3


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
