import math
import tracemalloc

import numpy as np
import pytest

import pascucert as pc
from pascucert import auxfun, certify, kernels, oracles
from pascucert.errors import (CriticalPoint, DomainError, NotApplicable,
                              QuadratureFailure, RepresentationMismatch,
                              ZeroDenominator)
from pascucert.quadrature import ALTERNATING_TERMS, averaged_partial_sum

P12 = pc.ParameterSet.from_mu_nu(1.0, 2.0, sigma=0.1, xi=1.0)
KOMATU = pc.make_kernel("komatu", c=0.0, delta=3.0)
BERNARDI = pc.make_kernel("bernardi", c=1.0)

FAMILIES = [
    pc.make_kernel("bernardi", c=1.0),
    pc.make_kernel("komatu", c=0.0, delta=3.0),
    pc.make_kernel("hohlov", a=0.5, b=0.8, c=4.5),
    pc.make_kernel("two_param_log", a=-0.5, b=0.0),
    pc.make_kernel("ali_singh", k=0.5),
    pc.make_kernel("generalized", A=1.0, B=1.0, C=4.0, x1=1.0),
]


def test_beta_from_integral_values():
    assert certify.beta_from_integral(-1.0) == pytest.approx(0.5)
    assert certify.beta_from_integral(0.0) == pytest.approx(0.0)
    with pytest.raises(DomainError):
        certify.beta_from_integral(1.0)


def test_beta_routes_agree_bernardi():
    p = pc.ParameterSet.from_mu_nu(1.0, 2.0, sigma=0.0, xi=0.5)
    iq = oracles.beta_quadrature_route(BERNARDI, p)
    ise = certify.beta_series_route(BERNARDI, p)
    assert abs(certify.beta_from_integral(iq)
               - certify.beta_from_integral(ise)) < 1e-9
    assert certify.beta_sharp(BERNARDI, p) == pytest.approx(
        certify.beta_from_integral(iq))


def test_beta_routes_agree_hohlov_closed_moments():
    # the series route reads the Hohlov moments (a)_n (b)_n / ((c)_n n!)
    p = pc.ParameterSet.from_mu_nu(1.0, 2.0, sigma=0.1, xi=1.0)
    for kernel in (pc.make_kernel("hohlov", a=0.5, b=0.8, c=4.5),
                   pc.make_kernel("hohlov", a=1.5, b=0.5, c=4.0)):
        iq = oracles.beta_quadrature_route(kernel, p)
        ise = certify.beta_series_route(kernel, p)
        assert abs(certify.beta_from_integral(iq)
                   - certify.beta_from_integral(ise)) < 1e-9


# quad's roundoff warning: its own error estimate is 1.3e-14 here
@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_beta_quadrature_accurate_where_i_nears_one():
    # I = 0.99494 here, and beta = I/(I-1) multiplies an error in I by
    # 1/(1-I)**2 ~ 3.9e4; the reference substitutes t = u**4 to remove the
    # t**(-1/2) endpoint singularity
    from scipy import integrate
    kernel = pc.make_kernel("komatu", c=-0.5, delta=4.0)
    p = pc.ParameterSet.from_mu_nu(2.0, 3.0, sigma=0.1, xi=0.25)

    def f(u):
        t = np.array([u**4])
        return float(4.0 * u**3 * kernels.density(kernel, t)[0]
                     * oracles.combined_gq(p, t)[0])

    i_ref = integrate.quad(f, 0.0, 1.0, epsabs=1e-15, epsrel=1e-14,
                           limit=500)[0]
    assert certify.beta_sharp(kernel, p) == pytest.approx(
        i_ref / (i_ref - 1.0), abs=2e-10)


def test_beta_quadrature_builds_one_rule_and_sums_no_series(monkeypatch):
    # komatu c=-0.5 delta=4 at mu = 2 takes many Gauss-Kronrod rounds
    calls = []
    build = oracles.gq_rule

    def counted(params):
        calls.append(params)
        return build(params)

    monkeypatch.setattr(oracles, "gq_rule", counted)
    monkeypatch.setattr(oracles, "_series_sum", None)
    kernel = pc.make_kernel("komatu", c=-0.5, delta=4.0)
    p = pc.ParameterSet.from_mu_nu(2.0, 2.0, sigma=0.1, xi=1.0)
    oracles.beta_quadrature_route(kernel, p)
    assert len(calls) == 1


def test_beta_sharp_mismatch_raises(monkeypatch):
    monkeypatch.setattr(certify, "beta_series_route",
                        lambda k, p, pieces=None:
                        oracles.beta_quadrature_route(k, p) + 0.1)
    with pytest.raises(RepresentationMismatch):
        certify.beta_sharp(BERNARDI, P12)


def test_beta_routes_row_tolerance():
    # BETA_ROUTE_TOL, or 4 eps (beta - 1)**2 where beta is far below -1e4
    assert certify.BetaRoutes(-6.0, -6.0 - 0.9e-7).agree
    assert not certify.BetaRoutes(-6.0, -6.0 - 1.1e-7).agree
    row = certify.BetaRoutes(-168429.5521404635, -168429.55213731393).row()
    assert row.name == "beta_routes" and row.satisfied
    assert row.tol == pytest.approx(4.0 * 2.0**-52 * 168430.5521404635**2)
    assert not certify.BetaRoutes(float("nan"), float("nan")).agree


def test_beta0_closed_form_requirements():
    with pytest.raises(DomainError):
        oracles.beta0_hohlov_closed_form(
            pc.ParameterSet.from_mu_nu(1.0, 2.0, xi=0.0), 1.0, 4.0)


def test_closed_form_skipped_at_mu_or_nu_zero():
    # the 6F5 closed form needs mu, nu > 0
    for mu, nu in ((0.0, 2.0), (2.0, 0.0)):
        p = pc.ParameterSet.from_mu_nu(mu, nu, sigma=0.1, xi=1.0)
        with pytest.raises(DomainError):
            oracles.beta0_hohlov_closed_form(p, 1.0, 4.0)


def test_disk_grid_validation():
    with pytest.raises(DomainError):
        certify.DiskGrid(radius=0.0)
    with pytest.raises(DomainError):
        certify.DiskGrid(radius=1.0)
    with pytest.raises(DomainError):
        certify.DiskGrid(angles=2)
    # rejected before any array is built
    for angles in (certify.MAX_ANGLES + 1, 2**44):
        with pytest.raises(DomainError, match="at most"):
            certify.DiskGrid(angles=angles)
    grid = certify.DiskGrid(radius=0.9, angles=8)
    z = grid.boundary_points()
    assert len(z) == 8
    assert np.allclose(np.abs(z), 0.9, rtol=0.0, atol=1e-15)
    assert z[0] == 0.9


def test_m_functional_node_route_matches_direct():
    rng = np.random.default_rng(7)
    for kernel in (KOMATU, BERNARDI):
        for _ in range(2):
            z = complex(0.8 * rng.uniform(0.2, 1.0)
                        * np.exp(1j * rng.uniform(0, 2 * np.pi)))
            eps = complex(np.exp(1j * rng.uniform(0, 2 * np.pi)))
            fast = certify.m_functional(kernel, P12, z, eps)
            slow = oracles.m_functional_direct(kernel, P12, z, eps)
            assert fast == pytest.approx(slow, abs=5e-8)
    # at mu < 1 the weight carries t**(1/nu - 1) at t = 0, which the node
    # substitution must smooth out too; a rule that followed mu alone was
    # 6.6e-6 off here
    p = pc.ParameterSet.from_mu_nu(0.5, 5.0, sigma=0.1, xi=0.5)
    z, eps = 0.45 - 0.34j, complex(np.exp(2.0j))
    assert certify.m_functional(BERNARDI, p, z, eps) == pytest.approx(
        oracles.m_functional_direct(BERNARDI, p, z, eps, epsabs=1e-12),
        abs=1e-11)


def test_m_functional_min_nonnegative_for_certified_instance():
    rep = certify.run_certification(KOMATU, P12)
    assert rep.m_functional_min >= -1e-6
    assert abs(rep.m_argmin_eps) == pytest.approx(1.0)
    assert abs(rep.m_argmin_z) <= 0.999 + 1e-12


def _circles(grid, radii=(0.5, 0.9, 0.99, 0.999)):
    """The grid's angles on several circles, the outermost the grid's."""
    ring = np.exp(1j * grid.theta())
    return np.concatenate([r * ring for r in radii])


def _epsilon_scan(p, qc, sigma, theta):
    """min over the sampled epsilons at each z, and the minimizing angle."""
    m = p[:, None] + (qc[:, None]
                      * auxfun.duality_slope(np.exp(1j * theta), sigma)).real
    j = np.argmin(m, axis=1)
    return m[np.arange(len(p)), j], theta[j]


BERNARDI_HALF = (BERNARDI,
                 pc.ParameterSet.from_mu_nu(1.0, 1.0, sigma=0.5, xi=1.0))
MIN_CASES = [(k, P12) for k in FAMILIES] + [BERNARDI_HALF]


@pytest.mark.parametrize("kernel,p", MIN_CASES,
                         ids=[k.family for k in FAMILIES] + ["bernardi_half"])
def test_m_functional_min_not_above_dense_scan(kernel, p):
    # 4096 epsilons on four circles up to the grid's: the closed form on
    # the grid circle is never above it and finds the same z
    grid = certify.DiskGrid()
    z = _circles(grid)
    pz, qc = certify._pq_profiles(certify._m_nodes(kernel, p), p, z)
    theta = 2.0 * np.pi * np.arange(4096) / 4096
    scan = np.min([_epsilon_scan(pz, qc, p.sigma, th)[0]
                   for th in np.split(theta, 8)], axis=0)
    rep = certify.run_certification(kernel, p, grid)
    mmin, zmin, emin = rep.m_functional_min, rep.m_argmin_z, rep.m_argmin_eps
    assert mmin <= scan.min() + 1e-15
    assert zmin == z[np.argmin(scan)]
    assert abs(emin) == pytest.approx(1.0, abs=1e-15)
    assert certify.m_functional(kernel, p, zmin, emin) == pytest.approx(
        mmin, abs=1e-14)


def test_m_functional_min_below_refined_epsilon_scan():
    # the former scan: 64 epsilons, then two 4x finer passes around the
    # running minimum; here it stops 2e-8 above the exact minimum
    kernel, p = BERNARDI_HALF
    grid = certify.DiskGrid()
    pz, qc = certify._pq_profiles(certify._m_nodes(kernel, p), p,
                                  _circles(grid))
    best, best_theta = _epsilon_scan(pz, qc, p.sigma,
                                     2.0 * np.pi * np.arange(64) / 64)
    i = np.argmin(best)
    width = 2.0 * np.pi / 64
    for _ in range(2):
        vals, thetas = _epsilon_scan(pz, qc, p.sigma, best_theta[i]
                                     + np.linspace(-width, width, 64))
        if vals.min() < best[i]:
            i = np.argmin(vals)
            best, best_theta = vals, thetas
        width /= 4.0
    rep = certify.run_certification(kernel, p, grid)
    assert rep.m_functional_min < best[i] - 1e-9


# two false PASSes (ROADMAP item 1): the functional is positive on the
# report's circle |z| = 0.999 and negative nearer |z| = 1 at the angle
FALSE_PASSES = {
    "bernardi-c0": (pc.make_kernel("bernardi", c=0.0),
                    pc.ParameterSet.from_mu_nu(1.0, 2.0, 0.9, 0.5),
                    2.0 * np.pi * 95 / 256),
    "komatu-c0-d0.5": (pc.make_kernel("komatu", c=0.0, delta=0.5),
                       pc.ParameterSet.from_mu_nu(1.0, 2.0, 0.0, 1.0),
                       2.0 * np.pi / 256),
}


@pytest.mark.parametrize("kernel,p,theta", FALSE_PASSES.values(),
                         ids=FALSE_PASSES)
def test_m_functional_negative_near_unit_circle_by_oracle(kernel, p, theta):
    # epsilon minimizes M at z for the node sums; the oracle integrates
    # with its own adaptive Pi envelope
    z = 0.9999 * np.exp(1j * theta)
    _, qc = certify._pq_profiles(certify._m_nodes(kernel, p), p, [z])
    eps = complex(-np.conj(qc[0]) / abs(qc[0]))
    assert oracles.m_functional_direct(kernel, p, z, eps) < 0.0


@pytest.mark.xfail(strict=True, reason="the functional row reads the circle "
                   "|z| = 0.999 only (ROADMAP item 1)")
@pytest.mark.parametrize("kernel,p,theta", FALSE_PASSES.values(),
                         ids=FALSE_PASSES)
def test_false_pass_fails_certification(kernel, p, theta):
    assert not certify.run_certification(kernel, p).passed()


def test_monotone_condition_not_applicable_at_xi_zero():
    p = pc.ParameterSet.from_mu_nu(1.0, 2.0, sigma=0.1, xi=0.0)
    with pytest.raises(NotApplicable):
        certify.check_monotone_condition(KOMATU, p)
    with pytest.raises(NotApplicable):
        certify.check_growth_condition(KOMATU, p)


def test_monotone_condition_margins():
    assert certify.check_monotone_condition(KOMATU, P12) >= 0.0
    # a weaker kernel violates the monotone route even though membership
    # can still hold
    weak = pc.make_kernel("komatu", c=0.0, delta=1.0)
    assert certify.check_monotone_condition(weak, P12) < 0.0


def test_growth_condition_margins():
    assert certify.check_growth_condition(KOMATU, P12) >= 0.0
    # an increasing density flips the primal inequality and fails it
    assert certify.check_growth_condition(BERNARDI, P12) < 0.0


@pytest.mark.parametrize("kernel", FAMILIES, ids=[k.family for k in FAMILIES])
def test_growth_condition_matches_pointwise_formula(kernel):
    p = pc.ParameterSet.from_mu_nu(1.0, 2.0, sigma=0.1, xi=0.5)
    t_grid = certify.default_t_grid(257)
    base = 1.0 / p.xi - 2.0 + 2.0 / p.mu - 1.0 / p.nu
    margins = []
    for t in t_grid:
        _, d1, d2 = kernels.density_derivatives(kernel, float(t))
        rhs = base + (1.0 - 2.0 * p.sigma) / -math.log(t)
        margins.append((t * d2 / d1 - rhs) * math.copysign(1.0, d1))
    assert certify.check_growth_condition(kernel, p) == pytest.approx(
        min(margins), rel=1e-12, abs=1e-12)


def _pieces_on(kernel, p, t):
    pieces = certify.SharedPieces(kernel, p)
    pieces.grid = np.asarray(t, dtype=float)
    return pieces


def test_growth_condition_raises_at_first_critical_point():
    # t**(-k)(1 - t**2) with k = -1 peaks at t = 1/sqrt(3)
    k = kernels.KernelSpec("ali_singh", (("k", -1.0),), 4.0)
    peak = 1.0 / math.sqrt(3.0)
    with pytest.raises(CriticalPoint, match=repr(peak)):
        certify.check_growth_condition(k, P12,
                                       _pieces_on(k, P12, [0.2, peak, 0.8]))
    assert np.isfinite(certify.check_growth_condition(
        k, P12, _pieces_on(k, P12, [0.2, 0.8])))


def test_report_growth_curve_matches_checker():
    # the plot curves are on the checkers' grid: their minima are the
    # checkers' margins themselves
    grid = certify.DiskGrid()
    c = certify.plot_curves(certify.run_certification(KOMATU, P12, grid),
                            grid)
    margins, _ = certify.condition_margins(KOMATU, P12)
    assert c["margins"] == margins
    assert np.array_equal(c["t"], certify.default_t_grid(
        certify.CHECK_GRID_POINTS))
    assert np.min(c["growth_margin"]) == margins["growth"]
    slopes = np.diff(c["monotone_expression"]) / np.diff(c["t"])
    assert np.min(slopes) == margins["monotone"]


def test_growth_condition_requires_gamma_positive():
    p = pc.ParameterSet.from_mu_nu(0.0, 2.0, sigma=0.1, xi=1.0)
    with pytest.raises(DomainError):
        certify.check_growth_condition(BERNARDI, p)


def test_phi_probe_monotone_for_certified_instance():
    a_vals = np.linspace(-0.999, 0.0, 25)
    assert oracles.phi_t_monotonicity_probe(a_vals, 0.0, P12)


def test_phi_probe_detects_reversal():
    # sigma > 1/2 makes the bracket change sign near t = 1
    p = pc.ParameterSet.from_mu_nu(2.0, 2.0, sigma=0.6, xi=1.0)
    a_vals = np.linspace(-0.999, 0.0, 25)
    assert not oracles.phi_t_monotonicity_probe(a_vals, 0.0, p)


def test_verify_membership_positive_for_starlike():
    # z/(1 - z)^1.8 is starlike of order 0.1; keep the grid radius where
    # the truncation tail is negligible
    n = np.arange(1, 2000, dtype=float)
    c = np.concatenate([[0.0, 1.0],
                        np.cumprod((n + 0.8) / n)[:1997]])
    f = oracles.from_coeffs(c)
    grid = certify.DiskGrid(radius=0.99, angles=128)
    margin, argmin = oracles.verify_membership(f, 0.1, 0.0, grid)
    assert margin >= -1e-6
    assert abs(argmin) < 1.0


def test_verify_membership_zero_denominator():
    # K(z) = z - 2 z^2 vanishes at the grid point z = 0.5
    f = oracles.from_coeffs([0.0, 1.0, -2.0])
    with pytest.raises(ZeroDenominator):
        oracles.verify_membership(f, 0.0, 0.0,
                                  certify.DiskGrid(radius=0.5, angles=8))


def test_verify_sharpness_extremal_starlike():
    # z/(1 - z)^{2(1 - sigma)} attains Re(zK'/K) = sigma at z -> -1
    sigma = 0.25
    a = 2.0 * (1.0 - sigma)
    n = np.arange(1, 2000, dtype=float)
    c = np.concatenate([[0.0, 1.0], np.cumprod((n + a - 1.0) / n)[:1997]])
    k = oracles.from_coeffs(c)
    assert oracles.verify_sharpness(k, sigma) < 1e-4


def test_run_certification_report_schema():
    rep = certify.run_certification(KOMATU, P12)
    d = rep.to_dict()
    assert d["schema_version"] == 4
    assert d["kernel"] == "komatu c=0 delta=3"
    assert d["beta"]["integral"] == pytest.approx(d["beta"]["series"],
                                                  abs=1e-7)
    assert d["params"]["beta"] == d["beta"]["integral"]
    # the theorem route is check's and sweep's, not certify's
    assert "hypothesis_check" not in d and "condition_margins" not in d
    assert isinstance(d["passed"], bool)
    assert d["failed"] == []
    assert rep.passed()
    # the duality question's rows, and no theorem-route row
    assert [row.name for row in rep.rows] \
        == ["beta_routes", "functional", "membership"]


def test_run_certification_curves():
    grid = certify.DiskGrid()
    c = certify.plot_curves(certify.run_certification(KOMATU, P12, grid),
                            grid)
    assert len(c["t"]) == len(c["pi"]) == len(c["l_at_argmin"])
    assert np.all(np.isfinite(c["pi"]))
    assert len(c["theta"]) == len(c["re_zkprime_over_k"])


def test_report_condition_margins_none_at_xi_zero():
    p = pc.ParameterSet.from_mu_nu(1.0, 2.0, sigma=0.0, xi=0.0)
    margins, _ = certify.condition_margins(BERNARDI, p)
    assert margins["monotone"] is None
    assert margins["growth"] is None


def test_run_certification_runs_no_theorem_route(monkeypatch):
    # no row of certify reads the sufficient conditions or the hypotheses,
    # so a certification calls none of their routines
    want = certify.run_certification(KOMATU, P12)

    def refuse(*args, **kwargs):
        raise AssertionError("the theorem route ran")

    for module, name in ((certify, "check_monotone_condition"),
                         (certify, "check_growth_condition"),
                         (kernels, "slope_profile"),
                         (pc.params, "hypothesis_check")):
        monkeypatch.setattr(module, name, refuse)
    got = certify.run_certification(KOMATU, P12)
    assert got.rows == want.rows


@pytest.mark.parametrize("text,beta", [
    ("hohlov a=0.5 b=0.5000001 c=4", -12.488557359433631),
    ("hohlov a=0.5 b=0.52 c=4", -11.997294728191273)])
def test_run_certification_hohlov_near_integer_a_minus_b(text, beta):
    # a - b within 0.05 of 0: near t = 0 the 2F1 factors pair the terms
    # of A&S 15.3.6; beta as computed with mpmath's 2F1 serving there
    rep = certify.run_certification(pc.parse_kernel(text), P12)
    assert rep.beta_integral == pytest.approx(beta, rel=1e-12)
    assert rep.passed()


def test_run_certification_komatu_mu2_returns_report():
    # the envelopes at the M-nodes t ~ 3e-15 and 2.5e-12 used to stop this
    # run with QuadratureFailure
    kernel = pc.make_kernel("komatu", c=-0.5, delta=4.0)
    p = pc.ParameterSet.from_mu_nu(2.0, 2.0, sigma=0.1, xi=1.0)
    rep = certify.run_certification(kernel, p)
    assert rep.beta_integral == pytest.approx(-93.6214042640442, abs=1e-7)
    assert np.isfinite(rep.m_functional_min)
    assert isinstance(rep.passed(), bool)


def test_run_certification_komatu_mu2_decays():
    # t**(1/2) Lambda ~ t**(1/2) log(1/t)**4 rises until t ~ e**-8 and
    # then falls to 0: the left endpoint exponent -1/2 exceeds -1
    kernel = pc.make_kernel("komatu", c=-0.5, delta=4.0)
    p = pc.ParameterSet.from_mu_nu(2.0, 2.0, sigma=0.1, xi=1.0)
    rep = certify.run_certification(kernel, p)
    assert kernels.endpoint_exponents(kernel)[0] > -1.0
    assert rep.passed()


# ---------------------------------------------------------------------------
# the extremal image on the M-nodes

# the six certify_closed requests of the benchmark, its two Hohlov kernels
# with a != 1, xi = 0, and mu = 0: (kernel, mu, nu, sigma, xi)
IMAGE_CASES = [
    ("komatu c=0 delta=3", 1.0, 2.0, 0.1, 1.0),
    ("bernardi c=1", 1.0, 2.0, 0.1, 0.5),
    ("hohlov a=1 b=1 c=4", 1.0, 2.0, 0.1, 1.0),
    ("generalized A=1 B=1 C=4 x1=1", 1.0, 2.0, 0.1, 1.0),
    ("two_param_log a=-0.5 b=0", 1.0, 2.0, 0.1, 1.0),
    ("komatu c=-0.5 delta=4", 2.0, 2.0, 0.1, 1.0),
    ("hohlov a=0.5 b=0.8 c=4.5", 1.0, 2.0, 0.1, 1.0),
    ("hohlov a=1.5 b=0.5 c=4", 1.0, 2.0, 0.1, 1.0),
    ("ali_singh k=0.5", 1.0, 2.0, 0.1, 0.0),
    ("bernardi c=2", 0.0, 2.0, 0.1, 1.0),
]


def _series_image(kernel, p, beta, order):
    """K = xi z g' + (1 - xi) g and z K' for the truncated image g."""
    f = oracles.extremal_function(p.mu, p.nu, beta, order)
    g = oracles.apply_transform(f, kernels.moment_sequence(kernel, order - 1))
    k = oracles.k_combination(g, p.xi)
    return k, oracles.z_derivative(k)


def _series_beta_sharpness(kernel, p, rep):
    """|Re(zK'/K)(-1) - sigma| for the extremal function of the series
    route's beta, on the M-nodes.  At the node beta this is the node
    route's own equation for beta, rep.sharpness_residual, and cannot see
    the node rule's error."""
    nodes = certify._m_nodes(kernel, p)
    _, ratio = certify.extremal_image(nodes, p, rep.beta_series, -1.0)
    return abs(float(ratio.real) - p.sigma)


@pytest.mark.parametrize("text,mu,nu,sigma,xi", IMAGE_CASES,
                         ids=[f"{c[0]} mu={c[1]:g} xi={c[4]:g}"
                              for c in IMAGE_CASES])
def test_extremal_image_matches_series_oracle(text, mu, nu, sigma, xi):
    # the order-32768 series on the grid circle, and at z = -1 through the
    # binomially averaged partial sums of the alternating series
    kernel = pc.parse_kernel(text)
    p = pc.ParameterSet.from_mu_nu(mu, nu, sigma, xi)
    beta = certify.beta_sharp(kernel, p)
    nodes = certify._m_nodes(kernel, p)
    z = certify.DiskGrid().boundary_points()
    _, ratio = certify.extremal_image(nodes, p, beta, z)
    k, zk = _series_image(kernel, p, beta, 32768)
    oracle = (oracles.evaluate_many(zk, z) / oracles.evaluate_many(k, z)).real
    assert np.max(np.abs(ratio.real - oracle)) <= 1e-8

    _, at_minus_one = certify.extremal_image(nodes, p, beta, -1.0)
    sign = (-1.0) ** np.arange(len(k.coeffs))
    oracle_at_minus_one = (averaged_partial_sum((zk.coeffs * sign).real)
                           / averaged_partial_sum((k.coeffs * sign).real))
    assert abs(at_minus_one.real - oracle_at_minus_one) <= 1e-8
    # the sharp beta puts the image on the boundary of the class there
    assert abs(at_minus_one.real - sigma) <= 1e-8


def test_extremal_image_shapes_and_origin():
    nodes = certify._m_nodes(KOMATU, P12)
    k, ratio = certify.extremal_image(nodes, P12, -6.0, np.zeros((2, 3)))
    assert k.shape == ratio.shape == (2, 3)
    # g(z)/z = 1 + O(z): K/z and zK'/K are 1 at the origin
    assert np.allclose(k, 1.0, rtol=0.0, atol=1e-13)
    assert np.allclose(ratio, 1.0, rtol=0.0, atol=1e-13)


@pytest.mark.parametrize("text,mu,xi,margin", [
    ("bernardi c=1", 1.0, 0.5, 1.3014e-3),
    ("bernardi c=2", 0.0, 1.0, 1.0394e-3),
])
def test_former_truncation_fails_pass_membership(text, mu, xi, margin):
    # order 512 gave -1.551e-3 and -2.236 here
    p = pc.ParameterSet.from_mu_nu(mu, 2.0, sigma=0.1, xi=xi)
    rep = certify.run_certification(pc.parse_kernel(text), p)
    assert rep.membership_min == pytest.approx(margin, abs=1e-7)
    assert rep.membership_min >= 0.0
    assert _series_beta_sharpness(pc.parse_kernel(text), p, rep) <= 1e-8


def test_winding_guard_catches_zero_inside():
    # at beta = -10 the circle minimum of Re(zK'/K) looks fine, but K(z)/z
    # is real on the real axis and changes sign on (-1, 0): K has a zero
    # inside the disk, and the winding number on the circle shows it
    p = pc.ParameterSet.from_mu_nu(1.0, 2.0, sigma=0.1, xi=0.5)
    nodes = certify._m_nodes(BERNARDI, p)
    z = certify.DiskGrid().boundary_points()
    k, ratio = certify.extremal_image(nodes, p, -10.0, z)
    assert np.min(ratio.real) - p.sigma > 1.0
    k_real, _ = certify.extremal_image(nodes, p, -10.0, [-0.999, 0.0])
    assert k_real[0].real < 0.0 < k_real[1].real
    with pytest.raises(ZeroDenominator, match="winds 1 times"):
        certify._winding_guard(k, z)
    # at the sharp beta K/z stays off 0 and winds 0 times
    k, _ = certify.extremal_image(nodes, p, certify.beta_sharp(BERNARDI, p),
                                  z)
    certify._winding_guard(k, z)


def test_m_nodes_built_once_per_certification(monkeypatch):
    calls = []
    build = certify._m_nodes

    def counted(kernel, p):
        calls.append(kernel)
        return build(kernel, p)

    monkeypatch.setattr(certify, "_m_nodes", counted)
    certify.run_certification(KOMATU, P12)
    assert len(calls) == 1


def _count_envelopes(monkeypatch):
    # the grid size of each envelopes call, and "slopes" for each slope
    # profile
    calls = []
    build, slopes = kernels.envelopes, kernels.slope_profile

    def counted(kernel, mu, nu, t):
        calls.append(len(t))
        return build(kernel, mu, nu, t)

    def counted_slopes(kernel, t):
        calls.append("slopes")
        return slopes(kernel, t)

    monkeypatch.setattr(kernels, "envelopes", counted)
    monkeypatch.setattr(kernels, "slope_profile", counted_slopes)
    return calls


def test_certification_builds_envelopes_on_m_nodes_only(monkeypatch):
    # the checker grid and its slope profile are the theorem route's
    calls = _count_envelopes(monkeypatch)
    certify.run_certification(KOMATU, P12)
    assert calls == [certify._M_U.size]


@pytest.mark.parametrize("with_curves,want", [(False, 2), (True, 2)])
def test_envelopes_built_once_per_grid(monkeypatch, with_curves, want):
    # a certification and the theorem route on one SharedPieces: the
    # M-nodes and the checker grid, which the plot curves share; one
    # slope profile on that grid
    calls = _count_envelopes(monkeypatch)
    pieces = certify.SharedPieces(KOMATU, P12)
    grid = certify.DiskGrid()
    rep = certify.run_certification(KOMATU, P12, grid, pieces=pieces)
    certify.condition_margins(KOMATU, P12, pieces)
    if with_curves:
        certify.plot_curves(rep, grid, pieces)
    assert len(calls) - calls.count("slopes") == want
    assert calls.count("slopes") == 1


def _pq_pointwise(nodes, params, z):
    # P and Q from the integrand at every (z, t) node, as the oracle
    t, w = nodes
    sg, xi = params.sigma, params.xi
    tz = np.asarray(z, dtype=complex).reshape(-1, 1) * t
    inv1 = 1.0 / (1.0 - tz) ** 2
    inv2 = inv1 / (1.0 - tz)
    base = (1.0 - xi) * (inv1.real - auxfun._rational_g(t, sg)) \
        + xi * (((1.0 + tz) * inv2).real - auxfun._rational_q(t, sg))
    qc = (1.0 - xi) * (tz * inv1) + xi * (2.0 * tz * inv2)
    return base @ w, qc @ w


@pytest.mark.parametrize("text,mu,nu,sigma,xi", IMAGE_CASES[:8],
                         ids=[f"{c[0]} mu={c[1]:g} xi={c[4]:g}"
                              for c in IMAGE_CASES[:8]])
def test_pq_from_node_sums_match_pointwise(text, mu, nu, sigma, xi):
    # the eight certifications of the benchmark's certify workloads
    kernel = pc.parse_kernel(text)
    p = pc.ParameterSet.from_mu_nu(mu, nu, sigma, xi)
    nodes = certify._m_nodes(kernel, p)
    z = np.append(certify.DiskGrid().boundary_points(), -1.0)
    pz, qc = certify._pq_profiles(nodes, p, z)
    pz_o, qc_o = _pq_pointwise(nodes, p, z)
    assert np.max(np.abs(pz - pz_o)) <= 1e-13
    assert np.max(np.abs(qc - qc_o)) <= 1e-13
    m = pz + ((2.0 * sigma - 1.0) * qc.real - np.abs(qc)) \
        / (2.0 * (1.0 - sigma))
    m_o = pz_o + ((2.0 * sigma - 1.0) * qc_o.real - np.abs(qc_o)) \
        / (2.0 * (1.0 - sigma))
    assert np.max(np.abs(m - m_o)) <= 1e-13


def test_node_sums_built_once_per_certification(monkeypatch):
    calls = []
    build = certify._node_sums

    def counted(nodes, z):
        calls.append(len(z))
        return build(nodes, z)

    monkeypatch.setattr(certify, "_node_sums", counted)
    grid = certify.DiskGrid()
    certify.run_certification(KOMATU, P12, grid)
    # the upper half of the grid circle, k = 0..angles//2, and z = -1
    assert calls == [grid.angles // 2 + 2]


def _node_sums_full_array(nodes, z):
    """The node sums over the whole (3, z, t) array at once."""
    t, w = nodes
    u = np.reciprocal(1.0 - np.asarray(z, dtype=complex).reshape(-1, 1) * t)
    u2 = u * u
    powers = np.stack([u, u2, u * u2])
    return tuple(powers.real.dot(w) + 1j * powers.imag.dot(w))


def _node_sums_einsum(nodes, z):
    """The node sums as einsum row reductions of 1/(1 - t z)**k."""
    t, w = nodes
    u = 1.0 / (1.0 - np.asarray(z, dtype=complex).reshape(-1, 1) * t)
    u2 = u * u
    return tuple(np.einsum("ij,j->i", v, w) for v in (u, u2, u * u2))


@pytest.mark.parametrize("count", [1, 130, 2049])
def test_blocked_node_sums_equal_full_array(count):
    # 130 z fill 16 blocks of 2 * 4096 // (3 * 312) = 8 rows and leave 2
    # over; 2049 leave 1
    nodes = certify._m_nodes(KOMATU, P12)
    z = 0.99 * np.exp(1j * np.linspace(0.0, np.pi, count))
    got = certify._node_sums(nodes, z)
    for blocked, full in zip(got, _node_sums_full_array(nodes, z)):
        assert blocked.shape == (count,)
        assert np.array_equal(blocked, full)
    for blocked, plain in zip(got, _node_sums_einsum(nodes, z)):
        assert np.max(np.abs(blocked - plain) / np.abs(plain)) <= 1e-14


def test_node_sums_of_a_certification_stay_small(monkeypatch):
    # the full 130 x 312 complex temporaries took 650 KB each
    peaks = []
    build = certify._node_sums

    def traced(nodes, z):
        tracemalloc.start()
        try:
            return build(nodes, z)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    monkeypatch.setattr(certify, "_node_sums", traced)
    certify.run_certification(KOMATU, P12)
    assert len(peaks) == 1 and peaks[0] < 256 * 1024


@pytest.mark.parametrize("angles", [5, 7, 64, 256])
def test_upper_half_node_sums_unfold_to_full_circle(angles):
    grid = certify.DiskGrid(angles=angles)
    nodes = certify._m_nodes(KOMATU, P12)
    full = certify._node_sums(nodes, grid.boundary_points())
    upper = certify._node_sums(nodes, grid.upper_points())
    assert len(upper[0]) == angles // 2 + 1
    for m_full, m_upper in zip(full, upper):
        unfolded = grid.unfold(m_upper)
        assert np.max(np.abs(unfolded - m_full) / np.abs(m_full)) <= 1e-15


@pytest.mark.parametrize("angles", [5, 7, 64, 256])
def test_conjugate_pair_minimum_reports_upper_point(angles):
    # at 5 and 7 angles both minima sit on a pair z, conj z off the axis;
    # the full circle is unfolded from the same half-circle sums the
    # report takes, as sums in another order round differently
    grid = certify.DiskGrid(angles=angles)
    rep = certify.run_certification(KOMATU, P12, grid)
    z = grid.boundary_points()
    nodes = certify._m_nodes(KOMATU, P12)
    pz, qc = certify._pq_profiles(nodes, P12, grid.upper_points())
    m = pz + ((2.0 * P12.sigma - 1.0) * qc.real - np.abs(qc)) \
        / (2.0 * (1.0 - P12.sigma))
    _, ratio = certify.extremal_image(nodes, P12, rep.beta_integral,
                                      grid.upper_points())
    for got_min, got_z, vals in (
            (rep.m_functional_min, rep.m_argmin_z, grid.unfold(m)),
            (rep.membership_min + P12.sigma, rep.membership_argmin,
             grid.unfold(ratio).real)):
        assert got_z.imag >= 0.0
        assert got_min == pytest.approx(vals.min(), abs=1e-15)
        # rounding picks either point of the pair in the full circle
        i = np.argmin(vals)
        assert min(abs(got_z - z[i]), abs(got_z - np.conj(z[i]))) <= 1e-15
        if angles % 2:
            assert got_z.imag > 0.0


@pytest.mark.parametrize("angles", [5, 64])
def test_winding_guard_and_curve_see_full_circle(monkeypatch, angles):
    seen = []
    guard = certify._winding_guard

    def counted(k_over_z, z):
        seen.append(z)
        return guard(k_over_z, z)

    monkeypatch.setattr(certify, "_winding_guard", counted)
    grid = certify.DiskGrid(angles=angles)
    rep = certify.run_certification(KOMATU, P12, grid)
    z = grid.boundary_points()
    assert len(seen) == 1 and np.array_equal(seen[0], z)
    nodes = certify._m_nodes(KOMATU, P12)
    _, ratio = certify.extremal_image(nodes, P12, rep.beta_integral, z)
    curve = certify.plot_curves(rep, grid)["re_zkprime_over_k"]
    assert curve.shape == (angles,)
    assert np.max(np.abs(curve - ratio.real)) <= 1e-13


# weights with t**(1/nu - 1) or t**(1/mu - 1) at t = 0 below t**(-1/2),
# and a density exponent p = -0.9
NODE_RULE_CASES = [("bernardi c=1", mu, nu, 0.1, 0.5)
                   for mu in (0.25, 0.5, 0.7) for nu in (2.0, 5.0)] \
    + [("bernardi c=-0.9", 1.0, 2.0, 0.1, 1.0)]


@pytest.mark.parametrize(
    "text,mu,nu,sigma,xi", IMAGE_CASES[:8] + NODE_RULE_CASES,
    ids=[f"{c[0]} mu={c[1]:g} xi={c[4]:g}" for c in IMAGE_CASES[:8]]
    + [f"{c[0]} mu={c[1]:g} nu={c[2]:g}" for c in NODE_RULE_CASES])
def test_m_node_moment_identity(text, mu, nu, sigma, xi):
    # sum W t**n = mu nu tau_n / ((1 + n mu)(1 + n nu)), the identity
    # behind extremal_image and beta's node route.  n = 0 is left out: no
    # sum the functional, the image or beta takes reads the mass alone;
    # each integrand vanishes at t = 0, as t**n does for n >= 1 (the
    # differences M_j - M_k, and Re u**2 and R(t) - 1 against R in P).
    # n runs to ALTERNATING_TERMS, the moments the series route reads, so
    # the weights hold where t**n crowds against t = 1
    kernel = pc.parse_kernel(text)
    p = pc.ParameterSet.from_mu_nu(mu, nu, sigma, xi)
    t, w = certify._m_nodes(kernel, p)
    n = np.arange(1.0, ALTERNATING_TERMS + 1.0)
    want = (mu * nu if mu > 0.0 else nu) * kernels.moment_sequence(
        kernel, ALTERNATING_TERMS) / ((1.0 + n * mu) * (1.0 + n * nu))
    got = np.array([np.dot(w, t**k) for k in n])
    assert np.max(np.abs(got / want - 1.0)) <= 1e-13


def test_m_nodes_keep_pi_in_range_at_small_mu():
    # Pi ~ t**(1/2 - 1/mu) here: t = u**4 overflowed it below mu = 0.047,
    # so the substitution stays milder where 1/mu is large; m = 1 left
    # sharpness 5e-5 off at mu = 0.03
    p = pc.ParameterSet.from_mu_nu(0.03, 2.0, sigma=0.1, xi=1.0)
    rep = certify.run_certification(KOMATU, p)
    assert abs(rep.beta_integral - rep.beta_series) <= 1e-10
    assert _series_beta_sharpness(KOMATU, p, rep) <= 1e-10
    assert rep.passed()


def test_beta_route_gap_fails_its_row():
    # the milder substitution at mu = 0.015 misses the series beta by
    # 2.0e-6: the report names the gap instead of raising
    p = pc.ParameterSet.from_mu_nu(0.015, 2.0, sigma=0.1, xi=1.0)
    rep = certify.run_certification(KOMATU, p)
    assert rep.beta_integral == pytest.approx(-2.935508199383507, abs=1e-9)
    assert rep.beta_series == pytest.approx(-2.935510206781876, abs=1e-9)
    assert rep.failed() == ["beta_routes"]
    # the sharpness residual reads the node beta's own equation back, so
    # only the series beta shows the node rule's error
    assert rep.sharpness_residual <= 1e-12
    assert _series_beta_sharpness(KOMATU, p, rep) > 1e-7


def test_m_nodes_raise_where_weight_not_finite():
    # at mu = 0.01, u**99 underflows where Pi overflows
    p = pc.ParameterSet.from_mu_nu(0.01, 2.0, sigma=0.1, xi=1.0)
    with pytest.raises(QuadratureFailure, match=r"mu = 0\.01, nu = 2\.0"):
        certify._m_nodes(KOMATU, p)
    with pytest.raises(QuadratureFailure):
        certify.run_certification(KOMATU, p)


def test_shared_pieces_build_once_and_fail_at_every_use(monkeypatch):
    # one build per piece, whatever the number of uses; a failed build is
    # tried again at every use and raises as a fresh build would
    calls = []
    build = certify._m_nodes

    def counted(kernel, p):
        calls.append(p.mu)
        return build(kernel, p)

    monkeypatch.setattr(certify, "_m_nodes", counted)
    pieces = certify.SharedPieces(KOMATU, P12)
    assert pieces.nodes is pieces.nodes
    assert pieces.tau is pieces.tau
    p = pc.ParameterSet.from_mu_nu(0.01, 2.0, sigma=0.1, xi=1.0)
    failing = certify.SharedPieces(KOMATU, p)
    for _ in range(2):
        with pytest.raises(QuadratureFailure, match=r"mu = 0\.01"):
            failing.nodes
    assert calls == [1.0, 0.01, 0.01]
    # the default grid's envelopes and slopes are the checkers' own
    t = certify.default_t_grid(certify.CHECK_GRID_POINTS)
    assert np.array_equal(pieces.grid, t)
    assert certify.check_monotone_condition(KOMATU, P12, pieces=pieces) \
        == certify.check_monotone_condition(KOMATU, P12,
                                            _pieces_on(KOMATU, P12, t))
    assert certify.check_growth_condition(KOMATU, P12, pieces=pieces) \
        == certify.check_growth_condition(KOMATU, P12,
                                          _pieces_on(KOMATU, P12, t))
