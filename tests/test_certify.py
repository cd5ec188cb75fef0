import math

import numpy as np
import pytest

import pascucert as pc
from pascucert import auxfun, certify, kernels, series
from pascucert.errors import (CriticalPoint, DomainError, NotApplicable,
                              RepresentationMismatch, ZeroDenominator)

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
    iq = certify.beta_quadrature_route(BERNARDI, p)
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
        iq = certify.beta_quadrature_route(kernel, p)
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
    ctx = auxfun.AuxContext(p.mu, p.nu, p.sigma, p.xi)

    def f(u):
        t = np.array([u**4])
        return float(4.0 * u**3 * kernels.density(kernel, t)[0]
                     * auxfun.combined_gq(ctx, t)[0])

    i_ref = integrate.quad(f, 0.0, 1.0, epsabs=1e-15, epsrel=1e-14,
                           limit=500)[0]
    assert certify.beta_sharp(kernel, p) == pytest.approx(
        i_ref / (i_ref - 1.0), abs=2e-10)


def test_beta_sharp_mismatch_raises(monkeypatch):
    monkeypatch.setattr(certify, "beta_series_route",
                        lambda k, p: certify.beta_quadrature_route(k, p) + 0.1)
    with pytest.raises(RepresentationMismatch):
        certify.beta_sharp(BERNARDI, P12)


def test_beta0_closed_form_requirements():
    with pytest.raises(DomainError):
        certify.beta0_hohlov_closed_form(
            pc.ParameterSet.from_mu_nu(1.0, 2.0, xi=0.0), 1.0, 4.0)


def test_disk_grid_validation():
    with pytest.raises(DomainError):
        certify.DiskGrid(radii=(0.9, 0.5))
    with pytest.raises(DomainError):
        certify.DiskGrid(radii=(0.5, 1.0))
    with pytest.raises(DomainError):
        certify.DiskGrid(angles=2)
    grid = certify.DiskGrid(radii=(0.5, 0.9), angles=8)
    assert len(grid.z_points()) == 16
    assert np.array_equal(grid.boundary_points(), grid.z_points()[8:])


def test_m_functional_node_route_matches_direct():
    rng = np.random.default_rng(7)
    for kernel in (KOMATU, BERNARDI):
        for _ in range(2):
            z = complex(0.8 * rng.uniform(0.2, 1.0)
                        * np.exp(1j * rng.uniform(0, 2 * np.pi)))
            eps = complex(np.exp(1j * rng.uniform(0, 2 * np.pi)))
            fast = certify.m_functional(kernel, P12, z, eps)
            slow = certify.m_functional_direct(kernel, P12, z, eps)
            assert fast == pytest.approx(slow, abs=5e-8)


def test_m_functional_min_nonnegative_for_certified_instance():
    mmin, zmin, emin = certify.m_functional_min(KOMATU, P12)
    assert mmin >= -1e-6
    assert abs(emin) == pytest.approx(1.0)
    assert abs(zmin) <= 0.999 + 1e-12


def _epsilon_scan(p, qc, sigma, theta):
    """min over the sampled epsilons at each z, and the minimizing angle."""
    m = p[:, None] + (qc[:, None]
                      * certify._eps_slope(np.exp(1j * theta), sigma)).real
    j = np.argmin(m, axis=1)
    return m[np.arange(len(p)), j], theta[j]


BERNARDI_HALF = (BERNARDI,
                 pc.ParameterSet.from_mu_nu(1.0, 1.0, sigma=0.5, xi=1.0))
MIN_CASES = [(k, P12) for k in FAMILIES] + [BERNARDI_HALF]


@pytest.mark.parametrize("kernel,p", MIN_CASES,
                         ids=[k.family for k in FAMILIES] + ["bernardi_half"])
def test_m_functional_min_not_above_dense_scan(kernel, p):
    # 4096 epsilons on every circle of the grid: the closed form on the
    # outermost circle is never above it and finds the same z
    grid = certify.DiskGrid()
    z = grid.z_points()
    pz, qc = certify._pq_profiles(kernel, p, z)
    theta = 2.0 * np.pi * np.arange(4096) / 4096
    scan = np.min([_epsilon_scan(pz, qc, p.sigma, th)[0]
                   for th in np.split(theta, 8)], axis=0)
    mmin, zmin, emin = certify.m_functional_min(kernel, p, grid)
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
    pz, qc = certify._pq_profiles(kernel, p, grid.z_points())
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
    mmin, _, _ = certify.m_functional_min(kernel, p, grid)
    assert mmin < best[i] - 1e-9


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


def test_growth_condition_raises_at_first_critical_point():
    # t**(-k)(1 - t**2) with k = -1 peaks at t = 1/sqrt(3)
    k = kernels.KernelSpec("ali_singh", (("k", -1.0),), 4.0)
    peak = 1.0 / math.sqrt(3.0)
    with pytest.raises(CriticalPoint, match=repr(peak)):
        certify.check_growth_condition(k, P12, [0.2, peak, 0.8])
    assert np.isfinite(certify.check_growth_condition(k, P12, [0.2, 0.8]))


def test_report_growth_curve_matches_checker():
    rep = certify.run_certification(KOMATU, P12, order=128, with_curves=True)
    c = rep.curves
    assert np.min(c["growth_margin"]) == pytest.approx(
        certify.check_growth_condition(KOMATU, P12, c["t"]), rel=1e-15)
    slopes = np.diff(c["monotone_expression"]) / np.diff(c["t"])
    assert np.min(slopes) == pytest.approx(
        certify.check_monotone_condition(KOMATU, P12, c["t"]), rel=1e-15)


def test_growth_condition_requires_gamma_positive():
    p = pc.ParameterSet.from_mu_nu(0.0, 2.0, sigma=0.1, xi=1.0)
    with pytest.raises(DomainError):
        certify.check_growth_condition(BERNARDI, p)


def test_phi_probe_monotone_for_certified_instance():
    a_vals = np.linspace(-0.999, 0.0, 25)
    assert certify.phi_t_monotonicity_probe(a_vals, 0.0, P12)


def test_phi_probe_detects_reversal():
    # sigma > 1/2 makes the bracket change sign near t = 1
    p = pc.ParameterSet.from_mu_nu(2.0, 2.0, sigma=0.6, xi=1.0)
    a_vals = np.linspace(-0.999, 0.0, 25)
    assert not certify.phi_t_monotonicity_probe(a_vals, 0.0, p)


def test_verify_membership_positive_for_starlike():
    # z/(1 - z)^1.8 is starlike of order 0.1; keep the grid radius where
    # the truncation tail is negligible
    n = np.arange(1, 2000, dtype=float)
    c = np.concatenate([[0.0, 1.0],
                        np.cumprod((n + 0.8) / n)[:1997]])
    f = series.from_coeffs(c)
    grid = certify.DiskGrid(radii=(0.5, 0.9, 0.99), angles=128)
    margin, argmin = certify.verify_membership(f, 0.1, 0.0, grid)
    assert margin >= -1e-6
    assert abs(argmin) < 1.0


def test_verify_membership_zero_denominator():
    # K(z) = z - 2 z^2 vanishes at the grid point z = 0.5
    f = series.from_coeffs([0.0, 1.0, -2.0])
    with pytest.raises(ZeroDenominator):
        certify.verify_membership(f, 0.0, 0.0,
                                  certify.DiskGrid(radii=(0.5, 0.9),
                                                   angles=8))


def test_verify_sharpness_extremal_starlike():
    # z/(1 - z)^{2(1 - sigma)} attains Re(zK'/K) = sigma at z -> -1
    sigma = 0.25
    a = 2.0 * (1.0 - sigma)
    n = np.arange(1, 2000, dtype=float)
    c = np.concatenate([[0.0, 1.0], np.cumprod((n + a - 1.0) / n)[:1997]])
    k = series.from_coeffs(c)
    assert certify.verify_sharpness(k, sigma) < 1e-4


def test_run_certification_report_schema():
    rep = certify.run_certification(KOMATU, P12, order=128)
    d = rep.to_dict()
    assert d["schema_version"] == 1
    assert d["kernel"] == "komatu c=0 delta=3"
    assert d["beta"]["integral"] == pytest.approx(d["beta"]["series"],
                                                  abs=1e-7)
    assert d["params"]["beta"] == d["beta"]["integral"]
    assert d["boundary_decay_ok"] is True
    assert d["hypothesis_check"]["all_satisfied"] is True
    assert isinstance(d["passed"], bool)
    assert rep.passed()


def test_run_certification_curves():
    rep = certify.run_certification(KOMATU, P12, order=128, with_curves=True)
    c = rep.curves
    assert len(c["t"]) == len(c["pi"]) == len(c["l_at_argmin"])
    assert np.all(np.isfinite(c["pi"]))
    assert len(c["theta"]) == len(c["re_zkprime_over_k"])


def test_report_condition_margins_none_at_xi_zero():
    p = pc.ParameterSet.from_mu_nu(1.0, 2.0, sigma=0.0, xi=0.0)
    rep = certify.run_certification(BERNARDI, p, order=128)
    assert rep.condition_margins["monotone"] is None
    assert rep.condition_margins["growth"] is None


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
    assert rep.decay_ok
    assert rep.passed()
