"""Top-level acceptance checks: one printed pass/fail line per criterion.

Each check exercises the library end to end at its stated tolerance and
reports a single line.  Tolerances are fixed here on purpose; do not
loosen them to make a failing build green.
"""

import numpy as np
import pytest

from pascucert import auxfun, certify, kernels, oracles, params
from pascucert.errors import DomainError


def _report(num: int, name: str, ok: bool, detail: str):
    line = f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print("\n" + line)
    assert ok, line


# ---------------------------------------------------------------------------
# 1. convolution-inverse identity

def test_acceptance_1_convolution_inverse():
    worst = 0.0
    for mu, nu in ((0.0, 1.0), (1.0, 1.0), (1.0, 2.0), (1.0, 4.0)):
        phi = oracles.phi_kernel(mu, nu, 200)
        psi = oracles.psi_kernel(mu, nu, 200)
        prod = oracles.hadamard(phi, psi)
        worst = max(worst, float(np.max(np.abs(prod.coeffs - 1.0))))
    _report(1, "convolution inverse", worst <= 1e-12,
            f"max |coeff - 1| = {worst:.3e} for n <= 200")


# ---------------------------------------------------------------------------
# 2. g/q representation agreement and differential-equation residuals

def _inner_profile(rat, mu, sigma, t):
    u, w = np.polynomial.legendre.leggauss(80)
    u = 0.5 * (u + 1.0)
    return 0.5 * float(np.dot(w, rat(u ** mu * t, sigma)))


def test_acceptance_2_profile_representations():
    t_grid = np.arange(0.1, 0.95, 0.1)
    worst_rep = 0.0
    worst_ode = 0.0
    h = 1e-5
    for mu, nu in ((1.0, 1.0), (1.0, 2.0)):
        for sigma in (0.0, 0.1):
            p = params.ParameterSet.from_mu_nu(mu, nu, sigma)
            for t in t_grid:
                gs = oracles.g_series(p, t)
                gi = oracles.g_integral(p, t)
                qs = oracles.q_series(p, t)
                qi = oracles.q_integral(p, t)
                worst_rep = max(worst_rep, abs(gs - gi), abs(qs - qi))

                # d/dt [t^{1/nu} (1+g)/2] = (1/nu) t^{1/nu - 1} *
                #     integral_0^1 of the starlike rational at u^mu t
                e = 1.0 / nu

                def y_g(s):
                    return s ** e * 0.5 * (1.0 + oracles.g_series(p, s))

                def y_q(s):
                    return s ** e * oracles.q_series(p, s)

                lhs_g = (y_g(t + h) - y_g(t - h)) / (2.0 * h)
                rhs_g = e * t ** (e - 1.0) * _inner_profile(
                    auxfun._rational_g, mu, sigma, t)
                lhs_q = (y_q(t + h) - y_q(t - h)) / (2.0 * h)
                rhs_q = e * t ** (e - 1.0) * _inner_profile(
                    auxfun._rational_q, mu, sigma, t)
                worst_ode = max(worst_ode, abs(lhs_g - rhs_g),
                                abs(lhs_q - rhs_q))
    ok = worst_rep <= 1e-8 and worst_ode <= 1e-6
    _report(2, "g/q representations", ok,
            f"series vs integral {worst_rep:.3e}, "
            f"ODE residual {worst_ode:.3e}")


# ---------------------------------------------------------------------------
# 3. two-route beta and the closed form

BETA_KERNELS = (
    kernels.make_kernel("bernardi", c=1.0),
    kernels.make_kernel("komatu", c=0.0, delta=3.0),
    kernels.make_kernel("two_param_log", a=0.0, b=1.0),
)
BETA_PARAMS = ((1.0, 1.0, 0.0, 0.5), (1.0, 2.0, 0.1, 1.0),
               (1.0, 4.0, 0.0, 1.0), (2.0, 3.0, 0.1, 0.25))


def test_acceptance_3_two_route_beta():
    # the verdict's two routes, M-nodes and series, and the adaptive
    # quadrature as a third oracle
    worst = worst_quad = 0.0
    for kernel in BETA_KERNELS:
        for mu, nu, sigma, xi in BETA_PARAMS:
            p = params.ParameterSet.from_mu_nu(mu, nu, sigma, xi)
            routes = certify.beta_routes(kernel, p)
            b_quad = certify.beta_from_integral(
                oracles.beta_quadrature_route(kernel, p))
            worst = max(worst, abs(routes.nodes - routes.series))
            worst_quad = max(worst_quad, abs(b_quad - routes.series))
    hohlov = kernels.make_kernel("hohlov", a=1.0, b=1.0, c=4.0)
    p = params.ParameterSet.from_mu_nu(1.0, 2.0, 0.1, 1.0)
    b_sharp = certify.beta_sharp(hohlov, p)
    b_closed = oracles.beta0_hohlov_closed_form(p, 1.0, 4.0)
    closed_diff = abs(b_sharp - b_closed)
    ok = max(worst, worst_quad) <= 1e-7 and closed_diff <= 1e-6
    _report(3, "two-route beta", ok,
            f"route diff {worst:.3e} on 3x4 grid, adaptive quadrature "
            f"{worst_quad:.3e} off, closed form diff {closed_diff:.3e}")


# ---------------------------------------------------------------------------
# 4. vanishing of the duality integrand in the sharp direction

def test_acceptance_4_l_vanishing():
    p = params.ParameterSet.from_mu_nu(1.0, 2.0, 0.1, 0.5)
    t = np.linspace(0.05, 0.95, 181)
    vals = auxfun.l_integrand(p, 1.0, -1.0 + 1e-4, t)
    worst = float(np.max(np.abs(vals)))
    _report(4, "L-vanishing at epsilon=1, z->-1", worst <= 1e-3,
            f"max |L| = {worst:.3e} on t in [0.05, 0.95]")


# ---------------------------------------------------------------------------
# 5. the duality functional is affine in xi

def test_acceptance_5_xi_affinity():
    kernel = kernels.make_kernel("bernardi", c=1.0)
    z_pts = (0.3 + 0.4j, -0.8 + 0.0j, 0.5j, -0.2 - 0.7j)
    eps_pts = (1.0, np.exp(1j), np.exp(2.5j))
    worst = 0.0
    for mu, nu, sigma in ((1.0, 2.0, 0.1), (1.0, 1.0, 0.0)):
        def p_at(xi):
            return params.ParameterSet.from_mu_nu(mu, nu, sigma, xi)

        for z in z_pts:
            for eps in eps_pts:
                m0 = certify.m_functional(kernel, p_at(0.0), z, eps)
                m1 = certify.m_functional(kernel, p_at(1.0), z, eps)
                for xi in (0.25, 0.5, 0.75):
                    m = certify.m_functional(kernel, p_at(xi), z, eps)
                    worst = max(worst,
                                abs(m - ((1.0 - xi) * m0 + xi * m1)))
    _report(5, "xi-affinity of M", worst <= 1e-10,
            f"max |M(xi) - interpolant| = {worst:.3e}")


# ---------------------------------------------------------------------------
# 6. end-to-end sharpness for the Komatu kernel

def test_acceptance_6_end_to_end_sharpness():
    kernel = kernels.make_kernel("komatu", c=0.0, delta=3.0)
    p = params.ParameterSet.from_mu_nu(1.0, 2.0, 0.1, 1.0)
    beta = certify.beta_sharp(kernel, p)
    grid = certify.DiskGrid()
    residuals = []
    mem_min = None
    for order in (128, 256, 512):
        f_ext = oracles.extremal_function(p.mu, p.nu, beta, order)
        tau = kernels.moment_sequence(kernel, order - 1)
        f_img = oracles.apply_transform(f_ext, tau)
        if order == 512:
            mem_min, _ = oracles.verify_membership(f_img, p.sigma, p.xi,
                                                   grid)
        k = oracles.k_combination(f_img, p.xi)
        residuals.append(oracles.verify_sharpness(k, p.sigma))
    decreasing = residuals[0] >= residuals[1] >= residuals[2]
    ok = (mem_min >= -1e-3 and residuals[-1] <= 1e-2 and decreasing)
    _report(6, "end-to-end sharpness (Komatu)", ok,
            f"beta = {beta:.12g}, membership min {mem_min:.3e}, "
            f"residuals {residuals[0]:.3e} -> {residuals[1]:.3e} -> "
            f"{residuals[2]:.3e}")


# ---------------------------------------------------------------------------
# 7. condition-checker coherence on hypothesis-satisfying instances

COHERENCE_INSTANCES = (
    kernels.make_kernel("komatu", c=0.0, delta=3.0),
    kernels.make_kernel("two_param_log", a=0.0, b=0.0),
    kernels.make_kernel("two_param_log", a=-0.5, b=0.0),
    kernels.make_kernel("generalized", A=1.0, B=1.0, C=4.0, x1=1.0),
)


def test_acceptance_7_condition_coherence():
    p = params.ParameterSet.from_mu_nu(1.0, 2.0, 0.1, 1.0)
    details = []
    ok = True
    for kernel in COHERENCE_INSTANCES:
        hyp = params.hypothesis_check(p, kernel)
        growth = certify.check_growth_condition(kernel, p)
        m_min = certify.run_certification(kernel, p).m_functional_min
        ok = ok and hyp.all_satisfied and growth >= 0.0 and m_min >= -1e-6
        details.append(f"{kernel.family}: growth {growth:.3g}, "
                       f"M_min {m_min:.3g}")
    _report(7, "condition coherence", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# 8. documented source discrepancies stay as recorded

def test_acceptance_8_recorded_discrepancies():
    # the printed series gives q(0) = 1, not the stated initial value 0
    q0 = oracles.q_series(params.ParameterSet.from_mu_nu(1.0, 2.0, 0.1), 0.0)

    # the implemented density (1+c) t^c has unit mass; the alternative
    # exponent c-1 does not normalize, so the moments pin the choice
    c = 1.0
    kernel = kernels.make_kernel("bernardi", c=c)
    tau = kernels.moment_sequence(kernel, 3)
    expected = np.array([(1.0 + c) / (n + c + 1.0) for n in (1, 2, 3)])
    mass_alt = (c + 1.0) / c  # integral of (c+1) t^{c-1}, off by 1/c
    moments_ok = bool(np.allclose(tau, expected, atol=1e-12))

    # the stated admissible range 0 <= k < 1 is never reached: for
    # mu <= nu and xi <= 1 the combination 1/xi + 2/mu - 1/nu exceeds 1
    k_max = -np.inf
    for mu in (0.5, 1.0, 2.0):
        for nu in (mu, 2.0 * mu, 5.0 * mu):
            for xi in (0.25, 0.5, 1.0):
                p = params.ParameterSet.from_mu_nu(mu, nu, 0.5, xi)
                k_max = max(k_max, 1.0 - params.combination_ratio(p))
    with pytest.raises(DomainError):
        kernels.make_kernel("ali_singh", k=k_max)

    ok = (abs(q0 - 1.0) <= 1e-12 and moments_ok
          and abs(mass_alt - 1.0) > 0.5 and k_max < 0.0)
    _report(8, "recorded discrepancies", ok,
            f"q(0) = {q0:.12g}, Bernardi moments match t^c density, "
            f"max admissible-combination k = {k_max:.3g} < 0")
