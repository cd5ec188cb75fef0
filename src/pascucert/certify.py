"""Sharp-bound solvers, sufficient-condition checkers, and certification.

The lower bound beta is solved in closed form from the weighted average of
the combined profile: with I = int lambda(t) [(1-xi) g + xi (2q - 1)] dt
the relation beta/(1-beta) = -I gives beta = I/(I-1).  The same quantity
is recomputed from the moment series as an independent route; the two must
agree to 1e-7.

The duality functional M integrates t**(1/mu - 1) Pi(t) against the real
integrand L over the weight interval.  By Ruscheweyh duality M is affine
in the unimodular epsilon, M = P + Re(A(epsilon) Q), so its minimum over
|epsilon| = 1 is taken in closed form at each z; for fixed epsilon M is
harmonic in z, so the minimum over the disk lies on the outermost circle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from . import auxfun, kernels, params as params_mod, series
from .errors import (DomainError, ExtrapolationUnstable, NotApplicable,
                     RepresentationMismatch, ZeroDenominator)
from .quadrature import (averaged_partial_sum, chebyshev_grid, gauss_panels,
                         integrate_01, power_limit)

DEFAULT_ORDER = 512
BETA_ROUTE_TOL = 1e-7


@dataclass(frozen=True)
class DiskGrid:
    """Sampling plan for the disk: concentric circles of equal angles."""

    radii: tuple = (0.5, 0.9, 0.99, 0.999)
    angles: int = 256

    def __post_init__(self):
        r = self.radii
        if not r or any(b <= a for a, b in zip(r, r[1:])):
            raise DomainError("radii must be strictly increasing")
        if not 0.0 < r[-1] < 1.0:
            raise DomainError("radii must lie in (0, 1)")
        if self.angles < 4:
            raise DomainError("need at least 4 angles")

    def theta(self) -> np.ndarray:
        return 2.0 * np.pi * np.arange(self.angles) / self.angles

    def z_points(self) -> np.ndarray:
        ring = np.exp(1j * self.theta())
        return np.concatenate([r * ring for r in self.radii])

    def boundary_points(self) -> np.ndarray:
        """The outermost circle, where minima of harmonic functions lie."""
        return self.radii[-1] * np.exp(1j * self.theta())


def default_t_grid(n: int = 512) -> np.ndarray:
    """Chebyshev-spaced points on (0.001, 0.999) for condition checks."""
    return chebyshev_grid(0.001, 0.999, n)


def _effective_exponent(params: params_mod.ParameterSet) -> float:
    mu = params.mu if params.mu > 0 else params.nu
    if mu <= 0:
        raise DomainError("need mu > 0 or nu > 0")
    return 1.0 / mu


def beta_from_integral(i_value: float) -> float:
    """Solve beta/(1-beta) = -I for beta < 1."""
    if abs(i_value - 1.0) < 1e-12:
        raise DomainError("beta is unbounded when the weighted average is 1")
    return i_value / (i_value - 1.0)


def beta_quadrature_route(kernel: kernels.KernelSpec,
                          params: params_mod.ParameterSet,
                          epsabs: float = 1e-10) -> float:
    """I = int lambda(t) [(1-xi) g(t) + xi (2 q(t) - 1)] dt by quadrature,
    each refinement round on one array of nodes."""
    ctx = auxfun.AuxContext(params.mu, params.nu, params.sigma, params.xi)
    pl, pr = kernels.endpoint_exponents(kernel)
    return integrate_01(
        lambda t: kernels.density(kernel, t) * auxfun.combined_gq(ctx, t),
        pl, pr, epsabs=epsabs,
        f_complement=lambda d: kernels.density_complement(kernel, d)
        * auxfun.combined_gq(ctx, 1.0 - d))


def beta_series_route(kernel: kernels.KernelSpec,
                      params: params_mod.ParameterSet) -> float:
    """The same I from the alternating moment series."""
    nmax = 20000
    tau = kernels.moment_sequence(kernel, nmax)
    n = np.arange(1, nmax + 1, dtype=float)
    mu, nu, sg, xi = params.mu, params.nu, params.sigma, params.xi
    b = (1.0 + xi * n) * (n + 1.0 - sg) * tau \
        / ((1.0 - sg) * (1.0 + mu * n) * (1.0 + nu * n))
    terms = 2.0 * (-1.0) ** n * b
    return 1.0 + float(averaged_partial_sum(terms))


class BetaRoutes(NamedTuple):
    """beta from the quadrature route and from the moment-series route."""

    quadrature: float
    series: float

    @property
    def agree(self) -> bool:
        return abs(self.quadrature - self.series) <= BETA_ROUTE_TOL

    def sharp(self) -> float:
        """The quadrature beta; RepresentationMismatch if the routes differ."""
        if not self.agree:
            raise RepresentationMismatch(
                f"beta routes disagree: quadrature {self.quadrature!r} vs "
                f"series {self.series!r}")
        return self.quadrature


def beta_routes(kernel: kernels.KernelSpec,
                params: params_mod.ParameterSet) -> BetaRoutes:
    """beta = I/(I-1) from both routes to I.

    The series runs first: beta scales an error in I by 1/(1 - I)**2, so
    the quadrature is asked for I to min(1e-10, 1e-8 (1 - I)**2).
    """
    i_series = beta_series_route(kernel, params)
    i_quad = beta_quadrature_route(
        kernel, params, epsabs=min(1e-10, 1e-8 * (1.0 - i_series) ** 2))
    return BetaRoutes(beta_from_integral(i_quad),
                      beta_from_integral(i_series))


def beta_sharp(kernel: kernels.KernelSpec,
               params: params_mod.ParameterSet) -> float:
    """The sharp lower bound beta, cross-validated over both routes."""
    return beta_routes(kernel, params).sharp()


def beta_closed_form(kernel: kernels.KernelSpec,
                     params: params_mod.ParameterSet) -> Optional[float]:
    """beta_0 in closed form where one is known (Hohlov a = 1, xi > 0)."""
    if kernel.family != kernels.HOHLOV or kernel.p["a"] != 1.0 \
            or params.xi <= 0.0:
        return None
    return beta0_hohlov_closed_form(params, kernel.p["b"], kernel.p["c"])


def beta0_hohlov_closed_form(params: params_mod.ParameterSet,
                             b: float, c: float) -> float:
    """beta_0 = 1 - 1/(2(1 - 6F5(...; -1))) for the a = 1 beta-type kernel."""
    if params.xi <= 0.0:
        raise DomainError("the closed form requires xi > 0")
    if params.mu <= 0.0 or params.nu <= 0.0:
        raise DomainError("the closed form requires mu, nu > 0")
    inv_xi = 1.0 / params.xi
    num = [1.0, b, 1.0 / params.mu, 1.0 / params.nu,
           2.0 - params.sigma, 1.0 + inv_xi]
    den = [c, 1.0 + 1.0 / params.mu, 1.0 + 1.0 / params.nu,
           1.0 - params.sigma, inv_xi]
    f_val = auxfun.pfq(num, den, -1.0)
    return 1.0 - 1.0 / (2.0 * (1.0 - f_val))


# ---------------------------------------------------------------------------
# duality functional

_M_PANEL_EDGES = (0.0, 0.1, 0.3, 0.5, 0.7, 0.85, 0.93, 0.97, 0.99,
                  0.997, 0.999, 0.9997, 0.9999, 1.0)
_M_PANEL_NODES = 24

def _m_nodes(kernel: kernels.KernelSpec, params: params_mod.ParameterSet):
    """Quadrature nodes t and weights W = w * t**(1/mu - 1) * Pi(t).

    Substitutes t = u**m with m = max(1, 2 mu) so the endpoint factor is
    regular, then composite Gauss-Legendre with panels crowding t -> 1.
    """
    expo = _effective_exponent(params)
    m = max(1.0, 2.0 / expo)
    u, wu = gauss_panels(np.asarray(_M_PANEL_EDGES), _M_PANEL_NODES)
    t = u**m
    # t**(expo-1) dt = m u**(m expo - 1) du, assembled jointly to dodge the
    # singular split
    pref = wu * m * u ** (m * expo - 1.0)
    _, pi_vals = kernels.envelopes(kernel, params.mu, params.nu, t)
    return t, pref * pi_vals


def _pq_profiles(kernel, params, z_points):
    """P(z) and complex Q(z) with M(z, eps) = P + Re(A(eps) Q)."""
    t, w = _m_nodes(kernel, params)
    sg, xi = params.sigma, params.xi
    c1 = auxfun._rational_g(t, sg)
    c2 = auxfun._rational_q(t, sg)
    z = np.asarray(z_points, dtype=complex).reshape(-1, 1)
    tz = z * t
    inv1 = 1.0 / (1.0 - tz) ** 2
    inv2 = inv1 / (1.0 - tz)
    base = (1.0 - xi) * (inv1.real - c1) + xi * (((1.0 + tz) * inv2).real - c2)
    p = base @ w
    qc = ((1.0 - xi) * (tz * inv1) + xi * (2.0 * tz * inv2)) @ w
    return p, qc


def _eps_slope(eps, sigma):
    return (eps + 2.0 * sigma - 1.0) / (2.0 * (1.0 - sigma))


def m_functional(kernel: kernels.KernelSpec, params: params_mod.ParameterSet,
                 z: complex, epsilon: complex) -> float:
    """The duality functional at one (z, epsilon), via the cached nodes."""
    p, qc = _pq_profiles(kernel, params, [z])
    a = _eps_slope(complex(epsilon), params.sigma)
    return float(p[0] + (a * qc[0]).real)


def m_functional_direct(kernel: kernels.KernelSpec,
                        params: params_mod.ParameterSet,
                        z: complex, epsilon: complex,
                        epsabs: float = 1e-8) -> float:
    """Independent adaptive-quadrature route (slow; used for cross-checks).

    Every node takes its own adaptive scipy.integrate.quad Pi envelope
    (kernels.pi_envelope) instead of the grid envelopes.
    """
    expo = _effective_exponent(params)
    ctx = auxfun.AuxContext(params.mu, params.nu, params.sigma, params.xi,
                            epsilon)
    _, q = kernels.endpoint_exponents(kernel)

    def f(t):
        pi_vals = [kernels.pi_envelope(kernel, params.mu, params.nu, x)
                   for x in t]
        return t ** (expo - 1.0) * np.array(pi_vals) \
            * auxfun.l_integrand(ctx, z, t)

    return integrate_01(f, expo - 1.0, q + 1.0, epsabs=epsabs)


def m_functional_min(kernel: kernels.KernelSpec,
                     params: params_mod.ParameterSet,
                     grid: DiskGrid = DiskGrid()):
    """Minimum of the duality functional over the disk and |epsilon| = 1.

    With A(eps) = (eps + 2 sigma - 1)/(2(1 - sigma)), M = P + Re(A Q) has
    the exact minimum P + ((2 sigma - 1) Re Q - |Q|)/(2(1 - sigma)) over
    the epsilon circle, attained at eps = -conj(Q)/|Q|.  For fixed eps M
    is harmonic in z, so its minimum over |z| <= r lies on |z| = r: only
    the outermost circle of the grid is evaluated.  Returns
    (min, argmin_z, argmin_epsilon).
    """
    z = grid.boundary_points()
    p, qc = _pq_profiles(kernel, params, z)
    sg = params.sigma
    m = p + ((2.0 * sg - 1.0) * qc.real - np.abs(qc)) / (2.0 * (1.0 - sg))
    i = int(np.argmin(m))
    return float(m[i]), complex(z[i]), complex(-np.conj(qc[i]) / abs(qc[i]))


# ---------------------------------------------------------------------------
# sufficient conditions

def check_monotone_condition(kernel: kernels.KernelSpec,
                             params: params_mod.ParameterSet,
                             t_grid=None) -> float:
    """Minimum slope of the weighted-envelope expression; >= 0 means the
    monotonicity sufficient condition holds on the grid.

    The t-derivative of t**(1/mu - 1/xi) Pi is expanded with
    Pi' = -Lambda_nu(t) t**(1/nu - 1 - 1/mu), collapsing the expression to
    ((xi/mu - 1) Pi - xi t**(1/nu - 1/mu) Lambda) / log(1/t)**(1 + 2 sigma).
    """
    if params.xi <= 0.0:
        raise NotApplicable("the monotone condition degenerates at xi = 0")
    if params.mu < 1.0:
        raise DomainError("requires mu >= 1")
    if t_grid is None:
        t_grid = default_t_grid(257)
    t = np.asarray(t_grid, dtype=float)
    lam_vals, pi_vals = kernels.envelopes(kernel, params.mu, params.nu, t)
    expr = _monotone_curve(params, t, lam_vals, pi_vals)
    return float(np.min(np.diff(expr) / np.diff(t)))


def _monotone_curve(params, t, lam_vals, pi_vals):
    """The monotone expression at every t, from the envelopes there."""
    mu, nu, sg, xi = params.mu, params.nu, params.sigma, params.xi
    return ((xi / mu - 1.0) * pi_vals
            - xi * t ** (1.0 / nu - 1.0 / mu) * lam_vals) \
        / (-np.log(t)) ** (1.0 + 2.0 * sg)


def check_growth_condition(kernel: kernels.KernelSpec,
                           params: params_mod.ParameterSet,
                           t_grid=None) -> float:
    """Margin of the density-growth sufficient condition on the grid.

    The underlying inequality is
    xi t log(1/t) lambda'' - ((1 - 2 xi + 2 xi/mu - xi/nu) log(1/t)
    + xi (1 - 2 sigma)) lambda' >= 0; dividing by xi log(1/t) |lambda'|
    gives the ratio form t lambda''/lambda' - rhs, with the inequality
    direction set by the sign of lambda'.  The signed margin returned here
    is that normalized quantity, so >= 0 certifies the condition whether
    the density is increasing or decreasing.
    """
    if params.xi <= 0.0:
        raise NotApplicable("the growth condition degenerates at xi = 0")
    if params.mu < 1.0:
        raise DomainError("requires mu >= 1")
    if params.gamma <= 0.0:
        raise DomainError("requires gamma > 0")
    if t_grid is None:
        t_grid = default_t_grid(257)
    return float(np.min(_growth_curve(kernel, params, t_grid)))


def _growth_curve(kernel, params, t):
    """The signed growth margin at every t, from one evaluation of the
    density derivatives; raises CriticalPoint where lambda' vanishes."""
    t = np.asarray(t, dtype=float)
    ratio, sign = kernels.slope_profile(kernel, t)
    base = (1.0 / params.xi - 2.0 + 2.0 / params.mu - 1.0 / params.nu)
    rhs = base + (1.0 - 2.0 * params.sigma) / (-np.log(t))
    return (ratio - rhs) * sign


def condition_margins(kernel: kernels.KernelSpec,
                      params: params_mod.ParameterSet):
    """The monotone and growth margins and the family's hypothesis audit.

    Returns (margins, hypothesis_report).  A margin is None where its
    condition does not apply (NotApplicable, DomainError); any other error
    of a checker propagates.  The report is None for families without a
    theorem.
    """
    margins = {}
    for name, checker in (("monotone", check_monotone_condition),
                          ("growth", check_growth_condition)):
        try:
            margins[name] = checker(kernel, params)
        except (NotApplicable, DomainError):
            margins[name] = None
    theorem = params_mod.theorem_for_family(kernel.family)
    if theorem is None:
        return margins, None
    return margins, params_mod.hypothesis_check(theorem, params, kernel)


def phi_t_monotonicity_probe(a_values, b: float,
                             params: params_mod.ParameterSet,
                             t_grid=None) -> bool:
    """Check phi_t(a) >= phi_t(b) for sampled a <= b in (-1, 0].

    phi_t(a) = a(a-1) t**a log(1/t)
               - a ((1/xi + 2/mu - 1/nu - 2) log(1/t) + (1 - 2 sigma)) t**a.
    """
    if t_grid is None:
        t_grid = default_t_grid(64)
    t = np.asarray(t_grid, dtype=float)
    ln = -np.log(t)
    ratio2 = params_mod.combination_ratio(params) - 2.0
    shift = 1.0 - 2.0 * params.sigma

    def phi(a):
        return a * (a - 1.0) * t**a * ln - a * (ratio2 * ln + shift) * t**a

    pb = phi(float(b))
    for a in a_values:
        a = float(a)
        if a > b:
            continue
        if np.any(phi(a) < pb - 1e-12):
            return False
    return True


# ---------------------------------------------------------------------------
# membership and sharpness on truncations

def verify_membership(f: series.TruncatedSeries, sigma: float, xi: float,
                      grid: DiskGrid = DiskGrid()):
    """min over the grid of Re(z K'(z)/K(z)) - sigma for K = xi z f' + (1-xi) f.

    Returns (min_margin, argmin_z); raises ZeroDenominator if K vanishes
    on the grid.
    """
    k = series.k_combination(f, xi)
    zk = series.z_derivative(k)
    z = grid.z_points()
    kv = series.evaluate_many(k, z)
    zkv = series.evaluate_many(zk, z)
    bad = np.abs(kv) < 1e-12
    if np.any(bad):
        loc = complex(z[np.argmax(bad)])
        raise ZeroDenominator(f"K vanishes near z = {loc}", location=loc)
    margins = (zkv / kv).real - sigma
    i = int(np.argmin(margins))
    return float(margins[i]), complex(z[i])


def verify_sharpness(k: series.TruncatedSeries, sigma: float,
                     rhos=(0.9, 0.99, 0.999)) -> float:
    """|lim_{rho -> 1} Re(z K'/K at z = -rho) - sigma| by extrapolation."""
    zk = series.z_derivative(k)
    vals = []
    for rho in rhos:
        z = -rho
        kv = series.evaluate(k, z)
        if abs(kv) < 1e-12:
            raise ZeroDenominator(f"K vanishes near z = {z}", location=z)
        vals.append((series.evaluate(zk, z) / kv).real)
    h = [1.0 - r for r in rhos]
    est_prev = vals[-1]
    est_mid = power_limit(h[1:], vals[1:])
    est = power_limit(h, vals)
    if abs(est - est_mid) > 10.0 * abs(est_mid - est_prev) + 1e-9:
        raise ExtrapolationUnstable(
            f"estimates {est_prev!r}, {est_mid!r}, {est!r} diverge")
    return abs(est - sigma)


# ---------------------------------------------------------------------------
# end-to-end certification

@dataclass
class CertificationReport:
    """Per-theorem verdicts for one kernel and parameter set."""

    params: params_mod.ParameterSet
    kernel: kernels.KernelSpec
    beta_integral: float
    beta_series: float
    beta_closed_form: Optional[float]
    m_functional_min: float
    m_argmin_z: complex
    m_argmin_eps: complex
    condition_margins: dict
    membership_min: float
    membership_argmin: complex
    sharpness_residual: float
    decay_ok: bool
    hypothesis_report: Optional[params_mod.HypothesisReport]
    curves: dict = field(default_factory=dict, repr=False)

    def passed(self, tol_functional=1e-6, tol_membership=1e-3,
               tol_sharpness=1e-2) -> bool:
        ok = (abs(self.beta_integral - self.beta_series) <= BETA_ROUTE_TOL
              and self.m_functional_min >= -tol_functional
              and self.membership_min >= -tol_membership
              and self.sharpness_residual <= tol_sharpness
              and self.decay_ok)
        if self.hypothesis_report is not None \
                and self.hypothesis_report.all_satisfied:
            growth = self.condition_margins.get("growth")
            ok = ok and (growth is None or growth >= 0.0)
        return ok

    def to_dict(self) -> dict:
        p = self.params
        hyp = None
        if self.hypothesis_report is not None:
            hyp = {
                "theorem": self.hypothesis_report.theorem,
                "all_satisfied": self.hypothesis_report.all_satisfied,
                "hypotheses": [
                    {"name": h.name, "satisfied": h.satisfied,
                     "margin": h.margin}
                    for h in self.hypothesis_report.hypotheses],
            }
        return {
            "schema_version": 1,
            "kernel": self.kernel.text(),
            "params": {
                "alpha": p.alpha, "gamma": p.gamma,
                "mu": p.mu, "nu": p.nu,
                "sigma": p.sigma, "xi": p.xi,
                "beta": self.beta_integral,
            },
            "beta": {
                "integral": self.beta_integral,
                "series": self.beta_series,
                "closed_form": self.beta_closed_form,
            },
            "m_functional": {
                "min": self.m_functional_min,
                "argmin_z": [self.m_argmin_z.real, self.m_argmin_z.imag],
                "argmin_eps": [self.m_argmin_eps.real, self.m_argmin_eps.imag],
            },
            "condition_margins": dict(self.condition_margins),
            "membership": {
                "min_margin": self.membership_min,
                "argmin_z": [self.membership_argmin.real,
                             self.membership_argmin.imag],
            },
            "sharpness_residual": self.sharpness_residual,
            "boundary_decay_ok": self.decay_ok,
            "hypothesis_check": hyp,
            "passed": self.passed(),
        }


def run_certification(kernel: kernels.KernelSpec,
                      params: params_mod.ParameterSet,
                      grid: DiskGrid = DiskGrid(),
                      order: int = DEFAULT_ORDER,
                      with_curves: bool = False) -> CertificationReport:
    """Full pipeline: beta, duality functional, conditions, sharpness."""
    beta = beta_routes(kernel, params)
    beta_q = beta.sharp()
    beta_closed = beta_closed_form(kernel, params)

    decay = kernels.boundary_decay_check(kernel, params.mu, params.nu)
    m_min, argmin_z, argmin_eps = m_functional_min(kernel, params, grid)

    margins, hyp_report = condition_margins(kernel, params)
    if hyp_report is not None:
        margins[f"hypotheses_{hyp_report.theorem}"] = hyp_report.min_margin

    f_ext = series.extremal_function(params.mu, params.nu, beta_q, order)
    tau = kernels.moment_sequence(kernel, order - 1)
    f_img = series.apply_transform(f_ext, tau)
    mem_min, mem_argmin = verify_membership(f_img, params.sigma, params.xi,
                                            grid)
    k_comb = series.k_combination(f_img, params.xi)
    residual = verify_sharpness(k_comb, params.sigma)

    curves: dict = {}
    if with_curves:
        curves = _report_curves(kernel, params, argmin_z, argmin_eps,
                                f_img, grid)

    return CertificationReport(
        params=params.with_beta(beta_q),
        kernel=kernel,
        beta_integral=beta_q,
        beta_series=beta.series,
        beta_closed_form=beta_closed,
        m_functional_min=m_min,
        m_argmin_z=argmin_z,
        m_argmin_eps=argmin_eps,
        condition_margins=margins,
        membership_min=mem_min,
        membership_argmin=mem_argmin,
        sharpness_residual=residual,
        decay_ok=bool(decay),
        hypothesis_report=hyp_report,
        curves=curves,
    )


def _report_curves(kernel, params, argmin_z, argmin_eps, f_img, grid):
    t = chebyshev_grid(0.01, 0.99, 129)
    lam_vals, pi_vals = kernels.envelopes(kernel, params.mu, params.nu, t)
    ctx = auxfun.AuxContext(params.mu, params.nu, params.sigma, params.xi,
                            argmin_eps)
    l_vals = auxfun.l_integrand(ctx, argmin_z, t)
    growth = np.full_like(t, np.nan)
    if params.xi > 0.0 and params.mu >= 1.0 and params.gamma > 0.0:
        growth = _growth_curve(kernel, params, t)
    monotone = np.full_like(t, np.nan)
    if params.xi > 0.0 and params.mu >= 1.0:
        monotone = _monotone_curve(params, t, lam_vals, pi_vals)

    k = series.k_combination(f_img, params.xi)
    zk = series.z_derivative(k)
    theta = grid.theta()
    z = grid.boundary_points()
    ratio = (series.evaluate_many(zk, z)
             / series.evaluate_many(k, z)).real
    return {
        "t": t, "pi": pi_vals, "l_at_argmin": l_vals,
        "growth_margin": growth, "monotone_expression": monotone,
        "theta": theta, "re_zkprime_over_k": ratio,
    }
