"""Independent reference routes, kept for the tests, the demos and
cross-checks.

No verdict runs anything here, and no other module of the package imports
this one, so ``import pascucert`` and every command load the verdict core
only.  The adaptive integrals import scipy.integrate when first called:
this module needs the ``test`` extra.

- Truncated power series on the unit disk (TruncatedSeries and its
  operations), and through them the series route to the membership margin
  and the sharpness residual.
- The profiles g, q and their combination G = (1-xi) g + xi (2q - 1) by
  three routes: the alternating series (running powers, binomial tail
  averaging near t = 1), the adaptive double integral, and a fixed 12 x 12
  tensor Gauss-Jacobi rule (after s = u**mu, w = v**nu the weights of
  G = 2 int int R(t u**mu v**nu) du dv - 1 are Jacobi weights), exact to
  double precision at every t in [0, 1], arrays of t at once.
- The generalized hypergeometric sum pfq, and through it the 5F4 form of
  G and the Hohlov a = 1 closed form beta = 1 - 1/(2(1 - 6F5(...; -1))).
  Its k-th 6F5 term is the k-th term of beta's moment series, so it sums
  the series route's terms a second time.
- The rational test kernel h_sigma of starlikeness of order sigma.
- The envelopes Lambda and Pi point by point by adaptive quadrature, and
  the duality functional and beta's integral from them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import auxfun, kernels, params as params_mod
from .auxfun import AuxContext, _rational_g, _rational_q, combined_rational
from .certify import DiskGrid, _effective_exponent, _winding_guard, \
    default_t_grid
from .errors import (ConvergenceFailure, DivergentSeries, DomainError,
                     ExtrapolationUnstable, LengthMismatch, PoleError,
                     QuadratureFailure, RadiusError, ZeroDenominator)
from .quadrature import ALTERNATING_TERMS, _BINOM8, _sub_power, \
    averaged_partial_sum, integrate_01

# Gauss-Jacobi nodes per variable of the rule for G(t)
_GQ_NODES = 12
_SERIES_TERMS = 3000
# a series stops once t**n times its largest coefficient falls below this
_SERIES_TINY = 1e-20
# entries per block of a term or node matrix, to bound its memory
_BLOCK = 1 << 17


# ---------------------------------------------------------------------------
# truncated power series
#
# Coefficients are stored densely from the constant term upward, so
# ``coeffs[n]`` multiplies z**n.  Normalized functions (members of the class
# A) have ``coeffs[0] == 0`` and ``coeffs[1] == 1``.  Every operation
# allocates a fresh series; instances are immutable by convention.

@dataclass(frozen=True)
class TruncatedSeries:
    """A polynomial truncation of an analytic function."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)
        if c.ndim != 1 or len(c) < 2:
            raise DomainError("need at least the constant and linear coefficients")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @property
    def normalized(self) -> bool:
        return (abs(self.coeffs[0]) < 1e-14
                and abs(self.coeffs[1] - 1.0) < 1e-14)


def from_coeffs(coeffs):
    return TruncatedSeries(np.asarray(coeffs, dtype=complex))


def hadamard(f: TruncatedSeries, g: TruncatedSeries) -> TruncatedSeries:
    """Coefficientwise (Hadamard) product, truncated to the shorter input."""
    n = min(len(f.coeffs), len(g.coeffs))
    return TruncatedSeries(f.coeffs[:n] * g.coeffs[:n])


def phi_kernel(mu: float, nu: float, order: int) -> TruncatedSeries:
    """1 + sum_n (n*mu+1)(n*nu+1)/(n+1) z**n."""
    if mu < 0 or nu < 0:
        raise DomainError("mu, nu must be nonnegative")
    if order < 2:
        raise DomainError("order must be at least 2")
    n = np.arange(order + 1, dtype=float)
    c = (n * mu + 1.0) * (n * nu + 1.0) / (n + 1.0)
    return TruncatedSeries(c.astype(complex))


def psi_kernel(mu: float, nu: float, order: int) -> TruncatedSeries:
    """Convolution inverse of phi_kernel: 1 + sum (n+1)/((n*mu+1)(n*nu+1)) z**n."""
    if mu < 0 or nu < 0:
        raise DomainError("mu, nu must be nonnegative")
    if order < 2:
        raise DomainError("order must be at least 2")
    n = np.arange(order + 1, dtype=float)
    c = (n + 1.0) / ((n * mu + 1.0) * (n * nu + 1.0))
    return TruncatedSeries(c.astype(complex))


def extremal_function(mu: float, nu: float, beta: float,
                      order: int) -> TruncatedSeries:
    """z + sum_{n>=1} 2(1-beta)/((n*mu+1)(n*nu+1)) z**(n+1).

    The boundary function of the class: every coefficient attains its
    extreme modulus simultaneously.
    """
    if beta >= 1.0:
        raise DomainError("beta must be < 1")
    n = np.arange(1, order, dtype=float)
    c = np.zeros(order + 1, dtype=complex)
    c[1] = 1.0
    c[2:] = 2.0 * (1.0 - beta) / ((n * mu + 1.0) * (n * nu + 1.0))
    return TruncatedSeries(c)


def apply_transform(f: TruncatedSeries, moments) -> TruncatedSeries:
    """Apply the weighted averaging transform through its moment multipliers.

    moments[n-1] must hold the n-th moment of the weight; the coefficient
    of z**(n+1) is scaled by it.  The linear coefficient is untouched.
    """
    if not f.normalized:
        raise DomainError("transform is defined on normalized functions")
    tau = np.asarray(moments, dtype=float)
    if len(tau) < f.order - 1:
        raise LengthMismatch(
            f"need {f.order - 1} moments, got {len(tau)}")
    c = f.coeffs.copy()
    c[2:] = c[2:] * tau[: f.order - 1]
    return TruncatedSeries(c)


def k_combination(f: TruncatedSeries, xi: float) -> TruncatedSeries:
    """xi*z*f' + (1-xi)*f: the coefficient of z**n picks up 1 + xi(n-1)."""
    if not 0.0 <= xi <= 1.0:
        raise DomainError("xi must lie in [0, 1]")
    n = np.arange(len(f.coeffs), dtype=float)
    scale = 1.0 + xi * (n - 1.0)
    return TruncatedSeries(f.coeffs * scale)


def z_derivative(f: TruncatedSeries) -> TruncatedSeries:
    """z f'(z): scales the n-th coefficient by n."""
    n = np.arange(len(f.coeffs), dtype=float)
    return TruncatedSeries(f.coeffs * n)


def _partial_sums(f: TruncatedSeries, z: complex) -> np.ndarray:
    terms = f.coeffs * z ** np.arange(len(f.coeffs))
    return np.cumsum(terms)


def evaluate(f: TruncatedSeries, z: complex) -> complex:
    """Evaluate the truncation at z with |z| < 1.

    Near the negative boundary the partial sums alternate slowly, so the
    last eight are averaged with binomial weights.
    """
    z = complex(z)
    if abs(z) >= 1.0:
        raise RadiusError(f"|z| = {abs(z)} >= 1")
    if abs(z) > 0.99 and z.real < 0.0:
        s = _partial_sums(f, z)
        return complex(np.dot(_BINOM8, s[-8:])) if len(s) >= 8 else s[-1]
    return complex(np.polynomial.polynomial.polyval(z, f.coeffs))


def evaluate_many(f: TruncatedSeries, z: np.ndarray) -> np.ndarray:
    """Vectorized direct evaluation (no boundary averaging)."""
    z = np.asarray(z, dtype=complex)
    if np.any(np.abs(z) >= 1.0):
        raise RadiusError("all points must satisfy |z| < 1")
    return np.polynomial.polynomial.polyval(z, f.coeffs)


def power_limit(h, values):
    """Limit as h -> 0 of values sampled at step sizes h.

    Fits the interpolating polynomial in h through all samples and returns
    its constant term (iterated Richardson extrapolation).
    """
    h = np.asarray(h, dtype=float)
    v = np.asarray(values)
    vander = np.vander(h, increasing=True)
    coeffs = np.linalg.solve(vander, v)
    return coeffs[0]


def verify_membership(f: TruncatedSeries, sigma: float, xi: float,
                      grid: DiskGrid = DiskGrid()):
    """min over the grid circle of Re(z K'(z)/K(z)) - sigma for
    K = xi z f' + (1-xi) f, the series route to the membership margin.

    Returns (min_margin, argmin_z); ZeroDenominator as in
    certify._winding_guard.
    """
    k = k_combination(f, xi)
    z = grid.boundary_points()
    kv = evaluate_many(k, z)
    _winding_guard(kv / z, z)
    margins = (evaluate_many(z_derivative(k), z) / kv).real - sigma
    i = int(np.argmin(margins))
    return float(margins[i]), complex(z[i])


def verify_sharpness(k: TruncatedSeries, sigma: float,
                     rhos=(0.9, 0.99, 0.999)) -> float:
    """|lim_{rho -> 1} Re(z K'/K at z = -rho) - sigma| by extrapolation."""
    zk = z_derivative(k)
    vals = []
    for rho in rhos:
        z = -rho
        kv = evaluate(k, z)
        if abs(kv) < 1e-12:
            raise ZeroDenominator(f"K vanishes near z = {z}", location=z)
        vals.append((evaluate(zk, z) / kv).real)
    h = [1.0 - r for r in rhos]
    est_prev = vals[-1]
    est_mid = power_limit(h[1:], vals[1:])
    est = power_limit(h, vals)
    if abs(est - est_mid) > 10.0 * abs(est_mid - est_prev) + 1e-9:
        raise ExtrapolationUnstable(
            f"estimates {est_prev!r}, {est_mid!r}, {est!r} diverge")
    return abs(est - sigma)


# ---------------------------------------------------------------------------
# the profiles g, q and G

def _check_unit(t):
    t = np.asarray(t)
    if not np.all((t >= 0.0) & (t <= 1.0)):
        raise DomainError("t must lie in [0, 1]")


def _series_sum(ctx: AuxContext, t, weight):
    """sum_n weight(n) * (-t)**n / ((1-sigma)(1+n mu)(1+n nu)) at every t.

    t is a scalar or an array; the result has its shape.  Each t sums
    the first N terms, N a power of two from 16 up, at least as many as
    t**n needs to fall below _SERIES_TINY over the largest coefficient,
    and at most _SERIES_TERMS.
    The powers (-t)**n are running products along each row.
    """
    t_arr = np.asarray(t, dtype=float)
    flat = t_arr.ravel()
    n = np.arange(_SERIES_TERMS, dtype=float)
    coef = weight(n) / ((1.0 - ctx.sigma)
                        * (1.0 + n * ctx.mu) * (1.0 + n * ctx.nu))
    with np.errstate(divide="ignore"):
        decay = -np.log(flat)
    need = math.log(max(1.0, np.max(np.abs(coef))) / _SERIES_TINY) \
        / np.maximum(decay, 1e-300)
    size = np.minimum(_SERIES_TERMS,
                      2.0 ** np.ceil(np.log2(np.clip(need, 16.0, 1e9))))
    out = np.empty_like(flat)
    # a set, not np.unique, which would import numpy.ma to rule out
    # masked input
    for terms in sorted(set(size.astype(int).tolist())):
        rows = np.flatnonzero(size == terms)
        for block in np.array_split(
                rows, 1 + len(rows) * terms // _BLOCK):
            powers = np.empty((len(block), terms))
            powers[:, 0] = 1.0
            powers[:, 1:] = -flat[block, None]
            np.cumprod(powers, axis=1, out=powers)
            out[block] = averaged_partial_sum(coef[:terms] * powers)
    return float(out[0]) if t_arr.ndim == 0 else out.reshape(t_arr.shape)


def g_series(ctx: AuxContext, t) -> float:
    """The starlike profile g(t) = G(t) at xi = 0 by its alternating
    series; g(0) = 1 and g decreases through 0."""
    _check_unit(t)
    return 2.0 * _series_sum(ctx, t, lambda n: n + 1.0 - ctx.sigma) - 1.0


def q_series(ctx: AuxContext, t) -> float:
    """The convex profile q(t) = (G(t) at xi = 1 + 1)/2 by its alternating
    series; q(0) = 1."""
    _check_unit(t)
    return _series_sum(ctx, t, lambda n: (n + 1.0) * (n + 1.0 - ctx.sigma))


def _double_integral(ctx: AuxContext, t: float, rat) -> float:
    """Smooth form of the double integral after s = u**mu, w = v**nu."""
    from scipy import integrate
    mu, nu, sg = ctx.mu, ctx.nu, ctx.sigma
    if mu > 0 and nu > 0:
        val, err = integrate.dblquad(
            lambda v, u: rat(u**mu * v**nu * t, sg),
            0.0, 1.0, 0.0, 1.0, epsabs=1e-11, epsrel=1e-11)
    else:
        alpha = nu if nu > 0 else mu
        if alpha <= 0:
            raise DomainError("need mu > 0 or nu > 0 for the integral form")
        val, err = integrate.quad(
            lambda u: rat(t * u**alpha, sg), 0.0, 1.0,
            epsabs=1e-12, epsrel=1e-12, limit=200)
    if err > 1e-8:
        raise ConvergenceFailure(f"integral form error estimate {err:g}")
    return val


def g_integral(ctx: AuxContext, t: float) -> float:
    """g(t) by the adaptive double integral."""
    return 2.0 * _double_integral(ctx, t, _rational_g) - 1.0


def q_integral(ctx: AuxContext, t: float) -> float:
    """q(t) by the adaptive double integral."""
    return _double_integral(ctx, t, _rational_q)


def gauss_jacobi_01(b, n):
    """The n-point Gauss rule for int_0^1 f(s) (b + 1) s**b ds, b > -1.

    Golub-Welsch: the nodes are the eigenvalues of the Jacobi matrix of
    the monic Jacobi polynomials P^(0, b) moved to (0, 1); the weights are
    the Christoffel numbers 1 / sum_k p_k(s)**2 of the orthonormal
    polynomials, from the same three-term recurrence, scaled to the unit
    mass of the weight.
    """
    k = np.arange(1.0, n)
    two_k = 2.0 * k + b
    diag = 0.5 + 0.5 * np.concatenate(
        [[b / (b + 2.0)], b * b / (two_k * (two_k + 2.0))])
    off = k * (k + b) / (two_k * np.sqrt((two_k + 1.0) * (two_k - 1.0)))
    jacobi = np.zeros((n, n))
    jacobi.flat[::n + 1] = diag
    # eigvalsh reads the lower triangle only
    jacobi.flat[n::n + 1] = off
    s = np.linalg.eigvalsh(jacobi)
    # p_{j+1} = ((s - diag_j) p_j - off_{j-1} p_{j-1}) / off_j, p_0 = 1
    step = (s - diag[:-1, None]) / off[:, None]
    back = off[:-1] / off[1:]
    p = np.empty((n, n))
    p[0] = 1.0
    p[1] = step[0]
    for j in range(1, n - 1):
        p[j + 1] = step[j] * p[j] - back[j - 1] * p[j - 1]
    w = 1.0 / np.einsum("ij,ij->j", p, p)
    return s, w / w.sum()


def gq_rule(ctx: AuxContext):
    """The tensor rule (x, W) with G(t) = 2 sum W R(t x) - 1.

    int_0^1 f(u**mu) du = int_0^1 f(s) s**(1/mu - 1)/mu ds is a Jacobi
    weight in s, so each variable takes the _GQ_NODES-point Gauss-Jacobi
    rule, a single node s = 1 at mu = 0; x = s w and W is the product of
    the weights.
    """
    (s, ws), (v, wv) = [(np.ones(1), np.ones(1)) if e == 0.0
                        else gauss_jacobi_01(1.0 / e - 1.0, _GQ_NODES)
                        for e in (ctx.mu, ctx.nu)]
    return np.outer(s, v).ravel(), np.outer(ws, wv).ravel()


def combined_gq(ctx: AuxContext, t, rule=None):
    """G(t) = (1-xi) g(t) + xi (2 q(t) - 1) = 2 sum W R(t x) - 1 by the
    tensor Gauss-Jacobi rule (x, W) = rule, gq_rule(ctx) when not given.

    t is a scalar or an array in [0, 1]; R is auxfun.combined_rational.
    At xi = 0 this is g, and at xi = 1 it is 2 q - 1.
    """
    _check_unit(t)
    x, w = gq_rule(ctx) if rule is None else rule
    t_arr = np.asarray(t, dtype=float)
    flat = t_arr.ravel()
    out = np.empty_like(flat)
    rows = _BLOCK // len(x)
    for i in range(0, len(flat), rows):
        vals = combined_rational(flat[i:i + rows, None] * x, ctx.sigma,
                                 ctx.xi)
        out[i:i + rows] = np.einsum("ij,j->i", vals, w)
    out = 2.0 * out - 1.0
    return float(out[0]) if t_arr.ndim == 0 else out.reshape(t_arr.shape)


def _is_nonpositive_int(x: float) -> bool:
    return x <= 1e-9 and abs(x - round(x)) < 1e-9


def pfq(numerator, denominator, x: float, max_terms: int = 50000) -> float:
    """Generalized hypergeometric sum pFq at a real argument in [-1, 1].

    Terminating (polynomial) cases are summed exactly.  At x = -1 the
    series stops after N = ALTERNATING_TERMS terms and averaged_partial_sum
    closes it; convergence there requires the parameter excess to exceed
    -1.  The k-th term is (-1)**k times a product of ratios (a)_k/(b)_k,
    each a Hausdorff moment sequence in k where b > a > 0 and a polynomial
    in k where a = b + 1, as in the 6F5 of the Hohlov closed form; so the
    average misses the sum by O(N**-8), below rounding at N = 256.
    Elsewhere the sum runs until a term is negligible, at most max_terms
    terms, closed by the same average for x < 0 and by an integral tail
    at x = 1.
    """
    num = [float(a) for a in numerator]
    den = [float(b) for b in denominator]
    for b in den:
        if _is_nonpositive_int(b):
            raise DomainError(f"denominator parameter {b} is a nonpositive integer")
    poly_k = None
    for a in num:
        if _is_nonpositive_int(a):
            k = int(-round(a))
            poly_k = k if poly_k is None else min(poly_k, k)
    p, q = len(num), len(den)
    if poly_k is None:
        if p > q + 1:
            raise DivergentSeries(f"{p}F{q} diverges for x != 0")
        if p == q + 1:
            if abs(x) > 1.0:
                raise DivergentSeries(f"|x| = {abs(x)} > 1 for {p}F{q}")
            if abs(x) == 1.0:
                excess = sum(den) - sum(num)
                if x > 0 and excess <= 0:
                    raise DivergentSeries(
                        f"parameter excess {excess:g} <= 0 at x = 1")
                if x < 0 and excess <= -1:
                    raise DivergentSeries(
                        f"parameter excess {excess:g} <= -1 at x = -1")

    # term_{k+1} = term_k * ratio_k and the partial sums, a block of k at
    # a time; cumprod and cumsum run in order, like the scalar recurrence
    if poly_k is not None:
        k_stop = poly_k
    elif x == -1.0:
        k_stop = ALTERNATING_TERMS - 1
    else:
        k_stop = max_terms
    term, total = 1.0, 0.0
    done = []  # term_0 .. term_k of the blocks so far, for the tail average
    k0, block = 0, 64
    while k0 <= k_stop:
        k = np.arange(k0, min(k0 + block, k_stop + 1), dtype=float)
        ratio = x / (k + 1.0)
        for a in num:
            ratio = ratio * (a + k)
        for b in den:
            ratio = ratio / (b + k)
        terms = np.cumprod(np.concatenate([[term], ratio]))
        sums = np.cumsum(np.concatenate([[total], terms[:-1]]))[1:]
        if poly_k is None:
            # stop after adding term_k once term_{k+1} is negligible, k > 10
            small = (k > 10) & (np.abs(terms[1:]) < 1e-15 * np.maximum(
                np.abs(sums), 1e-300))
            if small.any():
                i = int(np.argmax(small))
                return float(sums[i] + terms[i + 1])
        done.append(terms[:-1])
        term, total = terms[-1], sums[-1]
        k0 += len(k)
        block *= 2
    if poly_k is not None:
        return float(total)
    if x < 0:
        return float(averaged_partial_sum(np.concatenate(done)))
    if x == 1.0 and p == q + 1:
        # terms decay like C k**(-1-excess); close with the integral tail
        excess = sum(den) - sum(num)
        tail = term * (k_stop + 1.0) / excess
        if abs(tail) < 1e-5 * max(abs(total), 1e-300):
            return float(total + tail)
    raise ConvergenceFailure(
        f"{p}F{q} did not converge within {max_terms} terms at x = {x}")


def combined_gq_hypergeometric(ctx: AuxContext, t: float) -> float:
    """The same combination through its 5F4 closed form; needs xi > 0."""
    if ctx.xi <= 0.0:
        raise DomainError("the 5F4 form requires xi > 0")
    if ctx.mu <= 0 or ctx.nu <= 0:
        raise DomainError("the 5F4 form requires mu, nu > 0")
    inv_xi = 1.0 / ctx.xi
    num = [1.0, 1.0 / ctx.mu, 1.0 / ctx.nu, 2.0 - ctx.sigma, 1.0 + inv_xi]
    den = [1.0 + 1.0 / ctx.mu, 1.0 + 1.0 / ctx.nu, 1.0 - ctx.sigma, inv_xi]
    return 2.0 * pfq(num, den, -t) - 1.0


def h_sigma(ctx: AuxContext, z: complex) -> complex:
    """z (1 + A z) / (1 - z)^2 with A = (epsilon + 2 sigma - 1) / (2(1 - sigma))."""
    z = complex(z)
    if abs(1.0 - z) < 1e-9:
        raise PoleError("h_sigma has a second-order pole at z = 1")
    a = auxfun.duality_slope(complex(ctx.epsilon), ctx.sigma)
    return z * (1.0 + a * z) / (1.0 - z) ** 2


def h_sigma_prime(ctx: AuxContext, z: complex) -> complex:
    """Derivative of h_sigma: (1 + (1 + 2A) z) / (1 - z)^3."""
    z = complex(z)
    if abs(1.0 - z) < 1e-9:
        raise PoleError("h_sigma' has a third-order pole at z = 1")
    a = auxfun.duality_slope(complex(ctx.epsilon), ctx.sigma)
    return (1.0 + (1.0 + 2.0 * a) * z) / (1.0 - z) ** 3


# ---------------------------------------------------------------------------
# adaptive envelopes, beta's integral and the duality functional

def integrate_t1(f, t0, right_exponent=0.0, epsabs=1e-10,
                 f_complement=None):
    """Integrate f over (t0, 1) for t0 in (0, 1] by scipy.integrate.quad.

    Uses x = exp(-y) so that algebraic behaviour at x -> 0 becomes an
    exponential tail, then a power substitution at y = 0 for the (1-x)**q
    endpoint.  f_complement(d) = f(1 - d), as in integrate_01, keeps
    singular right endpoints accurate; it is called where x > 1/2, and f
    below, so t0 may lie below machine epsilon.
    """
    if t0 >= 1.0:
        return 0.0
    if t0 <= 0.0:
        raise QuadratureFailure("lower endpoint must be positive")
    from scipy import integrate
    y_max = -math.log(t0)
    mr = _sub_power(right_exponent)

    def g(v):
        y = v**mr
        x = math.exp(-y)
        # d = 1 - x rounds to 1 for y > 37: f_complement only where x > 1/2
        if f_complement is not None and y < math.log(2.0):
            fx = f_complement(-math.expm1(-y))
        else:
            fx = f(x)
        return fx * x * mr * v ** (mr - 1)

    val, err = integrate.quad(g, 0.0, y_max ** (1.0 / mr),
                              epsabs=epsabs, epsrel=1e-12, limit=200)
    if err > max(100.0 * epsabs, 1e-8 * abs(val)):
        raise QuadratureFailure("tolerance not reached", residual=err)
    return val


def lambda_envelope(kernel: kernels.KernelSpec, nu: float, t: float) -> float:
    """Lambda_nu(t) = int_t^1 lambda(x) x**(-1/nu) dx; zero at t = 1."""
    if nu <= 0.0:
        raise DomainError("nu must be positive")
    if not 0.0 < t <= 1.0:
        raise DomainError("t must lie in (0, 1]")
    if t == 1.0:
        return 0.0
    _, q = kernels.endpoint_exponents(kernel)
    inv = 1.0 / nu
    return integrate_t1(
        lambda x: kernels.density(kernel, x) * x**-inv, t, right_exponent=q,
        f_complement=lambda d: kernels.density_complement(kernel, d)
        * (1.0 - d)**-inv)


def pi_envelope(kernel: kernels.KernelSpec, mu: float, nu: float,
                t: float) -> float:
    """Pi_{mu,nu}(t) = int_t^1 Lambda_nu(x) x**(1/nu - 1 - 1/mu) dx.

    Computed by swapping the integration order into a single integral
    against the density; for mu = 0 the envelope degenerates to
    Lambda_nu itself.
    """
    if mu == 0.0:
        return lambda_envelope(kernel, nu, t)
    if mu < 0.0 or nu <= 0.0:
        raise DomainError("need mu >= 0 and nu > 0")
    if not 0.0 < t <= 1.0:
        raise DomainError("t must lie in (0, 1]")
    if t == 1.0:
        return 0.0
    _, q = kernels.endpoint_exponents(kernel)
    d = 1.0 / nu - 1.0 / mu
    inv_nu = 1.0 / nu
    if abs(d) < 1e-12:
        def weight(y):
            return y**-inv_nu * math.log(y / t)
    else:
        td = t**d

        def weight(y):
            return y**-inv_nu * (y**d - td) / d

    return integrate_t1(
        lambda y: kernels.density(kernel, y) * weight(y), t,
        right_exponent=q,
        f_complement=lambda dd: kernels.density_complement(kernel, dd)
        * weight(1.0 - dd))


def beta_quadrature_route(kernel: kernels.KernelSpec,
                          params: params_mod.ParameterSet) -> float:
    """I = int lambda(t) [(1-xi) g(t) + xi (2 q(t) - 1)] dt by adaptive
    quadrature, each refinement round on one array of nodes; the profile's
    Gauss-Jacobi rule is built once for all rounds."""
    ctx = AuxContext(params.mu, params.nu, params.sigma, params.xi)
    rule = gq_rule(ctx)
    pl, pr = kernels.endpoint_exponents(kernel)
    return integrate_01(
        lambda t: kernels.density(kernel, t) * combined_gq(ctx, t, rule),
        pl, pr, epsabs=1e-10,
        f_complement=lambda d: kernels.density_complement(kernel, d)
        * combined_gq(ctx, 1.0 - d, rule))


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
    f_val = pfq(num, den, -1.0)
    return 1.0 - 1.0 / (2.0 * (1.0 - f_val))


def m_functional_direct(kernel: kernels.KernelSpec,
                        params: params_mod.ParameterSet,
                        z: complex, epsilon: complex,
                        epsabs: float = 1e-8) -> float:
    """The duality functional by adaptive quadrature (slow).

    Every node takes its own adaptive scipy.integrate.quad Pi envelope
    (pi_envelope) instead of the grid envelopes.
    """
    expo = _effective_exponent(params)
    ctx = AuxContext(params.mu, params.nu, params.sigma, params.xi, epsilon)
    _, q = kernels.endpoint_exponents(kernel)

    def f(t):
        pi_vals = [pi_envelope(kernel, params.mu, params.nu, x) for x in t]
        return t ** (expo - 1.0) * np.array(pi_vals) \
            * auxfun.l_integrand(ctx, z, t)

    return integrate_01(f, expo - 1.0, q + 1.0, epsabs=epsabs)


def phi_t_monotonicity_probe(a_values, b: float,
                             params: params_mod.ParameterSet) -> bool:
    """Check phi_t(a) >= phi_t(b) for sampled a <= b in (-1, 0], at 64
    Chebyshev points t.

    phi_t(a) = a(a-1) t**a log(1/t)
               - a ((1/xi + 2/mu - 1/nu - 2) log(1/t) + (1 - 2 sigma)) t**a.
    """
    t = default_t_grid(64)
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
