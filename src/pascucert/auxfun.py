"""Analytic machinery for the duality criterion.

The two auxiliary profiles g and q solve first-order initial value
problems on (0, 1); both have an alternating power series and an
equivalent smooth double-integral form.  Their combination
G = (1-xi) g + xi (2q - 1) is 2 int int R(t u**mu v**nu) du dv - 1 with R
rational, its only pole at -1.  After s = u**mu, w = v**nu the weights
are Jacobi weights, so a fixed 12 x 12 tensor Gauss-Jacobi rule gives G,
g and q to double precision at every t in [0, 1], arrays of t at once.
A certification reads R itself (combined_rational) on the duality
functional's nodes; G and its routes are oracles: the rule, the series
(running powers, binomial tail averaging near t = 1) and the adaptive
integral, the only place here that loads scipy.integrate.  h_sigma is the
rational test kernel of starlikeness of order sigma, carrying a free
unimodular parameter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (ConvergenceFailure, DivergentSeries, DomainError,
                     PoleError)
from .quadrature import (ALTERNATING_TERMS, averaged_partial_sum,
                         gauss_jacobi_01)

# Gauss-Jacobi nodes per variable of the rule for G(t)
_GQ_NODES = 12
_SERIES_TERMS = 3000
# a series stops once t**n times its largest coefficient falls below this
_SERIES_TINY = 1e-20
# entries per block of a term or node matrix, to bound its memory
_BLOCK = 1 << 17


@dataclass(frozen=True)
class AuxContext:
    """Scalar configuration shared by all auxiliary evaluations."""

    mu: float
    nu: float
    sigma: float = 0.0
    xi: float = 0.0
    epsilon: complex = 1.0 + 0.0j

    def __post_init__(self):
        if self.mu < 0 or self.nu < 0:
            raise DomainError("mu, nu must be nonnegative")
        if not 0.0 <= self.sigma < 1.0:
            raise DomainError("sigma must lie in [0, 1)")
        if not 0.0 <= self.xi <= 1.0:
            raise DomainError("xi must lie in [0, 1]")
        if abs(abs(complex(self.epsilon)) - 1.0) > 1e-12:
            raise DomainError("epsilon must be unimodular")


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


def g_value(ctx: AuxContext, t: float, method: str = "auto") -> float:
    """The starlike profile g(t) = G(t) at xi = 0; g(0) = 1 and g
    decreases through 0."""
    _check_unit(t)
    if method == "auto":
        return combined_gq(replace(ctx, xi=0.0), t)
    if method == "series":
        s = _series_sum(ctx, t, lambda n: n + 1.0 - ctx.sigma)
        return 2.0 * s - 1.0
    if method == "integral":
        return g_integral(ctx, t)
    raise DomainError(f"unknown method {method!r}")


def q_value(ctx: AuxContext, t: float, method: str = "auto") -> float:
    """The convex profile q(t) = (G(t) at xi = 1 + 1)/2; q(0) = 1."""
    _check_unit(t)
    if method == "auto":
        return 0.5 * (combined_gq(replace(ctx, xi=1.0), t) + 1.0)
    if method == "series":
        return _series_sum(ctx, t, lambda n: (n + 1.0) * (n + 1.0 - ctx.sigma))
    if method == "integral":
        return q_integral(ctx, t)
    raise DomainError(f"unknown method {method!r}")


def _rational_g(x, sigma):
    return (1.0 - sigma * (1.0 + x)) / ((1.0 - sigma) * (1.0 + x) ** 2)


def _rational_q(x, sigma):
    return (1.0 - sigma - (1.0 + sigma) * x) / ((1.0 - sigma) * (1.0 + x) ** 3)


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
    return 2.0 * _double_integral(ctx, t, _rational_g) - 1.0


def q_integral(ctx: AuxContext, t: float) -> float:
    return _double_integral(ctx, t, _rational_q)


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


def combined_rational(y, sigma: float, xi: float):
    """R(y) = (1 - xi) r_g(y) + xi r_q(y), the rational kernel of G.

    R(y) = sum_n (1 + xi n)(n + 1 - sigma)(-y)**n/(1 - sigma) sums to
    r (1 - p (1 + xi (2r - sigma))/(1 - sigma)) with r = 1/(1 + y) and
    p = 1 - r = y r: R(0) = 1 exactly, and no coefficient of size
    1/(1 - sigma) cancels another as sigma -> 1.
    """
    r = 1.0 / (1.0 + y)
    return r * (1.0 - y * r * (1.0 + xi * (2.0 * r - sigma))
                / (1.0 - sigma))


def combined_gq(ctx: AuxContext, t, rule=None):
    """G(t) = (1-xi) g(t) + xi (2 q(t) - 1) = 2 sum W R(t x) - 1 by the
    tensor Gauss-Jacobi rule (x, W) = rule, gq_rule(ctx) when not given.

    t is a scalar or an array in [0, 1]; R is combined_rational.
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


def duality_slope(epsilon, sigma: float):
    """A(epsilon) = (epsilon + 2 sigma - 1) / (2(1 - sigma)), the slope of
    the duality functional in the unimodular epsilon; scalars or arrays."""
    return (epsilon + 2.0 * sigma - 1.0) / (2.0 * (1.0 - sigma))


def h_sigma(ctx: AuxContext, z: complex) -> complex:
    """z (1 + A z) / (1 - z)^2 with A = (epsilon + 2 sigma - 1) / (2(1 - sigma))."""
    z = complex(z)
    if abs(1.0 - z) < 1e-9:
        raise PoleError("h_sigma has a second-order pole at z = 1")
    a = duality_slope(complex(ctx.epsilon), ctx.sigma)
    return z * (1.0 + a * z) / (1.0 - z) ** 2


def h_sigma_prime(ctx: AuxContext, z: complex) -> complex:
    """Derivative of h_sigma: (1 + (1 + 2A) z) / (1 - z)^3."""
    z = complex(z)
    if abs(1.0 - z) < 1e-9:
        raise PoleError("h_sigma' has a third-order pole at z = 1")
    a = duality_slope(complex(ctx.epsilon), ctx.sigma)
    return (1.0 + (1.0 + 2.0 * a) * z) / (1.0 - z) ** 3


def l_integrand(ctx: AuxContext, z: complex, t) -> float:
    """The real-valued duality integrand at disk point z and weight point t.

    Vanishes identically in t when epsilon = 1 and z -> -1, which is the
    direction where the sharp bound is attained.
    """
    t_arr = np.asarray(t, dtype=float)
    if np.any((t_arr <= 0.0) | (t_arr >= 1.0)):
        raise DomainError("t must lie in (0, 1)")
    z = complex(z)
    if abs(z) >= 1.0:
        raise DomainError("|z| must be < 1")
    a = duality_slope(complex(ctx.epsilon), ctx.sigma)
    w = t_arr * z
    if np.any(np.abs(1.0 - w) < 1e-9):
        raise PoleError("tz too close to the pole at 1")
    sg, xi = ctx.sigma, ctx.xi
    star = ((1.0 + a * w) / (1.0 - w) ** 2).real - _rational_g(t_arr, sg)
    conv = ((1.0 + (1.0 + 2.0 * a) * w) / (1.0 - w) ** 3).real \
        - _rational_q(t_arr, sg)
    out = (1.0 - xi) * star + xi * conv
    return float(out) if np.isscalar(t) else out


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
