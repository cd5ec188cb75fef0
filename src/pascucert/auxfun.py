"""The duality integrand and the closed forms of the certification.

The two auxiliary profiles g and q solve first-order initial value
problems on (0, 1); their combination G = (1-xi) g + xi (2q - 1) is
2 int int R(t u**mu v**nu) du dv - 1 with R rational, its only pole at
-1.  A certification reads R itself (combined_rational) on the duality
functional's nodes; the routes to G, g and q themselves (series, rule and
adaptive integral) live in the oracles module.  l_integrand is the real
duality integrand, duality_slope its slope in the unimodular epsilon, and
pfq the generalized hypergeometric sum of the Hohlov closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (ConvergenceFailure, DivergentSeries, DomainError,
                     PoleError)
from .quadrature import ALTERNATING_TERMS, averaged_partial_sum


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


def _rational_g(x, sigma):
    return (1.0 - sigma * (1.0 + x)) / ((1.0 - sigma) * (1.0 + x) ** 2)


def _rational_q(x, sigma):
    return (1.0 - sigma - (1.0 + sigma) * x) / ((1.0 - sigma) * (1.0 + x) ** 3)


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


def duality_slope(epsilon, sigma: float):
    """A(epsilon) = (epsilon + 2 sigma - 1) / (2(1 - sigma)), the slope of
    the duality functional in the unimodular epsilon; scalars or arrays."""
    return (epsilon + 2.0 * sigma - 1.0) / (2.0 * (1.0 - sigma))


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
