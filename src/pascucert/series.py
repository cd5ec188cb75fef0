"""Truncated power series on the unit disk.

Coefficients are stored densely from the constant term upward, so
``coeffs[n]`` multiplies z**n.  Normalized functions (members of the class
A) have ``coeffs[0] == 0`` and ``coeffs[1] == 1``.  Every operation
allocates a fresh series; instances are immutable by convention.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, LengthMismatch, RadiusError
from .quadrature import _BINOM8

_DEFAULT_TAIL_RADIUS = 0.999


@dataclass(frozen=True)
class TruncatedSeries:
    """A polynomial truncation of an analytic function with a tail bound.

    tail_bound is an upper bound on the absolute value of the discarded
    tail at radius tail_radius.
    """

    coeffs: np.ndarray
    tail_bound: float = 0.0
    tail_radius: float = _DEFAULT_TAIL_RADIUS

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)
        if c.ndim != 1 or len(c) < 2:
            raise DomainError("need at least the constant and linear coefficients")
        if not 0.0 < self.tail_radius < 1.0:
            raise DomainError("tail_radius must lie in (0, 1)")
        if self.tail_bound < 0.0:
            raise DomainError("tail_bound must be nonnegative")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @property
    def normalized(self) -> bool:
        return (abs(self.coeffs[0]) < 1e-14
                and abs(self.coeffs[1] - 1.0) < 1e-14)


def from_coeffs(coeffs, tail_bound=0.0, tail_radius=_DEFAULT_TAIL_RADIUS):
    return TruncatedSeries(np.asarray(coeffs, dtype=complex),
                           tail_bound, tail_radius)


def geometric_tail_bound(coeffs, radius):
    """Tail bound from a geometric majorant fitted to the last coefficients."""
    a = np.abs(np.asarray(coeffs))
    nz = np.nonzero(a > 0)[0]
    if len(nz) < 2:
        return 0.0
    tail_idx = nz[-16:]
    ratios = a[tail_idx[1:]] / a[tail_idx[:-1]]
    steps = np.diff(tail_idx)
    rho = float(np.max(ratios ** (1.0 / steps)))
    q = rho * radius
    if q >= 1.0:
        return np.inf
    n = len(a) - 1
    return float(a[nz[-1]] * radius**n * q / (1.0 - q))


def hadamard(f: TruncatedSeries, g: TruncatedSeries) -> TruncatedSeries:
    """Coefficientwise (Hadamard) product, truncated to the shorter input."""
    n = min(len(f.coeffs), len(g.coeffs))
    radius = min(f.tail_radius, g.tail_radius)
    return TruncatedSeries(f.coeffs[:n] * g.coeffs[:n],
                           f.tail_bound * g.tail_bound, radius)


def phi_kernel(mu: float, nu: float, order: int) -> TruncatedSeries:
    """1 + sum_n (n*mu+1)(n*nu+1)/(n+1) z**n."""
    if mu < 0 or nu < 0:
        raise DomainError("mu, nu must be nonnegative")
    if order < 2:
        raise DomainError("order must be at least 2")
    n = np.arange(order + 1, dtype=float)
    c = (n * mu + 1.0) * (n * nu + 1.0) / (n + 1.0)
    return TruncatedSeries(c.astype(complex),
                           geometric_tail_bound(c, _DEFAULT_TAIL_RADIUS))


def psi_kernel(mu: float, nu: float, order: int) -> TruncatedSeries:
    """Convolution inverse of phi_kernel: 1 + sum (n+1)/((n*mu+1)(n*nu+1)) z**n."""
    if mu < 0 or nu < 0:
        raise DomainError("mu, nu must be nonnegative")
    if order < 2:
        raise DomainError("order must be at least 2")
    n = np.arange(order + 1, dtype=float)
    c = (n + 1.0) / ((n * mu + 1.0) * (n * nu + 1.0))
    return TruncatedSeries(c.astype(complex),
                           geometric_tail_bound(c, _DEFAULT_TAIL_RADIUS))


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
    r = _DEFAULT_TAIL_RADIUS
    if mu * nu > 0:
        # |a_{n+1}| <= 2(1-beta)/(n^2 mu nu)
        tail = 2.0 * (1.0 - beta) / (mu * nu * (order - 1) ** 2) \
            * r ** (order + 1) / (1.0 - r)
    else:
        tail = geometric_tail_bound(c, r)
    return TruncatedSeries(c, tail, r)


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
    return TruncatedSeries(c, f.tail_bound, f.tail_radius)


def k_combination(f: TruncatedSeries, xi: float) -> TruncatedSeries:
    """xi*z*f' + (1-xi)*f: the coefficient of z**n picks up 1 + xi(n-1)."""
    if not 0.0 <= xi <= 1.0:
        raise DomainError("xi must lie in [0, 1]")
    n = np.arange(len(f.coeffs), dtype=float)
    scale = 1.0 + xi * (n - 1.0)
    return TruncatedSeries(f.coeffs * scale,
                           f.tail_bound * (1.0 + xi * f.order),
                           f.tail_radius)


def z_derivative(f: TruncatedSeries) -> TruncatedSeries:
    """z f'(z): scales the n-th coefficient by n."""
    n = np.arange(len(f.coeffs), dtype=float)
    return TruncatedSeries(f.coeffs * n, f.tail_bound * (f.order + 1),
                           f.tail_radius)


def _partial_sums(f: TruncatedSeries, z: complex) -> np.ndarray:
    terms = f.coeffs * z ** np.arange(len(f.coeffs))
    return np.cumsum(terms)


def evaluate(f: TruncatedSeries, z: complex, mode: str = "direct") -> complex:
    """Evaluate the truncation at z.

    direct mode requires |z| < 1.  Near the negative boundary the partial
    sums alternate slowly, so the last eight are averaged with binomial
    weights.  extrapolated mode samples rho = 0.9, 0.99, 0.999 along the
    direction of z and Richardson-extrapolates the radial limit, which is
    meaningful on the boundary itself.
    """
    z = complex(z)
    if mode == "direct":
        if abs(z) >= 1.0:
            raise RadiusError(f"|z| = {abs(z)} >= 1 in direct mode")
        if abs(z) > 0.99 and z.real < 0.0:
            s = _partial_sums(f, z)
            return complex(np.dot(_BINOM8, s[-8:])) if len(s) >= 8 else s[-1]
        return complex(np.polynomial.polynomial.polyval(z, f.coeffs))
    if mode == "extrapolated":
        if abs(z) > 1.0 + 1e-12:
            raise RadiusError("extrapolated mode needs |z| <= 1")
        if z == 0:
            return complex(f.coeffs[0])
        u = z / abs(z)
        rhos = (0.9, 0.99, 0.999)
        vals = [evaluate(f, r * u) for r in rhos]
        h = [1.0 - r for r in rhos]
        target = max(0.0, 1.0 - abs(z))
        vander = np.vander(np.asarray(h), increasing=True)
        coeffs = np.linalg.solve(vander, np.asarray(vals))
        return complex(np.polynomial.polynomial.polyval(target, coeffs))
    raise DomainError(f"unknown evaluation mode {mode!r}")


def evaluate_many(f: TruncatedSeries, z: np.ndarray) -> np.ndarray:
    """Vectorized direct evaluation (no boundary averaging)."""
    z = np.asarray(z, dtype=complex)
    if np.any(np.abs(z) >= 1.0):
        raise RadiusError("all points must satisfy |z| < 1")
    return np.polynomial.polynomial.polyval(z, f.coeffs)


def tail_estimate(f: TruncatedSeries, radius: float) -> float:
    """Tail bound rescaled from the stored radius to the requested one."""
    if radius <= f.tail_radius:
        return f.tail_bound * (radius / f.tail_radius) ** (f.order + 1)
    return geometric_tail_bound(f.coeffs, radius)
