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

