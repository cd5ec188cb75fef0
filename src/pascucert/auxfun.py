"""The duality integrand and the rational kernel of the g/q profiles.

The two auxiliary profiles g and q solve first-order initial value
problems on (0, 1); their combination G = (1-xi) g + xi (2q - 1) is
2 int int R(t u**mu v**nu) du dv - 1 with R rational, its only pole at
-1.  A certification reads R itself (combined_rational) on the duality
functional's nodes; the routes to G, g and q themselves (series, rule and
adaptive integral) live in the oracles module.  l_integrand is the real
duality integrand and duality_slope its slope in the unimodular epsilon.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import DomainError, PoleError


class _AuxFields(NamedTuple):
    mu: float
    nu: float
    sigma: float = 0.0
    xi: float = 0.0
    epsilon: complex = 1.0 + 0.0j


class AuxContext(_AuxFields):
    """Scalar configuration shared by all auxiliary evaluations; a value
    outside its range is a DomainError."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.mu < 0 or self.nu < 0:
            raise DomainError("mu, nu must be nonnegative")
        if not 0.0 <= self.sigma < 1.0:
            raise DomainError("sigma must lie in [0, 1)")
        if not 0.0 <= self.xi <= 1.0:
            raise DomainError("xi must lie in [0, 1]")
        if abs(abs(complex(self.epsilon)) - 1.0) > 1e-12:
            raise DomainError("epsilon must be unimodular")
        return self


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
