"""Scalar parameter algebra and the theorem hypothesis audit.

The pair (mu, nu) is the nonnegative root splitting of
x**2 - (alpha - gamma) x + gamma; the ordering mu <= nu is a convention of
this library (it keeps the sigma bound nonnegative).  The hypotheses of
each theorem are rows of the family table in kernels; hypothesis_check
evaluates them to signed margins so sweeps can rank near-failures.  Every
verdict of the package is a table of Rows (name, margin, tol).
"""

from __future__ import annotations

import math
from types import SimpleNamespace
from typing import NamedTuple, Optional

from . import kernels
from .errors import DomainError, NoRealRoots

_REL_TOL = 1e-12


def resolve_mu_nu(alpha: float, gamma: float) -> tuple[float, float]:
    """Nonnegative roots (mu, nu), mu <= nu, of x^2 - (alpha-gamma)x + gamma.

    For gamma = 0 the split is exactly (0, alpha).
    """
    if alpha < 0 or gamma < 0:
        raise DomainError("alpha and gamma must be nonnegative")
    if gamma == 0.0:
        return 0.0, alpha
    s = alpha - gamma
    disc = s * s - 4.0 * gamma
    if -1e-12 * max(1.0, s * s) <= disc < 0.0:
        disc = 0.0
    if s < 0 or disc < 0:
        raise NoRealRoots(
            f"no nonnegative (mu, nu) for alpha={alpha}, gamma={gamma}")
    root = math.sqrt(disc)
    mu = 0.5 * (s - root)
    nu = 0.5 * (s + root)
    return mu, nu


def sigma_upper_bound(mu: float, nu: float) -> float:
    """(1/2) (1/mu - 1/nu) / (1 + 1/mu - 1/nu); in [0, 1/2) for nu >= mu >= 1."""
    if mu < 1.0:
        raise DomainError("sigma bound requires mu >= 1")
    if nu < mu:
        raise DomainError("requires nu >= mu")
    gap = 1.0 / mu - 1.0 / nu
    return 0.5 * gap / (1.0 + gap)


class _ParameterFields(NamedTuple):
    alpha: float
    gamma: float
    mu: float
    nu: float
    sigma: float = 0.0
    xi: float = 0.0


class ParameterSet(_ParameterFields):
    """Full scalar configuration of one certification problem; a value
    outside its range is a DomainError from the constructor, and so from
    from_alpha_gamma and from_mu_nu (_replace and _make skip the
    checks)."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if min(self.alpha, self.gamma, self.mu, self.nu) < 0:
            raise DomainError("alpha, gamma, mu, nu must be nonnegative")
        if not 0.0 <= self.sigma < 1.0:
            raise DomainError("sigma must lie in [0, 1)")
        if not 0.0 <= self.xi <= 1.0:
            raise DomainError("xi must lie in [0, 1]")
        if self.mu > self.nu:
            raise DomainError("convention requires mu <= nu")
        scale_s = max(1.0, abs(self.alpha))
        scale_p = max(1.0, abs(self.gamma))
        if abs(self.mu + self.nu - (self.alpha - self.gamma)) > _REL_TOL * scale_s:
            raise DomainError("mu + nu must equal alpha - gamma")
        if abs(self.mu * self.nu - self.gamma) > _REL_TOL * scale_p:
            raise DomainError("mu * nu must equal gamma")
        if self.gamma == 0.0 and self.mu != 0.0:
            raise DomainError("gamma = 0 forces mu = 0")
        return self

    @classmethod
    def from_alpha_gamma(cls, alpha, gamma, sigma=0.0, xi=0.0):
        mu, nu = resolve_mu_nu(alpha, gamma)
        return cls(alpha, gamma, mu, nu, sigma, xi)

    @classmethod
    def from_mu_nu(cls, mu, nu, sigma=0.0, xi=0.0):
        if mu > nu:
            mu, nu = nu, mu
        return cls(mu + nu + mu * nu, mu * nu, mu, nu, sigma, xi)


class Row(NamedTuple):
    """One row of a verdict table: it holds when margin >= -tol, and a NaN
    margin fails.  A hypothesis of a theorem is a row with tol 0."""

    name: str
    margin: float
    tol: float = 0.0

    @property
    def satisfied(self) -> bool:
        return self.margin >= -self.tol


def failed_rows(rows) -> list:
    """The names of the rows that do not hold, in table order."""
    return [row.name for row in rows if not row.satisfied]


class HypothesisReport(NamedTuple):
    """The hypothesis rows of one theorem."""

    theorem: str
    hypotheses: tuple

    @property
    def all_satisfied(self) -> bool:
        return all(h.satisfied for h in self.hypotheses)

    @property
    def min_margin(self) -> float:
        return min(h.margin for h in self.hypotheses)

    def to_dict(self) -> dict:
        return {"theorem": self.theorem, "all_satisfied": self.all_satisfied,
                "hypotheses": [{"name": h.name, "satisfied": h.satisfied,
                                "margin": h.margin} for h in self.hypotheses]}


def combination_ratio(params: ParameterSet) -> float:
    """1/xi + 2/mu - 1/nu, the recurring combination in the kernel theorems."""
    if params.mu <= 0 or params.nu <= 0:
        return math.inf
    if params.xi <= 0:
        return math.inf
    return 1.0 / params.xi + 2.0 / params.mu - 1.0 / params.nu


def hypothesis_check(params: ParameterSet,
                     kernel: kernels.KernelSpec) -> Optional[HypothesisReport]:
    """Signed margins of the hypotheses of the theorem covering the
    kernel's family, in the order of the family table (kernels._FAMILIES);
    None for a family no theorem covers.

    A hypothesis is satisfied iff its margin is >= 0 (a Row with tol 0).
    """
    entry = kernels._FAMILIES[kernel.family]
    if entry.theorem is None:
        return None
    mu, nu = params.mu, params.nu
    scalars = SimpleNamespace(
        gamma=params.gamma, mu=mu, xi=params.xi, sigma=params.sigma,
        ratio=combination_ratio(params),
        sigma_max=sigma_upper_bound(mu, nu) if mu >= 1.0 and nu >= mu
        else math.nan)
    p, hs = kernel.p, []
    for name, row in entry.hypotheses:
        hs.append(Row(name, float(row(p, scalars))))
    return HypothesisReport(entry.theorem, tuple(hs))
