"""Scalar parameter algebra and per-theorem hypothesis predicates.

The pair (mu, nu) is the nonnegative root splitting of
x**2 - (alpha - gamma) x + gamma; the ordering mu <= nu is a convention of
this library (it keeps the sigma bound nonnegative).  Hypothesis checks
return signed margins so sweeps can rank near-failures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from . import kernels
from .errors import DomainError, MismatchedFamily, NoRealRoots

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


@dataclass(frozen=True)
class ParameterSet:
    """Full scalar configuration of one certification problem."""

    alpha: float
    gamma: float
    mu: float
    nu: float
    sigma: float = 0.0
    xi: float = 0.0
    beta: Optional[float] = None

    def __post_init__(self):
        if min(self.alpha, self.gamma, self.mu, self.nu) < 0:
            raise DomainError("alpha, gamma, mu, nu must be nonnegative")
        if not 0.0 <= self.sigma < 1.0:
            raise DomainError("sigma must lie in [0, 1)")
        if not 0.0 <= self.xi <= 1.0:
            raise DomainError("xi must lie in [0, 1]")
        if self.beta is not None and self.beta >= 1.0:
            raise DomainError("beta must be < 1")
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

    @classmethod
    def from_alpha_gamma(cls, alpha, gamma, sigma=0.0, xi=0.0, beta=None):
        mu, nu = resolve_mu_nu(alpha, gamma)
        return cls(alpha, gamma, mu, nu, sigma, xi, beta)

    @classmethod
    def from_mu_nu(cls, mu, nu, sigma=0.0, xi=0.0, beta=None):
        if mu > nu:
            mu, nu = nu, mu
        return cls(mu + nu + mu * nu, mu * nu, mu, nu, sigma, xi, beta)

    def with_beta(self, beta: float) -> "ParameterSet":
        return ParameterSet(self.alpha, self.gamma, self.mu, self.nu,
                            self.sigma, self.xi, beta)


@dataclass(frozen=True)
class Hypothesis:
    name: str
    satisfied: bool
    margin: float


@dataclass(frozen=True)
class HypothesisReport:
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


THEOREMS = tuple(entry.theorem for entry in kernels._FAMILIES.values()
                 if entry.theorem)


def theorem_for_family(family: str) -> Optional[str]:
    entry = kernels._FAMILIES.get(family)
    return None if entry is None else entry.theorem


def combination_ratio(params: ParameterSet) -> float:
    """1/xi + 2/mu - 1/nu, the recurring combination in the kernel theorems."""
    if params.mu <= 0 or params.nu <= 0:
        return math.inf
    if params.xi <= 0:
        return math.inf
    return 1.0 / params.xi + 2.0 / params.mu - 1.0 / params.nu


def hypothesis_check(theorem_id: str, params: ParameterSet,
                     kernel: kernels.KernelSpec) -> HypothesisReport:
    """Signed-margin evaluation of every displayed hypothesis of a theorem.

    A hypothesis is satisfied iff its margin is >= 0.
    """
    if theorem_id not in THEOREMS:
        raise DomainError(f"unknown theorem {theorem_id!r}")
    if theorem_for_family(kernel.family) != theorem_id:
        raise MismatchedFamily(
            f"theorem {theorem_id!r} does not cover a {kernel.family} kernel")
    p = kernel.p
    hs = []

    def add(name, margin):
        hs.append(Hypothesis(name, margin >= 0.0, float(margin)))

    ratio = combination_ratio(params)
    mu, nu, sg, xi = params.mu, params.nu, params.sigma, params.xi
    sig_ok = mu >= 1.0 and nu >= mu
    sig_max = sigma_upper_bound(mu, nu) if sig_ok else math.nan

    if theorem_id == "generalized":
        add("gamma > 0", params.gamma)
        add("mu >= 1", mu - 1.0)
        add("B <= 1", 1.0 - p["B"])
        add("C >= A + 3", p["C"] - p["A"] - 3.0)
        add("1/xi + 2/mu - 1/nu >= 2", ratio - 2.0)
        add("sigma >= 0", sg)
        add("sigma <= bound(mu, nu)", sig_max - sg)
    elif theorem_id == "hohlov":
        add("gamma > 0", params.gamma)
        add("mu >= 1", mu - 1.0)
        add("a > 0", p["a"])
        add("b > 0", p["b"])
        add("c > 0", p["c"])
        add("b <= 1", 1.0 - p["b"])
        add("c >= a + 3", p["c"] - p["a"] - 3.0)
        add("1/xi + 2/mu - 1/nu >= 2", ratio - 2.0)
        add("sigma >= 0", sg)
        add("sigma <= bound(mu, nu)", sig_max - sg)
    elif theorem_id == "komatu":
        c, delta = p["c"], p["delta"]
        add("gamma > 0", params.gamma)
        add("mu >= 1", mu - 1.0)
        add("c > -1", c + 1.0)
        add("c <= 0", -c)
        add("delta >= 3 - c", delta - (3.0 - c))
        add("1/xi + 2/mu - 1/nu >= 2", ratio - 2.0)
        add("sigma >= 0", sg)
        add("sigma <= bound(mu, nu)", sig_max - sg)
    elif theorem_id == "two_param_log":
        a = min(p["a"], p["b"])
        add("gamma > 0", params.gamma)
        add("mu >= 1", mu - 1.0)
        add("xi > 0", xi)
        add("a > -1", a + 1.0)
        add("a <= 0", -a)
        add("sigma >= 0", sg)
        add("sigma <= bound(mu, nu)", sig_max - sg)
    else:  # ali_singh
        k_required = 1.0 - (ratio if math.isfinite(ratio) else math.inf)
        add("gamma > 0", params.gamma)
        add("mu >= 1", mu - 1.0)
        add("xi > 0", xi)
        add("k = 1 - 1/xi - 2/mu + 1/nu",
            -abs(p["k"] - k_required) if math.isfinite(k_required)
            else -math.inf)
        add("k >= 0", k_required if math.isfinite(k_required) else -math.inf)
        add("k < 1", 1.0 - k_required if math.isfinite(k_required)
            else -math.inf)
        add("sigma = 1/2", -abs(sg - 0.5))
    return HypothesisReport(theorem_id, tuple(hs))
