import math

import pytest
from hypothesis import given, strategies as st

import pascucert as pc
from pascucert import params as pm
from pascucert.errors import DomainError, MismatchedFamily, NoRealRoots


def test_resolve_known_pairs():
    assert pm.resolve_mu_nu(5.0, 2.0) == pytest.approx((1.0, 2.0))
    assert pm.resolve_mu_nu(3.0, 1.0) == pytest.approx((1.0, 1.0))
    # gamma = 0 picks the degenerate root pair exactly
    assert pm.resolve_mu_nu(3.0, 0.0) == (0.0, 3.0)


def test_resolve_no_real_roots():
    with pytest.raises(NoRealRoots):
        pm.resolve_mu_nu(3.0, 2.0)
    with pytest.raises(NoRealRoots):
        pm.resolve_mu_nu(1.0, 2.0)


@given(st.floats(0.0, 8.0), st.floats(0.0, 8.0))
def test_resolve_round_trip(mu, nu):
    mu, nu = min(mu, nu), max(mu, nu)
    alpha = mu + nu + mu * nu
    gamma = mu * nu
    got = pm.resolve_mu_nu(alpha, gamma)
    # near-equal roots lose half the digits to the square root
    assert got[0] == pytest.approx(mu, abs=2e-6)
    assert got[1] == pytest.approx(nu, abs=2e-6)


def test_sigma_upper_bound_values():
    assert pm.sigma_upper_bound(1.0, 2.0) == pytest.approx(1.0 / 6.0)
    # mu = nu gives 0: no room above order zero
    assert pm.sigma_upper_bound(2.0, 2.0) == 0.0


@given(st.floats(1.0, 10.0), st.floats(0.0, 10.0))
def test_sigma_upper_bound_range(mu, extra):
    b = pm.sigma_upper_bound(mu, mu + extra)
    assert 0.0 <= b < 0.5


def test_sigma_upper_bound_domain():
    with pytest.raises(DomainError):
        pm.sigma_upper_bound(0.5, 2.0)
    with pytest.raises(DomainError):
        pm.sigma_upper_bound(2.0, 1.0)


def test_parameter_set_constructors_agree():
    p1 = pc.ParameterSet.from_alpha_gamma(5.0, 2.0, sigma=0.1, xi=0.5)
    p2 = pc.ParameterSet.from_mu_nu(1.0, 2.0, sigma=0.1, xi=0.5)
    assert p1.mu == pytest.approx(p2.mu)
    assert p1.alpha == pytest.approx(p2.alpha)
    assert p2.gamma == pytest.approx(2.0)


def test_parameter_set_orders_mu_nu():
    p = pc.ParameterSet.from_mu_nu(3.0, 1.0)
    assert p.mu == 1.0 and p.nu == 3.0


def test_parameter_set_rejects_inconsistent():
    with pytest.raises(DomainError):
        pm.ParameterSet(alpha=5.0, gamma=2.0, mu=1.0, nu=3.0)
    with pytest.raises(DomainError):
        pc.ParameterSet.from_mu_nu(1.0, 2.0, sigma=1.0)
    with pytest.raises(DomainError):
        pc.ParameterSet.from_mu_nu(1.0, 2.0, xi=1.5)


def test_with_beta():
    p = pc.ParameterSet.from_mu_nu(1.0, 2.0)
    q = p.with_beta(-3.0)
    assert q.beta == -3.0 and p.beta is None
    assert q.mu == p.mu


def test_combination_ratio():
    p = pc.ParameterSet.from_mu_nu(1.0, 2.0, xi=1.0)
    assert pm.combination_ratio(p) == pytest.approx(1.0 + 2.0 - 0.5)
    p0 = pc.ParameterSet.from_mu_nu(1.0, 2.0, xi=0.0)
    assert math.isinf(pm.combination_ratio(p0))


def test_theorem_for_family():
    assert pm.theorem_for_family("komatu") == "komatu"
    assert pm.theorem_for_family("generalized_omega") == "generalized"
    assert pm.theorem_for_family("bernardi") is None


def test_hypothesis_check_requires_matching_family():
    k = pc.make_kernel("bernardi", c=1.0)
    p = pc.ParameterSet.from_mu_nu(1.0, 2.0, sigma=0.1, xi=1.0)
    with pytest.raises(MismatchedFamily):
        pm.hypothesis_check("komatu", p, k)


def test_hypothesis_check_komatu_satisfied():
    k = pc.make_kernel("komatu", c=0.0, delta=3.0)
    p = pc.ParameterSet.from_mu_nu(1.0, 2.0, sigma=0.1, xi=1.0)
    rep = pm.hypothesis_check("komatu", p, k)
    assert rep.all_satisfied
    assert rep.min_margin >= 0.0


def test_hypothesis_check_komatu_near_failure_ranks():
    k = pc.make_kernel("komatu", c=0.0, delta=2.0)
    p = pc.ParameterSet.from_mu_nu(1.0, 2.0, sigma=0.1, xi=1.0)
    rep = pm.hypothesis_check("komatu", p, k)
    assert not rep.all_satisfied
    # delta >= 3 - c fails by exactly 1
    assert rep.min_margin == pytest.approx(-1.0)


def test_hypothesis_check_ali_singh_k_requirement():
    # 1/xi + 2/mu - 1/nu = 2.5 forces k = -1.5, outside [0, 1)
    k = pc.make_kernel("ali_singh", k=0.5)
    p = pc.ParameterSet.from_mu_nu(1.0, 2.0, sigma=0.5, xi=1.0)
    rep = pm.hypothesis_check("ali_singh", p, k)
    assert not rep.all_satisfied
    margins = {h.name: h.margin for h in rep.hypotheses}
    required = [v for n, v in margins.items() if "required" in n or "k" in n]
    assert any(m < 0 for m in required)


def test_theorems_follow_the_family_table():
    assert set(pm.THEOREMS) == {"generalized", "hohlov", "komatu",
                                "two_param_log", "ali_singh"}
    for family in ("komatu", "hohlov", "two_param_log", "ali_singh"):
        assert pm.theorem_for_family(family) == family
    assert pm.theorem_for_family("nosuchfamily") is None
