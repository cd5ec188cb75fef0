import math

import pytest
from hypothesis import given, strategies as st

import pascucert as pc
from pascucert import kernels, params as pm
from pascucert.errors import DomainError, NoRealRoots


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


def test_combination_ratio():
    p = pc.ParameterSet.from_mu_nu(1.0, 2.0, xi=1.0)
    assert pm.combination_ratio(p) == pytest.approx(1.0 + 2.0 - 0.5)
    p0 = pc.ParameterSet.from_mu_nu(1.0, 2.0, xi=0.0)
    assert math.isinf(pm.combination_ratio(p0))


def test_theorem_for_family():
    p = pc.ParameterSet.from_mu_nu(1.0, 2.0, sigma=0.1, xi=1.0)
    for text, theorem in (("komatu c=0 delta=3", "komatu"),
                          ("generalized_omega A=1 B=1 C=4", "generalized")):
        assert pm.hypothesis_check(p, pc.parse_kernel(text)).theorem \
            == theorem
    assert pm.hypothesis_check(p, pc.parse_kernel("bernardi c=1")) is None


def test_hypothesis_check_komatu_satisfied():
    k = pc.make_kernel("komatu", c=0.0, delta=3.0)
    p = pc.ParameterSet.from_mu_nu(1.0, 2.0, sigma=0.1, xi=1.0)
    rep = pm.hypothesis_check(p, k)
    assert rep.all_satisfied
    assert rep.min_margin >= 0.0


def test_hypothesis_check_komatu_near_failure_ranks():
    k = pc.make_kernel("komatu", c=0.0, delta=2.0)
    p = pc.ParameterSet.from_mu_nu(1.0, 2.0, sigma=0.1, xi=1.0)
    rep = pm.hypothesis_check(p, k)
    assert not rep.all_satisfied
    # delta >= 3 - c fails by exactly 1
    assert rep.min_margin == pytest.approx(-1.0)


def test_hypothesis_check_ali_singh_k_requirement():
    # 1/xi + 2/mu - 1/nu = 2.5 forces k = -1.5, outside [0, 1)
    k = pc.make_kernel("ali_singh", k=0.5)
    p = pc.ParameterSet.from_mu_nu(1.0, 2.0, sigma=0.5, xi=1.0)
    rep = pm.hypothesis_check(p, k)
    assert not rep.all_satisfied
    margins = {h.name: h.margin for h in rep.hypotheses}
    required = [v for n, v in margins.items() if "required" in n or "k" in n]
    assert any(m < 0 for m in required)


def test_theorems_follow_the_family_table():
    theorems = {name: entry.theorem
                for name, entry in kernels._FAMILIES.items()}
    assert theorems == {"bernardi": None, "komatu": "komatu",
                        "hohlov": "hohlov", "two_param_log": "two_param_log",
                        "ali_singh": "ali_singh",
                        "generalized_omega": "generalized"}
    for entry in kernels._FAMILIES.values():
        assert bool(entry.hypotheses) == (entry.theorem is not None)


# hypothesis_check(...).to_dict() as (name, margin) rows, captured before
# the hypotheses moved into the family table; mu = 1, nu = 2
_GAMMA_MU = [("gamma > 0", 2.0), ("mu >= 1", 0.0)]
_RATIO = [("1/xi + 2/mu - 1/nu >= 2", 0.5)]
_SIGMA = [("sigma >= 0", 0.1),
          ("sigma <= bound(mu, nu)", 0.06666666666666665)]
HYPOTHESIS_PINS = [
    ("komatu c=0 delta=3", 0.1, 1.0, "komatu",
     _GAMMA_MU + [("c > -1", 1.0), ("c <= 0", -0.0),
                  ("delta >= 3 - c", 0.0)] + _RATIO + _SIGMA),
    ("hohlov a=1 b=1 c=4", 0.1, 1.0, "hohlov",
     _GAMMA_MU + [("a > 0", 1.0), ("b > 0", 1.0), ("c > 0", 4.0),
                  ("b <= 1", 0.0), ("c >= a + 3", 0.0)] + _RATIO + _SIGMA),
    ("generalized A=1 B=1 C=4 x1=1", 0.1, 1.0, "generalized",
     _GAMMA_MU + [("B <= 1", 0.0), ("C >= A + 3", 0.0)] + _RATIO + _SIGMA),
    ("two_param_log a=-0.5 b=0", 0.1, 1.0, "two_param_log",
     _GAMMA_MU + [("xi > 0", 1.0), ("a > -1", 0.5), ("a <= 0", 0.5)]
     + _SIGMA),
    ("ali_singh k=0.5", 0.5, 1.0, "ali_singh",
     _GAMMA_MU + [("xi > 0", 1.0), ("k = 1 - 1/xi - 2/mu + 1/nu", -2.0),
                  ("k >= 0", -1.5), ("k < 1", 2.5), ("sigma = 1/2", -0.0)]),
    ("ali_singh k=0.5", 0.5, 0.0, "ali_singh",
     _GAMMA_MU + [("xi > 0", 0.0), ("k = 1 - 1/xi - 2/mu + 1/nu", -math.inf),
                  ("k >= 0", -math.inf), ("k < 1", -math.inf),
                  ("sigma = 1/2", -0.0)]),
    ("bernardi c=1", 0.1, 1.0, None, None),
]


@pytest.mark.parametrize("text,sigma,xi,theorem,rows", HYPOTHESIS_PINS,
                         ids=[f"{c[0]} xi={c[2]:g}" for c in HYPOTHESIS_PINS])
def test_hypothesis_check_pins_every_family(text, sigma, xi, theorem, rows):
    p = pc.ParameterSet.from_mu_nu(1.0, 2.0, sigma=sigma, xi=xi)
    rep = pm.hypothesis_check(p, pc.parse_kernel(text))
    if theorem is None:
        assert rep is None
        return
    d = rep.to_dict()
    assert d["theorem"] == theorem
    # repr keeps the sign of a zero margin, which the JSON report prints
    assert [(h["name"], repr(h["margin"]), h["satisfied"])
            for h in d["hypotheses"]] \
        == [(name, repr(m), m >= 0.0) for name, m in rows]
    assert d["all_satisfied"] == all(m >= 0.0 for _, m in rows)


# ---------------------------------------------------------------------------
# the records check their values however they are built

PARAMETERS = dict(alpha=5.0, gamma=2.0, mu=1.0, nu=2.0, sigma=0.1, xi=0.5)
# (record, all its fields, the message of the DomainError they raise)
REJECTED = {
    "parameters-sigma": (pc.ParameterSet, {**PARAMETERS, "sigma": 1.5},
                         "sigma must lie in [0, 1)"),
    "parameters-xi": (pc.ParameterSet, {**PARAMETERS, "xi": 2.0},
                      "xi must lie in [0, 1]"),
    "parameters-alpha-zero": (
        pc.ParameterSet, {**PARAMETERS, "alpha": 0.0, "gamma": 0.0,
                          "mu": 0.0, "nu": 0.0},
        "alpha = 0 forces mu = nu = 0; need alpha > 0"),
    "disk-angles": (pc.DiskGrid, dict(radius=0.999, angles=3),
                    "need at least 4 angles"),
}


@pytest.mark.parametrize("record,fields,message", REJECTED.values(),
                         ids=REJECTED)
@pytest.mark.parametrize("by", ["keyword", "position"])
def test_records_check_values_by_keyword_and_position(record, fields,
                                                      message, by):
    with pytest.raises(DomainError) as exc:
        if by == "keyword":
            record(**fields)
        else:
            record(*fields.values())
    assert str(exc.value) == message


@pytest.mark.parametrize("sigma,xi,message", [
    (1.5, 0.5, "sigma must lie in [0, 1)"),
    (0.1, 2.0, "xi must lie in [0, 1]")], ids=["sigma", "xi"])
@pytest.mark.parametrize("build", [
    lambda s, x: pc.ParameterSet.from_mu_nu(1.0, 2.0, s, x),
    lambda s, x: pc.ParameterSet.from_alpha_gamma(5.0, 2.0, s, x),
], ids=["from_mu_nu", "from_alpha_gamma"])
def test_parameter_set_builders_check_values(build, sigma, xi, message):
    with pytest.raises(DomainError) as exc:
        build(sigma, xi)
    assert str(exc.value) == message
