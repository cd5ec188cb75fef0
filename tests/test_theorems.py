"""Checks that need no oracle: the paper's theorems imply the certificate,
and kernel texts that name one density give one report."""

import json
import random

import numpy as np
import pytest

import pascucert as pc
from pascucert import certify, cli, kernels, params
from pascucert.params import failed_rows


def _inside_hypotheses(rng, family):
    """A kernel of the family and a ParameterSet drawn inside the rows of
    its theorem (kernels._FAMILIES): mu >= 1, nu >= mu, sigma up to
    sigma_upper_bound(mu, nu) and, where the theorem has the row,
    1/xi + 2/mu - 1/nu >= 2."""
    mu = rng.uniform(1.0, 4.0)
    nu = rng.uniform(mu, 8.0)
    xi = rng.uniform(0.05, 1.0) * min(1.0, 1.0 / (2.0 - 2.0 / mu + 1.0 / nu))
    sigma = rng.uniform(0.0, params.sigma_upper_bound(mu, nu))
    if family == "komatu":
        c = rng.uniform(-0.9, 0.0)
        kp = dict(c=c, delta=3.0 - c + rng.uniform(0.0, 4.0))
    elif family == "hohlov":
        a = rng.uniform(0.05, 3.0)
        kp = dict(a=a, b=rng.uniform(0.05, 1.0),
                  c=a + 3.0 + rng.uniform(0.0, 5.0))
    elif family == "generalized":
        a = rng.uniform(-0.5, 2.0)
        kp = dict(A=a, B=rng.uniform(0.05, 1.0),
                  C=a + 3.0 + rng.uniform(0.0, 4.0), x1=rng.uniform(0.0, 3.0))
    elif family == "two_param_log":  # no row on the ratio
        xi = rng.uniform(0.05, 1.0)
        kp = dict(a=rng.uniform(-0.9, 0.0), b=rng.uniform(-0.9, 0.0))
    else:  # ali_singh: its k = 1 - 1/xi - 2/mu + 1/nu, and sigma = 1/2
        xi = rng.uniform(0.05, 1.0)
        ratio = 1.0 / xi + 2.0 / mu - 1.0 / nu
        kp = dict(k=min(max(1.0 - ratio, 0.0), 0.9))
        sigma = 0.5
    return pc.make_kernel(family, **kp), \
        pc.ParameterSet.from_mu_nu(mu, nu, sigma, xi)


FAMILIES = ("komatu", "hohlov", "generalized", "two_param_log", "ali_singh")


@pytest.mark.parametrize("family", FAMILIES)
def test_theorem_route_implies_duality_route(family):
    # the theorems: where every hypothesis and sufficient condition holds,
    # V_lambda maps W_beta into M(sigma, xi), so every row of the
    # certificate holds too
    rng = random.Random(f"theorem {family}")
    held = 0
    for _ in range(32):
        kernel, p = _inside_hypotheses(rng, family)
        margins, hyp = certify.condition_margins(kernel, p)
        if failed_rows(certify.theorem_rows(margins, hyp)):
            continue
        held += 1
        rep = certify.run_certification(kernel, p)
        assert rep.failed() == [], (kernel.text(), p)
    if family == "ali_singh":
        # mu >= 1 and nu >= mu give 1/xi + 2/mu - 1/nu > 1, so the k the
        # theorem requires is negative and no kernel meets it
        assert held == 0
    else:
        assert held >= 24


def test_hohlov_rows_hold_where_growth_fails(capsys):
    # at b = 1, 2F1(c - a, 1 - a; c - a; 1 - t) = t**(a - 1), so lambda is
    # the Beta(a, c - a) density; for a > 1 it peaks inside (0, 1), where
    # lambda' = 0 < -lambda'' and the growth inequality fails, yet every
    # hypothesis row of the Hohlov theorem holds.  Sufficient conditions
    # only: the duality route certifies the transform
    text = "hohlov a=2 b=1 c=5"
    t = np.linspace(0.05, 0.95, 19)
    assert np.allclose(kernels.density(pc.parse_kernel(text), t),
                       12.0 * t * (1.0 - t)**2, rtol=1e-12, atol=0.0)
    args = ["--kernel", text, "--mu", "1", "--nu", "2", "--sigma", "0.1",
            "--xi", "1", "--format", "json"]
    assert cli.main(["check"] + args) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["hypothesis_check"]["all_satisfied"]
    assert report["failed"] == ["growth"]
    assert cli.main(["certify"] + args) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["failed"] == [] and report["m_functional"]["min"] > 0.0


# (kernel, kernel) texts that name the same density
SAME_DENSITY = [
    ("komatu c=-0.5 delta=1", "bernardi c=-0.5"),
    ("komatu c=1.5 delta=1", "bernardi c=1.5"),
    ("hohlov a=1 b=1 c=2", "bernardi c=0"),
    ("generalized A=1 B=0.5 C=4", "hohlov a=1 b=0.5 c=4"),
    ("generalized A=1 B=2 C=4.5", "hohlov a=1 b=2 c=4.5"),
]


def _values(kernel, p):
    rep = certify.run_certification(kernel, p)
    margins, _ = certify.condition_margins(kernel, p)
    return [rep.beta_integral, rep.m_functional_min, rep.membership_min,
            rep.sharpness_residual, margins["monotone"], margins["growth"]]


@pytest.mark.parametrize("texts", SAME_DENSITY, ids=" = ".join)
def test_family_identities(texts):
    # one density written by two families: beta, the functional minimum,
    # membership, sharpness and the condition margins agree to rounding
    for mu, nu, sigma, xi in ((1.0, 2.0, 0.1, 1.0), (2.0, 2.0, 0.3, 0.5),
                              (1.0, 5.0, 0.0, 0.25), (0.5, 3.0, 0.2, 0.0)):
        p = pc.ParameterSet.from_mu_nu(mu, nu, sigma, xi)
        one, two = (_values(pc.parse_kernel(t), p) for t in texts)
        for x, y in zip(one, two):
            if x is None or y is None:
                assert x is y
            else:
                assert abs(x - y) <= 1e-12 * max(1.0, abs(x)), (p, one, two)
