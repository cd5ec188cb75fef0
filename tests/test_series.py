import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pascucert import oracles
from pascucert.errors import DomainError
from pascucert.oracles import LengthMismatch, RadiusError

MU_NU = [(0.0, 1.0), (1.0, 1.0), (1.0, 2.0), (1.0, 4.0)]


@pytest.mark.parametrize("mu,nu", MU_NU)
def test_phi_psi_convolution_inverse(mu, nu):
    phi = oracles.phi_kernel(mu, nu, 80)
    psi = oracles.psi_kernel(mu, nu, 80)
    prod = oracles.hadamard(phi, psi)
    assert np.max(np.abs(prod.coeffs - 1.0)) < 1e-12


def test_phi_kernel_coefficients():
    phi = oracles.phi_kernel(1.0, 2.0, 4)
    # (n mu + 1)(n nu + 1)/(n + 1) at n = 0..4
    expect = [1.0, 2.0 * 3.0 / 2.0, 3.0 * 5.0 / 3.0, 4.0 * 7.0 / 4.0,
              5.0 * 9.0 / 5.0]
    assert np.allclose(phi.coeffs.real, expect)


def test_extremal_function_coefficients():
    beta = -2.0
    f = oracles.extremal_function(1.0, 2.0, beta, 6)
    assert f.coeffs[0] == 0.0 and f.coeffs[1] == 1.0
    n = np.arange(1, 6)
    expect = 2.0 * (1.0 - beta) / ((n * 1.0 + 1.0) * (n * 2.0 + 1.0))
    assert np.allclose(f.coeffs[2:].real, expect)
    assert f.normalized


def test_apply_transform_scales_coefficients():
    f = oracles.extremal_function(1.0, 2.0, 0.0, 5)
    tau = np.array([0.5, 0.25, 0.125, 0.0625])
    g = oracles.apply_transform(f, tau)
    assert g.coeffs[1] == 1.0
    assert np.allclose(g.coeffs[2:], f.coeffs[2:] * tau[:4])


def test_apply_transform_requires_normalized():
    bad = oracles.from_coeffs([1.0, 1.0, 0.0])
    with pytest.raises(DomainError):
        oracles.apply_transform(bad, np.ones(4))


def test_apply_transform_length_mismatch():
    f = oracles.extremal_function(1.0, 2.0, 0.0, 10)
    with pytest.raises(LengthMismatch):
        oracles.apply_transform(f, np.ones(3))


def test_k_combination_limits():
    f = oracles.extremal_function(1.0, 2.0, -1.0, 8)
    assert np.allclose(oracles.k_combination(f, 0.0).coeffs, f.coeffs)
    k1 = oracles.k_combination(f, 1.0)
    n = np.arange(9)
    assert np.allclose(k1.coeffs, n * f.coeffs)  # z f'


def test_derivative_operators():
    f = oracles.from_coeffs([0.0, 1.0, 3.0, 5.0])
    zd = oracles.z_derivative(f)
    assert np.allclose(zd.coeffs, [0.0, 1.0, 6.0, 15.0])


def test_evaluate_matches_polynomial():
    f = oracles.from_coeffs([0.0, 1.0, -0.5, 0.25])
    z = 0.3 + 0.4j
    direct = sum(c * z**n for n, c in enumerate(f.coeffs))
    assert oracles.evaluate(f, z) == pytest.approx(direct, abs=1e-14)


def test_evaluate_outside_disk_raises():
    f = oracles.from_coeffs([0.0, 1.0])
    with pytest.raises(RadiusError):
        oracles.evaluate(f, 1.0 + 0j)
    with pytest.raises(RadiusError):
        oracles.evaluate(f, -1.000001)


def test_evaluate_near_minus_one_geometric():
    # 1/(1 - z) at z = -0.999 where plain summation of 400 terms is exact
    # enough but the averaged path must agree with the closed form too
    coeffs = np.ones(400)
    f = oracles.from_coeffs(coeffs)
    z = -0.999
    val = oracles.evaluate(f, z)
    assert val == pytest.approx(1.0 / (1.0 - z), rel=1e-10)


def test_evaluate_many_matches_scalar():
    f = oracles.from_coeffs([0.0, 1.0, 0.5, -0.25])
    z = np.array([0.1, -0.5 + 0.2j, 0.999j])
    many = oracles.evaluate_many(f, z)
    one = np.array([oracles.evaluate(f, zz) for zz in z])
    assert np.allclose(many, one)


@given(st.lists(st.floats(-2, 2), min_size=2, max_size=12),
       st.lists(st.floats(-2, 2), min_size=2, max_size=12))
@settings(max_examples=60)
def test_hadamard_commutes(a, b):
    n = min(len(a), len(b))
    fa = oracles.from_coeffs(a[:n])
    fb = oracles.from_coeffs(b[:n])
    ab = oracles.hadamard(fa, fb).coeffs
    ba = oracles.hadamard(fb, fa).coeffs
    assert np.array_equal(ab, ba)


@given(st.floats(-0.9, 0.9), st.floats(-0.9, 0.9))
@settings(max_examples=60)
def test_evaluate_is_linear(x, y):
    z = complex(x, y) * 0.7
    f = oracles.from_coeffs([0.0, 1.0, 2.0, 3.0])
    g = oracles.from_coeffs([1.0, -1.0, 0.5, 0.0])
    both = oracles.from_coeffs(f.coeffs + g.coeffs)
    assert oracles.evaluate(both, z) == pytest.approx(
        oracles.evaluate(f, z) + oracles.evaluate(g, z), abs=1e-12)
