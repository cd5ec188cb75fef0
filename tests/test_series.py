import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pascucert import series
from pascucert.errors import DomainError, LengthMismatch, RadiusError

MU_NU = [(0.0, 1.0), (1.0, 1.0), (1.0, 2.0), (1.0, 4.0)]


@pytest.mark.parametrize("mu,nu", MU_NU)
def test_phi_psi_convolution_inverse(mu, nu):
    phi = series.phi_kernel(mu, nu, 80)
    psi = series.psi_kernel(mu, nu, 80)
    prod = series.hadamard(phi, psi)
    assert np.max(np.abs(prod.coeffs - 1.0)) < 1e-12


def test_phi_kernel_coefficients():
    phi = series.phi_kernel(1.0, 2.0, 4)
    # (n mu + 1)(n nu + 1)/(n + 1) at n = 0..4
    expect = [1.0, 2.0 * 3.0 / 2.0, 3.0 * 5.0 / 3.0, 4.0 * 7.0 / 4.0,
              5.0 * 9.0 / 5.0]
    assert np.allclose(phi.coeffs.real, expect)


def test_extremal_function_coefficients():
    beta = -2.0
    f = series.extremal_function(1.0, 2.0, beta, 6)
    assert f.coeffs[0] == 0.0 and f.coeffs[1] == 1.0
    n = np.arange(1, 6)
    expect = 2.0 * (1.0 - beta) / ((n * 1.0 + 1.0) * (n * 2.0 + 1.0))
    assert np.allclose(f.coeffs[2:].real, expect)
    assert f.normalized


def test_extremal_tail_bound_positive():
    f = series.extremal_function(1.0, 2.0, 0.0, 64)
    assert f.tail_bound > 0.0
    # tail bound dominates the next true coefficient at the tail radius
    nxt = 2.0 / ((64.0 + 1.0) * (2.0 * 64.0 + 1.0))
    assert f.tail_bound >= nxt * f.tail_radius**65


def test_apply_transform_scales_coefficients():
    f = series.extremal_function(1.0, 2.0, 0.0, 5)
    tau = np.array([0.5, 0.25, 0.125, 0.0625])
    g = series.apply_transform(f, tau)
    assert g.coeffs[1] == 1.0
    assert np.allclose(g.coeffs[2:], f.coeffs[2:] * tau[:4])


def test_apply_transform_requires_normalized():
    bad = series.from_coeffs([1.0, 1.0, 0.0])
    with pytest.raises(DomainError):
        series.apply_transform(bad, np.ones(4))


def test_apply_transform_length_mismatch():
    f = series.extremal_function(1.0, 2.0, 0.0, 10)
    with pytest.raises(LengthMismatch):
        series.apply_transform(f, np.ones(3))


def test_k_combination_limits():
    f = series.extremal_function(1.0, 2.0, -1.0, 8)
    assert np.allclose(series.k_combination(f, 0.0).coeffs, f.coeffs)
    k1 = series.k_combination(f, 1.0)
    n = np.arange(9)
    assert np.allclose(k1.coeffs, n * f.coeffs)  # z f'


def test_derivative_operators():
    f = series.from_coeffs([0.0, 1.0, 3.0, 5.0])
    zd = series.z_derivative(f)
    assert np.allclose(zd.coeffs, [0.0, 1.0, 6.0, 15.0])


def test_evaluate_matches_polynomial():
    f = series.from_coeffs([0.0, 1.0, -0.5, 0.25])
    z = 0.3 + 0.4j
    direct = sum(c * z**n for n, c in enumerate(f.coeffs))
    assert series.evaluate(f, z) == pytest.approx(direct, abs=1e-14)


def test_evaluate_outside_disk_raises():
    f = series.from_coeffs([0.0, 1.0])
    with pytest.raises(RadiusError):
        series.evaluate(f, 1.0 + 0j)
    with pytest.raises(RadiusError):
        series.evaluate(f, -1.000001)


def test_evaluate_near_minus_one_geometric():
    # 1/(1 - z) at z = -0.999 where plain summation of 400 terms is exact
    # enough but the averaged path must agree with the closed form too
    coeffs = np.ones(400)
    f = series.from_coeffs(coeffs)
    z = -0.999
    val = series.evaluate(f, z)
    assert val == pytest.approx(1.0 / (1.0 - z), rel=1e-10)


def test_evaluate_extrapolated_boundary_limit():
    # f = sum z^n/(n+1)^2 converges at z = 1; extrapolated value along the
    # positive axis approaches pi^2/6 within the truncation error
    n = np.arange(2000)
    f = series.from_coeffs(1.0 / (n + 1.0) ** 2)
    val = series.evaluate(f, 1.0, mode="extrapolated")
    assert val.real == pytest.approx(np.pi**2 / 6.0, abs=5e-3)


def test_evaluate_many_matches_scalar():
    f = series.from_coeffs([0.0, 1.0, 0.5, -0.25])
    z = np.array([0.1, -0.5 + 0.2j, 0.999j])
    many = series.evaluate_many(f, z)
    one = np.array([series.evaluate(f, zz) for zz in z])
    assert np.allclose(many, one)


def test_tail_estimate_scaling():
    f = series.from_coeffs([0.0, 1.0], tail_bound=1e-3, tail_radius=0.999)
    assert series.tail_estimate(f, 0.999) == pytest.approx(1e-3)
    assert series.tail_estimate(f, 0.5) < 1e-3


@given(st.lists(st.floats(-2, 2), min_size=2, max_size=12),
       st.lists(st.floats(-2, 2), min_size=2, max_size=12))
@settings(max_examples=60)
def test_hadamard_commutes(a, b):
    n = min(len(a), len(b))
    fa = series.from_coeffs(a[:n])
    fb = series.from_coeffs(b[:n])
    ab = series.hadamard(fa, fb).coeffs
    ba = series.hadamard(fb, fa).coeffs
    assert np.array_equal(ab, ba)


@given(st.floats(-0.9, 0.9), st.floats(-0.9, 0.9))
@settings(max_examples=60)
def test_evaluate_is_linear(x, y):
    z = complex(x, y) * 0.7
    f = series.from_coeffs([0.0, 1.0, 2.0, 3.0])
    g = series.from_coeffs([1.0, -1.0, 0.5, 0.0])
    both = series.from_coeffs(f.coeffs + g.coeffs)
    assert series.evaluate(both, z) == pytest.approx(
        series.evaluate(f, z) + series.evaluate(g, z), abs=1e-12)
