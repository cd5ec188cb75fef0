"""Admissible weight densities on (0, 1) and their derived envelopes.

_FAMILIES holds one entry per weight family: its names and parameter
keys, domain check and normalizer, endpoint exponents, the density
lambda (written once, from the exact views t, 1 - t and log(1/t) of a
point), lambda' and lambda'', the closed-form moments, and the theorem
that covers the family with its hypotheses.  make_kernel, density,
density_complement, density_derivatives, endpoint_exponents, the moments
and params.hypothesis_check only look the family up.  The Hohlov
factor 2F1(c - a, 1 - a; c - a - b + 1; 1 - t) is the double-precision
routine _hyp2f1c: the Gauss series away from t = 0, near it A&S 15.3.6,
its two series paired term by term where C - A - B is near an integer
(15.3.10-11 on one), and next to a zero of F there the Gauss series in
40-digit decimal arithmetic; _horner sums each route's Taylor polynomial
on an array in blocks of 8 coefficients, one BLAS dot product a block.
envelopes() computes the tail envelopes Lambda and Pi of the duality
criterion on a whole t-grid from one composite Gauss-Legendre rule in
y = -log t, 10 or 20 nodes a piece, from the literal node tables of
quadrature.gauss_legendre.
"""
from __future__ import annotations

import functools
import math
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import (ConfigError, CriticalPoint, DomainError, NotApplicable,
                     QuadratureFailure)
from .quadrature import gauss_legendre, integrate_01

_MAX_OMEGA_TERMS = 32


def value_text(v) -> str:
    """v as the shortest text that parses back to exactly v: {v:g} where
    it does, else the shortest repr."""
    return f"{v:g}" if float(f"{v:g}") == v else repr(float(v))


class KernelSpec(NamedTuple):
    """An immutable weight density description.

    params is a sorted tuple of (name, value) pairs; omega holds the
    polynomial coefficients of the envelope factor for the generalized
    family, leading 1 included.  normalizer is the constant in front of
    the density.
    """

    family: str
    params: tuple
    normalizer: float
    omega: tuple = ()

    @property
    def p(self) -> dict:
        return dict(self.params)

    def text(self) -> str:
        """Canonical flat-text form, reparsable by parse_kernel."""
        parts = [self.family]
        parts += [f"{k}={value_text(v)}" for k, v in self.params]
        for i, x in enumerate(self.omega[1:], start=1):
            if x != 0.0:
                parts.append(f"x{i}={value_text(x)}")
        return " ".join(parts)


# A Gauss series stops at the first term, taken at the largest argument
# x, below this share of the sum of absolute terms so far, once the term
# ratio there is at most (1 + x)/2 (so the omitted tail is at most
# (1 + x)/(1 - x) <= 7 such terms).
_SERIES_TOL = 2.0**-58
_SERIES_MAX_TERMS = 10000
# the Gauss series in 1 - d serves d >= _GAUSS_FROM, the connection
# formulas the rest; _far_plan moves the switch, up to 1/2 or down to
# _GAUSS_FLOOR, for parameters where one route loses digits at d = 1/4
_GAUSS_FROM = 0.25
_GAUSS_FLOOR = 1.0 / 64.0
_SWITCH_TOL = 1e-14
_EPS = np.finfo(float).eps
# C - A - B within this distance of an integer makes the two terms of A&S
# 15.3.6 cancel; _near_integer_terms pairs them up there
_NEAR_INTEGER = 0.05
# where the paired terms exceed |F| by this factor (next to a zero of F),
# and d >= _GAUSS_FLOOR, _gauss_decimal sums the Gauss series to this share
_CANCEL = 2.0**10
_DECIMAL_TOL = 1e-30
# _horner sums an array of x in blocks of this many coefficients (its
# table of powers x**0 .. x**7 is written for 8) from three blocks up;
# below that, on arrays of thousands of points, building the table costs
# more than the plain loop saves
_HORNER_BLOCK = 8
_BLOCKED_FROM = 3 * _HORNER_BLOCK


def _nonpositive_integer(x: float) -> bool:
    return x <= 0.0 and x == math.floor(x)


def _gamma_ratio(num, den) -> float:
    """prod Gamma(num) / prod Gamma(den); 1/Gamma vanishes at the poles.

    Summed in log-gamma, so a factor Gamma(x) of a tiny or large x does
    not overflow on its own.  An entry may be a pair (n, delta) from
    _split, whose Gamma next to a pole n < 0 comes from the exact delta:
    Gamma(n + delta) = Gamma(1 + delta) / prod_{j=n..0} (j + delta).
    """
    pairs = [[x if isinstance(x, tuple) else (0.0, x) for x in xs]
             for xs in (num, den)]
    if any(_nonpositive_integer(x) for n, x in pairs[1]):
        return 0.0
    log, sign = 0.0, 1.0
    for xs, side in zip(pairs, (1.0, -1.0)):
        for n, x in xs:
            if n:
                for j in range(int(n), 1):
                    log -= side * math.log(abs(j + x))
                    if j + x < 0.0:
                        sign = -sign
                x += 1.0
            log += side * math.lgamma(x)
            if x < 0.0 and math.floor(x) % 2:
                sign = -sign
    return sign * math.exp(log)


def _expm1_ratio(d: float, s):
    """(exp(d s) - 1)/d, continued by s at d = 0; s a scalar or an array."""
    return s if d == 0.0 else np.expm1(d * s) / d


def _lgamma_slope(z: float, x: float, n: float = 0.0) -> float:
    """(lgamma(n + z + x) - lgamma(n + z)) / x, psi(n + z) at x = 0, off
    the poles, with n an integer (so that z may be an exact offset from
    the pole n): log1p steps up to n + z >= 10, then Stirling's series,
    in which the slope of w**-p is -sum_{i<p} w**(i - p) (w + x)**(-1 - i).
    """
    acc, j = 0.0, n
    while j + z < 10.0:
        zj, j = j + z, j + 1
        u = x / zj
        acc -= ((math.log1p(u) / u if u else 1.0) / zj if abs(u) < 0.5
                else math.log(abs((zj + x) / zj)) / x)
    w = j + z
    acc += (w - 0.5) * (math.log1p(x / w) / x if x else 1.0 / w) \
        + math.log(w + x) - 1.0
    a, b = 1.0 / w, 1.0 / (w + x)
    h, bp = a * b, b  # h = sum_{i<p} a**(p - i) b**(i + 1), bp = b**p
    # Stirling's coefficients B_(p+1) / (p (p + 1)) of w**-p, p = 1 .. 13
    for bern in (1 / 12, 0, -1 / 360, 0, 1 / 1260, 0, -1 / 1680, 0,
                 1 / 1188, 0, -691 / 360360, 0, 1 / 156):
        acc -= bern * h
        bp *= b
        h = a * (h + bp)
    return acc


@functools.lru_cache(maxsize=512)
def _taylor(a: float, b: float, c: float, x_max: float) -> np.ndarray:
    """(a)_k (b)_k / ((c)_k k!) for k = 0 .. K, enough terms for the
    Gauss series at every |x| <= x_max < 1 (stop rule: _SERIES_TOL).

    A terminating series (a or b a nonpositive integer) stops at its last
    nonzero term; x_max = inf returns it whole, for any x.  The result is
    cached and read-only.
    """
    coef, size, power, k = [1.0], 1.0, 1.0, 0
    while True:
        num = (a + k) * (b + k)
        if num == 0.0:
            return _frozen(coef)
        ratio = num / ((c + k) * (k + 1.0))
        coef.append(coef[-1] * ratio)
        k += 1
        if k > _SERIES_MAX_TERMS:
            raise DomainError(
                f"2F1({a}, {b}; {c}) series needs over {_SERIES_MAX_TERMS}"
                " terms")
        if x_max == math.inf:
            continue
        power *= x_max
        term = abs(coef[-1]) * power
        if term <= _SERIES_TOL * size \
                and abs(ratio) * x_max <= 0.5 * (1.0 + x_max):
            return _frozen(coef)
        size += term


def _frozen(values) -> np.ndarray:
    out = np.array(values, dtype=float)
    out.setflags(write=False)
    return out


def _horner(coef: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_k coef[k] x**k at every x, for K = len(coef) coefficients.

    One x: Horner's rule in Python floats.  An array of x: Horner's rule
    in numpy below _BLOCKED_FROM coefficients, else blocks of
    _HORNER_BLOCK (Paterson & Stockmeyer): the powers x**0 .. x**7 once,
    the value of each block of 8 coefficients one dot product with them,
    and Horner's rule in y = x**8 over the block values, some 3K/8 + 8
    numpy calls in place of 2K.  Every path errs by at most about
    2 (K + 8) eps sum_k |coef[k]| |x|**k; the one-point and the blocked
    path round in different orders.
    """
    if x.size == 1:
        acc, xv = float(coef[-1]), float(x.flat[0])
        for c in coef[-2::-1].tolist():
            acc = acc * xv + c
        return np.full_like(x, acc)
    if coef.size < _BLOCKED_FROM:
        acc = np.full_like(x, coef[-1])
        for c in coef[-2::-1]:
            acc *= x
            acc += c
        return acc
    flat = x.ravel()
    powers = np.empty((_HORNER_BLOCK, flat.size))
    powers[0] = 1.0
    powers[1] = flat
    np.multiply(flat, flat, out=powers[2])
    np.multiply(powers[2], flat, out=powers[3])
    np.multiply(powers[2], powers[2], out=powers[4])
    np.multiply(powers[1:4], powers[4], out=powers[5:])
    y = powers[4] * powers[4]
    top = (coef.size - 1) // _HORNER_BLOCK * _HORNER_BLOCK
    acc = coef[top:].dot(powers[:coef.size - top])
    for j in range(top - _HORNER_BLOCK, -1, -_HORNER_BLOCK):
        acc *= y
        acc += coef[j:j + _HORNER_BLOCK].dot(powers)
    return acc.reshape(x.shape)


def _terminates(a: float, b: float) -> bool:
    """Whether 2F1(a, b; c; x) is a polynomial in x."""
    return _nonpositive_integer(a) or _nonpositive_integer(b)


def _hyp2f1c(A, B, C, d):
    """2F1(A, B; C; 1 - d) from the distance d in (0, 1].

    Taking the distance instead of the argument keeps the singular branch
    d**(C - A - B) exact when d is below machine epsilon, where the
    argument itself would round to 1.  Scalars or arrays of d; C must
    not be a nonpositive integer.  The routes (Abramowitz & Stegun):

    - A or B a nonpositive integer: the finite polynomial (_polynomial),
      after Euler's transformation when that one terminates too, so a
      zero of order C - A - B at d = 0 stays exact.
    - d at or above the switch of _far_plan (1/4, or 1/2 to 1/64 for
      some parameters): the Gauss series in 1 - d, directly or after
      Euler's transformation F(A, B; C; z) = d**(C - A - B)
      F(C - A, C - B; C; z), and next to a zero of F the Gauss series
      in decimal arithmetic (_gauss_far).
    - below: _hyp2f1_near_one, the 1 - z connection formula 15.3.6,
      whose series all run in d; where C - A - B lies within
      _NEAR_INTEGER of an integer, its two series paired term by term,
      and next to a zero of F the Gauss series in decimal arithmetic.
    """
    if _nonpositive_integer(C):
        raise DomainError(f"2F1 needs C = {C} off the nonpositive integers")
    d_arr = np.asarray(d, dtype=float).ravel()
    if _terminates(A, B):
        s = C - A - B
        if s > 0.0 and _terminates(C - A, C - B):
            # the polynomial has the zero d**s at d = 0, which Euler's
            # transformation takes out exactly
            out = d_arr**s * _polynomial(C - A, C - B, C, d_arr, A, B)
        else:
            out = _polynomial(A, B, C, d_arr, C - A, C - B)
    else:
        out = np.empty_like(d_arr)
        switch, euler = _far_plan(A, B, C)
        far = d_arr >= switch
        if np.any(far):
            out[far] = _gauss_far(A, B, C, d_arr[far], switch, euler)
        if not np.all(far):
            out[~far] = _hyp2f1_near_one(A, B, C, d_arr[~far], switch)
    return out.reshape(np.shape(d)) if np.ndim(d) else float(out[0])


def _polynomial(A, B, C, d, C_A, C_B):
    """A terminating 2F1(A, B; C; 1 - d), A or B = -N, in powers of
    1 - d or in powers of d (Chu-Vandermonde, from the exact C_A = C - A
    and C_B = C - B),

    F = sum_k binom(N, k) (B)_k (C - B)_(N - k) d**k / (C)_N,

    at each d the one whose terms cancel less.
    """
    if not _nonpositive_integer(A) or (_nonpositive_integer(B) and B > A):
        A, B, C_B = B, A, C_A
    n = int(-A)
    coef = _taylor(A, B, C, math.inf)
    value = _horner(coef, 1.0 - d)
    j = np.arange(float(n))
    coef_d = np.cumprod(np.append(1.0, (n - j) * (B + j) / (j + 1.0))) \
        * np.cumprod(np.append(1.0, C_B + j))[::-1] / np.prod(C + j)
    value_d = _horner(coef_d, d)
    better = _horner(np.abs(coef_d), d) * np.abs(value) \
        < _horner(np.abs(coef), 1.0 - d) * np.abs(value_d)
    return np.where(better, value_d, value)


def _gauss(A, B, C, d, euler, z_max, absolute=False):
    """The Gauss series in z = 1 - d <= z_max at every d, directly or
    (euler) after Euler's transformation; absolute sums |terms| instead."""
    z = 1.0 - d
    a, b = (C - A, C - B) if euler else (A, B)
    coef = _taylor(a, b, C, z_max)
    out = _horner(np.abs(coef) if absolute else coef, z)
    return d ** (C - A - B) * out if euler else out


def _gauss_far(A, B, C, d, switch, euler):
    """The Gauss series of _far_plan at every d >= switch.  Where its
    terms exceed |F| by _CANCEL, next to a zero of F, they cancel to
    fewer digits than F needs, and _gauss_decimal takes the point.  The
    terms at d are at most _far_size; only where that bound exceeds
    _CANCEL |F| are a point's own terms summed."""
    out = _gauss(A, B, C, d, euler, 1.0 - switch)
    maybe = np.flatnonzero(_far_size(A, B, C) > _CANCEL * np.abs(out))
    if maybe.size:
        size = _gauss(A, B, C, d[maybe], euler, 1.0 - switch, absolute=True)
        for i in maybe[size > _CANCEL * np.abs(out[maybe])]:
            out[i] = _gauss_decimal(A, B, C, d[i])
    return out


@functools.lru_cache(maxsize=256)
def _far_size(A, B, C):
    """A bound on the summed |terms| of the Gauss series of _far_plan at
    every d >= switch: their sum at the switch, where each power of 1 - d
    is largest, times the largest d**(C - A - B) of Euler's form there."""
    switch, euler = _far_plan(A, B, C)
    a, b = (C - A, C - B) if euler else (A, B)
    coef = _taylor(a, b, C, 1.0 - switch)
    size = float(np.abs(coef) @ (1.0 - switch) ** np.arange(coef.size))
    return size * max(1.0, switch ** (C - A - B)) if euler else size


@functools.lru_cache(maxsize=256)
def _far_plan(A, B, C):
    """(switch, euler): the Gauss series serves d >= switch, after
    Euler's transformation if euler; the connection formulas serve the
    rest.

    Of the two Gauss forms the plan takes the one whose terms cancel less
    at d = _GAUSS_FROM.  The connection formulas lose digits as d grows
    (their large terms are damped by d**k); the Gauss series needs more
    terms as d falls, and loses digits where its terms alternate and
    cancel (sum of |terms| above _SWITCH_TOL/eps times the value).  If
    the Gauss terms cancel at 1/4, the switch rises to 1/2 where both
    routes agree to _SWITCH_TOL relative there.  Otherwise it halves from
    1/4, down to _GAUSS_FLOOR, while the routes differ by more than that
    at the switch and the Gauss series at the next switch would not
    cancel.
    """
    def spread(d, euler):
        x = np.array([d])
        with np.errstate(divide="ignore", invalid="ignore"):
            return _gauss(A, B, C, x, euler, 1.0 - d, absolute=True)[0] \
                / abs(_gauss(A, B, C, x, euler, 1.0 - d)[0])

    def agree(d, euler):
        x = np.array([d])
        gauss = _gauss(A, B, C, x, euler, 1.0 - d)[0]
        near = _hyp2f1_near_one(A, B, C, x, d)[0]
        return abs(near - gauss) <= _SWITCH_TOL * abs(gauss)

    d = _GAUSS_FROM
    euler = spread(d, True) < spread(d, False)
    if spread(d, euler) * _EPS > _SWITCH_TOL and agree(2.0 * d, euler):
        return 2.0 * d, euler
    while not agree(d, euler):
        lower = 0.5 * d
        if lower < _GAUSS_FLOOR \
                or spread(lower, euler) * _EPS > _SWITCH_TOL:
            break
        d = lower
    return d, euler


def _hyp2f1_near_one(A, B, C, d, x_max):
    """2F1(A, B; C; 1 - d) for an array of d in (0, x_max], x_max <= 1/2,
    A and B not nonpositive integers.  With s = C - A - B and m the
    integer nearest s:

    - s not within _NEAR_INTEGER of m: A&S 15.3.6, two Gauss series in
      d, with d**s taken from d itself.
    - |s - m| < _NEAR_INTEGER, s = m included: the polynomial after
      Euler's transformation F(A, B; C; z) = d**s F(C - A, C - B; C; z)
      where that terminates, else the two series of 15.3.6 paired term
      by term (_near_integer_terms; 15.3.10-11 at s = m).  Where the
      paired terms, bounded by their sizes at x_max, exceed |F| by
      _CANCEL (next to a zero of F) and d >= _GAUSS_FLOOR,
      _gauss_decimal takes the point.
    """
    s = math.fsum((C, -A, -B))
    m = round(s)
    if abs(math.fsum((C, -A, -B, -m))) >= _NEAR_INTEGER:
        g1 = _gamma_ratio((C, s), (C - A, C - B))
        g2 = _gamma_ratio((C, -s), (A, B))
        return (g1 * _horner(_taylor(A, B, 1.0 - s, x_max), d) + g2 * d**s
                * _horner(_taylor(C - A, C - B, 1.0 + s, x_max), d))
    if _terminates(C - A, C - B):
        return d**s * _polynomial(C - A, C - B, C, d, A, B)
    coef, coef_b, g, g_rho, ell, eps, m, power = \
        _near_integer_terms(A, B, C, x_max)
    log_d = np.log(d)
    slope = ((g_rho * d**eps - g) / eps if ell is None
             else g * _expm1_ratio(eps, ell + log_d))
    ratio, d_m = _expm1_ratio(eps, log_d), d**m
    out = _horner(coef, d) + d_m * (slope + ratio * _horner(coef_b, d))
    # the paired terms at d are at most their sizes at x_max; where these
    # exceed |F| by _CANCEL, next to a zero of F, the terms may cancel
    head, tail = (np.abs(c) @ x_max ** np.arange(c.size)
                  for c in (coef, coef_b))
    size = head + d_m * (np.abs(slope) + np.abs(ratio) * tail)
    poor = (size > _CANCEL * np.abs(out)) & (d >= _GAUSS_FLOOR)
    out *= d**power
    for i in np.flatnonzero(poor):
        out[i] = _gauss_decimal(A, B, C, d[i])
    return out


def _gauss_decimal(A, B, C, d):
    """2F1(A, B; C; 1 - d) from the Gauss series summed in 40-digit
    decimal arithmetic, in which A, B, C and d are exact; d >=
    _GAUSS_FLOOR keeps it to some thousand terms."""
    import decimal

    with decimal.localcontext() as context:
        context.prec = 40
        a, b, c, tol = map(decimal.Decimal, (A, B, C, _DECIMAL_TOL))
        z = 1 - decimal.Decimal(d)
        term = total = size = decimal.Decimal(1)
        for k in range(_SERIES_MAX_TERMS):
            ratio = (a + k) * (b + k) / ((c + k) * (k + 1)) * z
            term *= ratio
            total += term
            size += abs(term)
            if abs(term) <= tol * size \
                    and abs(ratio) <= (1 + z) / 2:
                return float(total)
    raise DomainError(f"2F1({A}, {B}; {C}) series at d = {d} needs over"
                      f" {_SERIES_MAX_TERMS} terms")


def _split(parts) -> tuple:
    """The exact sum x of parts as (n, delta): n the pole of Gamma
    nearest x (0 for x > 1/2) and delta = x - n, rounded once."""
    n = min(0.0, float(round(math.fsum(parts))))
    return n, math.fsum(parts + (-n,))


def _plus(x: tuple, k) -> float:
    """n + delta + k for a pair x = (n, delta) from _split."""
    return (x[0] + k) + x[1]


def _off_pole(z: tuple, z_eps: tuple) -> bool:
    """Whether the pairs z and z_eps = z + eps (from _split) lie within a
    factor 2 of each other in their distance from the pole of Gamma
    nearest z, so that Gamma has one sign at both and their lgamma slope
    cancels nothing."""
    return 0.5 <= ((z_eps[0] - z[0]) + z_eps[1]) / z[1] <= 2.0


@functools.lru_cache(maxsize=256)
def _near_integer_terms(A, B, C, x_max):
    """The d-free parts of 2F1(A, B; C; 1 - d), s = C - A - B = m + eps,
    |eps| < _NEAR_INTEGER: 15.3.6 with term m + k of its first series and
    term k of its second summed as one, for m < 0 after Euler's
    transformation (then power = s, else 0).  The pairs add up to
    g sum_k d**(m + k) [e_k(0) Df_k + f_k(0) De_k], where g = -(-1)**m
    pi eps / sin(pi eps) Gamma(C) (A)_m (B)_m / (Gamma(C - A) Gamma(C - B)
    m!), e_k(x) = (A + m)_(k + x) (B + m)_(k + x) / (1 + m)_(k + x) d**x,
    f_k(y) = 1/Gamma(1 + k + y), De_k is the slope of e_k from 0 to eps
    and Df_k that of f_k from 0 to -eps (15.3.10-11 at eps = 0).  coef
    holds the first m terms of the first series, then the coefficients
    of d**(m + k); coef_b those of (d**eps - 1)/eps d**(m + k).  Left out
    is g De_0 = (g_rho d**eps - g)/eps = g expm1(eps (ell + log d))/eps,
    g_rho taken directly (ell None) where A + m or B + m is within about
    2 eps of a pole of Gamma.  The slopes advance by the term ratios
    r(x), with (r(eps) - r(0))/eps formed algebraically.
    """
    s = math.fsum((C, -A, -B))
    m = round(s)
    eps = math.fsum((C, -A, -B, -m))
    if m < 0:  # C - A and C - B are carried exactly through Euler's swap
        parts = ((C, -A), (C, -B), (A,), (B,))
        m, eps, power = -m, -eps, s
    else:
        parts, power = ((A,), (B,), (C, -A), (C, -B)), 0.0
    # A, B, A + m, B + m, C - A and C - B as pairs (n, delta) from their
    # exact parts, which keeps them exact next to a pole of Gamma
    A_, B_, C_A, C_B = (_split(x) for x in parts)
    A_m, B_m = _split(parts[0] + (m,)), _split(parts[1] + (m,))
    coef = [_gamma_ratio((C, m + eps), (C_A, C_B))] if m else []
    for n in range(m - 1):
        coef.append(coef[-1] * _plus(A_, n) * _plus(B_, n)
                    / ((n + 1.0 - m - eps) * (n + 1.0)))
    pe = math.pi * eps
    g0 = (1.0 if m % 2 else -1.0) * (pe / math.sin(pe) if eps else 1.0) \
        * math.prod(_plus(A_, j) * _plus(B_, j) / (j + 1.0)
                    for j in range(m))
    g = g0 * _gamma_ratio((C,), (C_A, C_B))
    if _off_pole(A_m, C_B) and _off_pole(B_m, C_A):
        ell = (_lgamma_slope(A_m[1], eps, A_m[0])
               + _lgamma_slope(B_m[1], eps, B_m[0])
               - _lgamma_slope(1.0 + m, eps))
        g_rho, dq = g * math.exp(eps * ell), g * _expm1_ratio(eps, ell)
    else:  # Gamma(C - A) Gamma(C - B) cancels, so neither can overflow
        ell = None
        g_rho = g0 * _gamma_ratio((C, 1.0 + m), (A_m, B_m, 1.0 + m + eps))
        dq = (g_rho - g) / eps
    # g e_k(0), g e_k(eps) / d**eps, f_k(0), Df_k and
    # dq = g (De_k - (d**eps - 1)/eps e_k(eps))
    q0, qe, f, df = g, g_rho, 1.0, -_expm1_ratio(eps,
                                                 _lgamma_slope(1.0, -eps))
    coef, coef_b = coef + [g * df], [0.0]
    size, x, k = abs(g * df) + abs(dq) + abs(g_rho), 1.0, 0
    while k <= _SERIES_MAX_TERMS:
        a, b, c = _plus(A_m, k), _plus(B_m, k), 1.0 + m + k
        ratio = a * b / c
        ratio_eps = _plus(C_A, k) * _plus(C_B, k) / (c + eps)
        dq = ratio_eps * dq \
            + q0 * ((a + b + eps) * c - a * b) / (c * (c + eps))
        q0, qe, f, df = (q0 * ratio, qe * ratio_eps, f / (k + 1.0),
                         (df - f / (k + 1.0)) / (k + 1.0 - eps))
        k += 1
        coef.append(q0 * df + f * dq)
        coef_b.append(f * qe)
        x *= x_max
        term = (abs(coef[-1]) + abs(coef_b[-1])) * x
        if term <= _SERIES_TOL * size \
                and abs(ratio / k) * x_max <= 0.5 * (1.0 + x_max):
            return (_frozen(coef), _frozen(coef_b), g, g_rho, ell, eps, m,
                    power)
        size += term
    raise DomainError(f"2F1({A}, {B}; {C}) near s = {m} needs over"
                      f" {_SERIES_MAX_TERMS} terms")


def _hyp2f1_factors(kernel: KernelSpec):
    """The hypergeometric factor and its first two argument-derivatives,
    as functions of the distance d = 1 - u of the argument from 1."""
    a, b, c = (kernel.p[k] for k in ("a", "b", "c"))
    p1, p2, p3 = c - a, 1.0 - a, c - a - b + 1.0

    def f0(d):
        return _hyp2f1c(p1, p2, p3, d)

    def f1(d):
        if p1 * p2 == 0.0:  # the factor is the constant 1
            return np.zeros(np.shape(d))
        return p1 * p2 / p3 * _hyp2f1c(p1 + 1, p2 + 1, p3 + 1, d)

    def f2(d):
        if p1 * p2 == 0.0:
            return np.zeros(np.shape(d))
        return (p1 * (p1 + 1) * p2 * (p2 + 1) / (p3 * (p3 + 1))
                * _hyp2f1c(p1 + 2, p2 + 2, p3 + 2, d))

    return f0, f1, f2


# ---------------------------------------------------------------------------
# the family table and its per-family formulas

def _bernardi_check(p):
    if p["c"] <= -1.0:
        raise DomainError("bernardi needs c > -1")
    return 1.0 + p["c"]


def _bernardi_slopes(k, t, d, ln, g):
    n, c = k.normalizer, k.p["c"]
    return n * c * t ** (c - 1.0), n * c * (c - 1.0) * t ** (c - 2.0)


def _komatu_check(p):
    c, delta = p["c"], p["delta"]
    if c <= -1.0 or delta <= 0.0:
        raise DomainError("komatu needs c > -1 and delta > 0")
    # in log form: Gamma(delta) overflows past delta = 171.6
    return math.exp(delta * math.log1p(c) - math.lgamma(delta))


def _komatu_slopes(k, t, d, ln, g):
    n, c, dl = k.normalizer, k.p["c"], k.p["delta"]
    return (n * t ** (c - 1.0) * ln ** (dl - 2.0) * (c * ln - (dl - 1.0)),
            n * t ** (c - 2.0) * ln ** (dl - 3.0) * (
                c * (c - 1.0) * ln**2 - (dl - 1.0) * (2.0 * c - 1.0) * ln
                + (dl - 1.0) * (dl - 2.0)))


def _shaped(shape, factor, derivatives):
    """The factor, lam and slopes entries of the Hohlov and generalized
    shape N t**(b - 1) (1 - t)**q g, (b, q) = shape(p): g = factor(k, t, d)
    is a function of 1 - t, with derivatives(k, t, d) its first two
    derivatives in 1 - t (so d/dt g = -g1)."""
    def lam(k, t, d, ln, g):
        b, q = shape(k.p)
        return k.normalizer * t ** (b - 1.0) * d**q * g

    def slopes(k, t, d, ln, g0):
        b, q = shape(k.p)
        g1, g2 = derivatives(k, t, d)
        tb = t ** (b - 1.0)
        tb1 = (b - 1.0) * t ** (b - 2.0)
        tb2 = (b - 1.0) * (b - 2.0) * t ** (b - 3.0)
        uq = d**q
        uq1 = -q * d ** (q - 1.0)
        uq2 = q * (q - 1.0) * d ** (q - 2.0)
        n = k.normalizer
        return (n * (tb1 * uq * g0 + tb * uq1 * g0 - tb * uq * g1),
                n * (tb2 * uq * g0 + 2.0 * tb1 * uq1 * g0
                     - 2.0 * tb1 * uq * g1 + tb * uq2 * g0
                     - 2.0 * tb * uq1 * g1 + tb * uq * g2))

    return dict(factor=factor, lam=lam, slopes=slopes)


def _hohlov_check(p):
    a, b, c = p["a"], p["b"], p["c"]
    if min(a, b, c) <= 0.0:
        raise DomainError("hohlov needs a, b, c > 0")
    if c - a - b <= -1.0:
        raise DomainError("hohlov needs c - a - b > -1")
    return _gamma_ratio((c,), (a, b, c - a - b + 1.0))


def _hohlov_moments(k, n):
    # the coefficients (a)_n (b)_n / ((c)_n n!) of the Hohlov operator, the
    # Hadamard product with z 2F1(a, b; c; z), as a running product of the
    # term ratios
    a, b, c = k.p["a"], k.p["b"], k.p["c"]
    j = n - 1.0
    return np.cumprod((a + j) * (b + j) / ((c + j) * n))


def _two_param_log_check(p):
    if p["a"] <= -1.0 or p["b"] <= -1.0:
        raise DomainError("two_param_log needs a, b > -1")
    a, b = sorted((p["a"], p["b"]))
    p["a"], p["b"] = a, b
    if b == a:
        return (a + 1.0) ** 2
    return (a + 1.0) * (b + 1.0) / (b - a)


def _two_param_log_lam(k, t, d, ln, g):
    a, b = k.p["a"], k.p["b"]
    if a == b:
        return k.normalizer * t**a * ln
    # t**a - t**b = -t**a expm1((b - a) log t), stable for small d
    return k.normalizer * t**a * -np.expm1((a - b) * ln)


def _two_param_log_slopes(k, t, d, ln, g):
    n, a, b = k.normalizer, k.p["a"], k.p["b"]
    if a == b:
        return (n * t ** (a - 1.0) * (a * ln - 1.0),
                n * t ** (a - 2.0) * (a * (a - 1.0) * ln - (2.0 * a - 1.0)))
    return (n * (a * t ** (a - 1.0) - b * t ** (b - 1.0)),
            n * (a * (a - 1.0) * t ** (a - 2.0)
                 - b * (b - 1.0) * t ** (b - 2.0)))


def _two_param_log_moments(k, n):
    a, b = k.p["a"], k.p["b"]
    if a == b:
        return k.normalizer / (n + a + 1.0) ** 2
    return k.normalizer * (b - a) / ((n + a + 1.0) * (n + b + 1.0))


def _ali_singh_check(p):
    if not 0.0 <= p["k"] < 1.0:
        raise DomainError("ali_singh needs 0 <= k < 1")
    return 0.5 * (1.0 - p["k"]) * (3.0 - p["k"])


def _ali_singh_slopes(k, t, d, ln, g):
    n, s = k.normalizer, k.p["k"]
    return (n * (-s * t ** (-s - 1.0) - (2.0 - s) * t ** (1.0 - s)),
            n * (s * (s + 1.0) * t ** (-s - 2.0)
                 - (2.0 - s) * (1.0 - s) * t**-s))


_OMEGA_KEYS = tuple(f"x{i}" for i in range(1, _MAX_OMEGA_TERMS + 1))


def _omega_check(p):
    aa, bb, cc = p["A"], p["B"], p["C"]
    if bb <= 0.0 or cc - aa - bb <= -1.0:
        raise DomainError("generalized_omega needs B > 0 and C - A - B > -1")
    omega = [1.0] + [p.get(key, 0.0) for key in _OMEGA_KEYS]
    while len(omega) > 1 and omega[-1] == 0.0:
        omega.pop()
    if any(x < 0.0 for x in omega):
        raise DomainError("omega coefficients must be nonnegative")
    q = cc - aa - bb
    mass = sum(x * _beta_fn(bb, q + j + 1.0) for j, x in enumerate(omega))
    return 1.0 / mass, tuple(omega)


def _omega_shape(p):
    return p["B"], p["C"] - p["A"] - p["B"]


def _omega(k, t, d, order=0):
    """omega at 1 - t = d, or its order-th derivative there.

    The derivative takes the coefficients j c_j one order at a time, as
    numpy's polyder does, so the two agree bit for bit; past the degree
    it is the zero polynomial."""
    coef = np.array(k.omega)
    for _ in range(order):
        coef = coef[1:] * np.arange(1.0, len(coef))
    return _horner(coef if coef.size else np.zeros(1), d)


def _omega_moments(k, n):
    # B(B + n, y) = B(B, y) prod_{j<n} (B + j)/(B + j + y)
    bb, q = _omega_shape(k.p)
    j = n - 1.0
    out = np.zeros_like(n)
    for i, x in enumerate(k.omega):
        y = q + i + 1.0
        out += x * _beta_fn(bb, y) * np.cumprod((bb + j) / (bb + j + y))
    return k.normalizer * out


# Hypothesis rows (name, margin(p, s)): p holds the family parameters, s
# the scalars gamma, mu, xi, sigma, ratio = 1/xi + 2/mu - 1/nu and
# sigma_max = the sigma bound (NaN unless nu >= mu >= 1), from
# params.hypothesis_check.  A hypothesis holds iff its margin is >= 0.
_GAMMA_MU = (("gamma > 0", lambda p, s: s.gamma),
             ("mu >= 1", lambda p, s: s.mu - 1.0))
_RATIO = ("1/xi + 2/mu - 1/nu >= 2", lambda p, s: s.ratio - 2.0)
_XI = ("xi > 0", lambda p, s: s.xi)
_SIGMA = (("sigma >= 0", lambda p, s: s.sigma),
          ("sigma <= bound(mu, nu)", lambda p, s: s.sigma_max - s.sigma))


def _ali_singh_k(margin):
    """A row on the k the theorem requires, 1 - ratio; -inf where the
    ratio is not finite."""
    return lambda p, s: (margin(p["k"], 1.0 - s.ratio)
                         if math.isfinite(s.ratio) else -math.inf)


class _Family(NamedTuple):
    """What the module knows about one weight family.

    names: accepted names, canonical first.  keys: required parameters, in
    KernelSpec.params order; extra: optional ones.  check(p) raises
    DomainError outside the domain, else returns the normalizer (with
    omega for the generalized family); it may reorder p.  exponents(p):
    (p, q) with lambda ~ t**p at 0, ~ (1 - t)**q at 1.  lam and slopes
    (-> lambda', lambda'') take (k, t, d, ln, g): t, d = 1 - t and
    ln = log(1/t), each exact from the caller's side, and g = factor(k, t,
    d), the 2F1 or omega factor, once per point.  moments(k, n): tau_n for
    the array n = 1 .. nmax.  theorem: the id of the theorem covering the
    family, and hypotheses its rows (name, margin(p, s)) in report order.
    """

    names: tuple
    keys: tuple
    check: Callable
    exponents: Callable
    lam: Callable
    slopes: Callable
    moments: Callable
    theorem: Optional[str] = None
    hypotheses: tuple = ()
    factor: Optional[Callable] = None
    extra: tuple = ()


_FAMILIES = {entry.names[0]: entry for entry in (
    _Family(
        names=("bernardi",), keys=("c",), check=_bernardi_check,
        exponents=lambda p: (p["c"], 0.0),
        lam=lambda k, t, d, ln, g: k.normalizer * t ** k.p["c"],
        slopes=_bernardi_slopes,
        moments=lambda k, n: k.normalizer / (n + k.p["c"] + 1.0)),
    _Family(
        names=("komatu",), keys=("c", "delta"), check=_komatu_check,
        exponents=lambda p: (p["c"], p["delta"] - 1.0),
        lam=lambda k, t, d, ln, g: (k.normalizer * t ** k.p["c"]
                                    * ln ** (k.p["delta"] - 1.0)),
        slopes=_komatu_slopes,
        moments=lambda k, n: ((1.0 + k.p["c"]) / (n + k.p["c"] + 1.0))
        ** k.p["delta"],
        theorem="komatu", hypotheses=(
            *_GAMMA_MU,
            ("c > -1", lambda p, s: p["c"] + 1.0),
            ("c <= 0", lambda p, s: -p["c"]),
            ("delta >= 3 - c", lambda p, s: p["delta"] - (3.0 - p["c"])),
            _RATIO, *_SIGMA)),
    _Family(
        names=("hohlov",), keys=("a", "b", "c"), check=_hohlov_check,
        # for a < b the hypergeometric factor contributes t**(a - b) at 0
        exponents=lambda p: (min(p["a"], p["b"]) - 1.0,
                             p["c"] - p["a"] - p["b"]),
        # the 2F1 factors take the distance of 1 - t from 1, exactly t
        **_shaped(lambda p: (p["b"], p["c"] - p["a"] - p["b"]),
                  lambda k, t, d: _hyp2f1_factors(k)[0](t),
                  lambda k, t, d: [f(t) for f in _hyp2f1_factors(k)[1:]]),
        moments=_hohlov_moments, theorem="hohlov", hypotheses=(
            *_GAMMA_MU,
            ("a > 0", lambda p, s: p["a"]),
            ("b > 0", lambda p, s: p["b"]),
            ("c > 0", lambda p, s: p["c"]),
            ("b <= 1", lambda p, s: 1.0 - p["b"]),
            ("c >= a + 3", lambda p, s: p["c"] - p["a"] - 3.0),
            _RATIO, *_SIGMA)),
    _Family(
        names=("two_param_log", "twoparamlog"), keys=("a", "b"),
        check=_two_param_log_check,
        exponents=lambda p: (p["a"], 1.0),
        lam=_two_param_log_lam, slopes=_two_param_log_slopes,
        moments=_two_param_log_moments, theorem="two_param_log",
        hypotheses=(
            *_GAMMA_MU, _XI,
            ("a > -1", lambda p, s: min(p["a"], p["b"]) + 1.0),
            ("a <= 0", lambda p, s: -min(p["a"], p["b"])),
            *_SIGMA)),
    _Family(
        names=("ali_singh", "alisingh"), keys=("k",), check=_ali_singh_check,
        exponents=lambda p: (-p["k"], 1.0),
        # 1 - t**2 = d (2 - d)
        lam=lambda k, t, d, ln, g: (k.normalizer * t ** -k.p["k"] * d
                                    * (2.0 - d)),
        slopes=_ali_singh_slopes,
        moments=lambda k, n: k.normalizer * (1.0 / (n + 1.0 - k.p["k"])
                                             - 1.0 / (n + 3.0 - k.p["k"])),
        theorem="ali_singh", hypotheses=(
            *_GAMMA_MU, _XI,
            ("k = 1 - 1/xi - 2/mu + 1/nu",
             _ali_singh_k(lambda k, required: -abs(k - required))),
            ("k >= 0", _ali_singh_k(lambda k, required: required)),
            ("k < 1", _ali_singh_k(lambda k, required: 1.0 - required)),
            ("sigma = 1/2", lambda p, s: -abs(s.sigma - 0.5)))),
    _Family(
        names=("generalized_omega", "generalized", "genomega"),
        keys=("A", "B", "C"), extra=_OMEGA_KEYS, check=_omega_check,
        exponents=lambda p: (p["B"] - 1.0, p["C"] - p["A"] - p["B"]),
        **_shaped(_omega_shape, _omega,
                  lambda k, t, d: [_omega(k, t, d, j) for j in (1, 2)]),
        moments=_omega_moments, theorem="generalized", hypotheses=(
            *_GAMMA_MU,
            ("B <= 1", lambda p, s: 1.0 - p["B"]),
            ("C >= A + 3", lambda p, s: p["C"] - p["A"] - 3.0),
            _RATIO, *_SIGMA)),
)}


def _family(name: str):
    """(canonical name, table entry) of an accepted family name."""
    key = name.strip().lower().replace("-", "_")
    for entry in _FAMILIES.values():
        if key in entry.names:
            return entry.names[0], entry
    raise ConfigError(f"unknown kernel family {name!r}")


def make_kernel(family: str, **params) -> KernelSpec:
    """Validate family parameters (an unknown one is a ConfigError),
    normalize, and verify the mass is 1."""
    family, entry = _family(family)
    unknown = sorted(set(params) - set(entry.keys + entry.extra))
    if unknown:
        raise ConfigError(f"{family} takes no parameter {unknown[0]!r}")
    p = {key: float(v) for key, v in params.items()}
    for key in entry.keys:
        if key not in p:
            raise DomainError(f"missing kernel parameter {key!r}")
    norm = entry.check(p)
    norm, omega = norm if isinstance(norm, tuple) else (norm, ())
    spec = KernelSpec(family, tuple((key, p[key]) for key in entry.keys),
                      norm, omega)
    stage = f"unit-mass check of the {family} density"
    # (t, lambda) at every point the check samples, on both halves
    seen = []

    def sampled(t, lam):
        seen.append((t, lam))
        return lam

    try:
        total = integrate_01(
            lambda t: sampled(t, density(spec, t)), *endpoint_exponents(spec),
            epsabs=1e-12, f_complement=lambda d: sampled(
                1.0 - d, density_complement(spec, d)))
    except DomainError as exc:
        raise DomainError(f"{stage}: {exc}") from None
    except QuadratureFailure as exc:
        raise QuadratureFailure(f"{stage}: {exc}", exc.residual) from None
    t, lam = map(np.concatenate, zip(*seen))
    i = int(np.argmin(lam))
    if lam[i] < -1e-12 * np.max(lam):
        raise DomainError(f"{stage}: lambda = {float(lam[i])!r} < 0 at "
                          f"t = {float(t[i])!r}")
    if abs(total - 1.0) > 1e-9:
        # integrate_01 covers t and 1 - t down to the smallest normal double
        raise DomainError(
            f"{stage}: it integrates to {total!r} over t, 1 - t >= "
            f"{np.finfo(float).tiny:.3g}, not 1")
    return spec


def _inside(x, name):
    x = np.asarray(x, dtype=float)
    if np.any((x <= 0.0) | (x >= 1.0)):
        raise DomainError(f"{name} must lie in (0, 1)")
    return x


def _evaluate(kernel, t, d, ln, slopes=False):
    """lambda (and lambda', lambda'' if slopes) at t = 1 - d = exp(-ln)."""
    entry = _FAMILIES[kernel.family]
    g = entry.factor(kernel, t, d) if entry.factor else None
    lam = entry.lam(kernel, t, d, ln, g)
    return (lam, *entry.slopes(kernel, t, d, ln, g)) if slopes else lam


def density(kernel: KernelSpec, t):
    """lambda(t); accepts scalars or arrays with entries in (0, 1)."""
    t_arr = _inside(t, "t")
    out = _evaluate(kernel, t_arr, 1.0 - t_arr, -np.log(t_arr))
    return float(out) if np.isscalar(t) else out


def density_complement(kernel: KernelSpec, d):
    """lambda(1 - d) evaluated from the distance d in (0, 1).

    Needed by quadrature near t = 1, where d below machine epsilon makes
    1 - d round to 1 and a direct density call lose the singular factor.
    Accepts scalars or arrays.
    """
    d_arr = _inside(d, "d")
    out = _evaluate(kernel, 1.0 - d_arr, d_arr, -np.log1p(-d_arr))
    return float(out) if np.isscalar(d) else out


def density_derivatives(kernel: KernelSpec, t):
    """(lambda, lambda', lambda'') at t, all analytic per family."""
    t_arr = _inside(t, "t")
    out = _evaluate(kernel, t_arr, 1.0 - t_arr, -np.log(t_arr), slopes=True)
    return tuple(float(v) for v in out) if np.isscalar(t) else out


def endpoint_exponents(kernel: KernelSpec):
    """(p, q) with density ~ t**p at 0 and ~ (1-t)**q at 1."""
    return _FAMILIES[kernel.family].exponents(kernel.p)


def _beta_fn(x: float, y: float) -> float:
    """The beta function B(x, y) for x, y > 0."""
    return math.exp(math.lgamma(x) + math.lgamma(y) - math.lgamma(x + y))


def moment(kernel: KernelSpec, n: int) -> float:
    """n-th moment of the density; n = 0 returns the unit mass."""
    if n < 0:
        raise DomainError("moment order must be nonnegative")
    if n == 0:
        return 1.0
    return float(moment_sequence(kernel, n)[-1])


def moment_sequence(kernel: KernelSpec, nmax: int) -> np.ndarray:
    """tau_1 .. tau_nmax as an array."""
    return _FAMILIES[kernel.family].moments(
        kernel, np.arange(1, nmax + 1, dtype=float))


def slope_profile(kernel: KernelSpec, t):
    """(t lambda''/lambda', sign of lambda') at every t, from one
    density_derivatives call; scalars or arrays.

    Raises NotApplicable where lambda' and lambda'' are 0 at every t (a
    constant density has no slope), else CriticalPoint at the first t
    where lambda underflows (below the smallest normal float, where the
    ratio carries no digits), else at the first t where lambda' vanishes
    on the density's own scale, t |lambda'| <= 1e-12 max(|lambda|,
    t**2 |lambda''|).
    """
    t_arr = np.asarray(t, dtype=float)
    lam, lam1, lam2 = density_derivatives(kernel, t)
    if not (np.any(lam1) or np.any(lam2)):
        raise NotApplicable("the density is constant: lambda' = lambda'' = 0")
    size = np.abs(lam)
    flat = t_arr * np.abs(lam1) <= 1e-12 * np.maximum(
        size, t_arr**2 * np.abs(lam2))
    for bad, what in ((size < np.finfo(float).tiny, "lambda({}) underflows"),
                      (flat, "lambda'({}) vanishes")):
        if np.any(bad):
            raise CriticalPoint(what.format(t_arr.flat[np.argmax(bad)]))
    ratio, sign = t_arr * lam2 / lam1, np.sign(lam1)
    if np.ndim(t) == 0:
        return float(ratio), float(sign)
    return ratio, sign


def _unit_rule(n):
    """The n-node Gauss-Legendre rule moved to (0, 1)."""
    x, w = gauss_legendre(n)
    return 0.5 * (x + 1.0), 0.5 * w


_GL_X, _GL_W = _unit_rule(20)
_GL10_X, _GL10_W = _unit_rule(10)


@functools.lru_cache(maxsize=8)
def _gap_pieces(y_bytes: bytes):
    """(gap, lo, width) of every piece of the composite rule over the gaps
    of y_top, given as its bytes: the checkers' grid is the same for every
    certification, and so are the M-nodes of one substitution power.

    Gap k is (y_top[k + 1], y_top[k]), the last one reaching down to
    min(1, y_top[n - 1]).  All gaps step their edges
    e -> min(hi, e + 1, 4 e) together (NaN past a gap's end): pieces at
    most 1 long and 3 times their distance from the y**q singularity at
    y = 0, so that Gauss-Legendre converges geometrically on each.  The
    pieces come in gap order, and within a gap in increasing y.
    """
    y_top = np.frombuffer(y_bytes)
    n = len(y_top) - 1
    hi, e = y_top[:n], np.append(y_top[1:n], min(1.0, y_top[n - 1]))
    edges = [e]
    while np.any(e < hi):
        e = np.where(e < hi, np.minimum(np.minimum(hi, e + 1.0), 4.0 * e),
                     np.nan)
        edges.append(e)
    edges = np.array(edges).T
    width = np.diff(edges)
    gap, piece = np.nonzero(~np.isnan(width))
    out = gap, edges[gap, piece], width[gap, piece]
    for a in out:
        a.setflags(write=False)
    return out


def _envelope_rule(y_top: np.ndarray, q: float, rate: float):
    """Nodes, weights and owning gap of the composite rule over the gaps
    of y_top (_gap_pieces).

    The last gap, k = n - 1, reaching down to y = 0, starts with the
    endpoint piece y = h v**m, h = min(1, y_top[n - 1]), which turns
    y**q dy into a multiple of v**(m (q + 1) - 1) dv.  An exponent of at
    least 4 keeps that piece at full accuracy.

    The endpoint piece carries 20 Gauss-Legendre nodes, and so does every
    other piece [lo, lo + width] unless 2 (1 + |q|) width <= lo and
    rate width <= 1, where it carries 10.  The Gauss error falls like
    rho**(-2 n) for the largest Bernstein ellipse rho on which the
    integrand is analytic (Trefethen, SIAM Rev. 50 (2008) 67): the first
    bound keeps y = 0 outside rho = 9.9 and bounds the growth of y**q
    inside; the second, with rate the sum of the integrand's exponential
    rates in y, bounds its exponential factors there and keeps the
    density's singularities at Im y = +-pi outside.  The nodes come
    endpoint piece first, then the 20-node pieces, then the 10-node ones.
    """
    gap, lo, width = _gap_pieces(y_top.tobytes())
    n = len(y_top) - 1
    h = min(1.0, y_top[n - 1])
    m = max(1, math.ceil(5.0 / (1.0 + q)))
    short = (2.0 * (1.0 + abs(q)) * width <= lo) & (rate * width <= 1.0)
    # near q = -1 (m = 250 at q = -0.98) the endpoint nodes' y underflow
    # below the normal doubles; drop them, as integrate_01 does, leaving
    # out about 2.2e-308**(q + 1) of the mass (7e-7 at q = -0.98)
    keep = h * _GL_X**m >= np.finfo(float).tiny
    v = _GL_X[keep]
    nodes, weights = [h * v**m], [h * m * v ** (m - 1) * _GL_W[keep]]
    owner = [np.full(len(v), n - 1)]
    for pick, x, w in ((~short, _GL_X, _GL_W), (short, _GL10_X, _GL10_W)):
        lo_p, width_p = lo[pick, None], width[pick, None]
        nodes.append((lo_p + width_p * x).ravel())
        weights.append((width_p * w).ravel())
        owner.append(np.repeat(gap[pick], len(x)))
    return tuple(map(np.concatenate, (nodes, weights, owner)))


def envelopes(kernel: KernelSpec, mu: float, nu: float, t):
    """(Lambda_nu(t), Pi_{mu,nu}(t)) for every entry of the array t in (0, 1).

    One composite Gauss-Legendre rule in y = -log x covers the whole grid
    (_envelope_rule): the gaps between consecutive sorted grid points are
    cut into pieces, all gaps in the same few array steps, and the gap
    above the largest point starts with a power-substituted piece for the
    (1 - x)**q endpoint.  A piece carries 10 or 20 nodes by its distance
    from y = 0 and by rate = 1 + |p| + |1/nu - 1| + |1/nu - 1/mu| (no mu
    term at mu = 0), the exponential rates in y of the density's t**p,
    of x**(1 - 1/nu) and of Pi's factor.  The density is evaluated once
    for all nodes.
    With d = 1/nu - 1/mu both envelopes accumulate from t = 1 downward
    through positive terms only,

        Lambda_i = Lambda_{i+1} + int_{t_i}^{t_{i+1}} lambda x**(-1/nu) dx
        Pi_i = Pi_{i+1} + int_{t_i}^{t_{i+1}} lambda x**(-1/nu)
               (x**d - t_i**d)/d dx + (t_{i+1}**d - t_i**d)/d Lambda_{i+1},

    so nothing cancels as t -> 1.  (x**d - t_i**d)/d becomes log(x/t_i)
    at d = 0, and Pi = Lambda at mu = 0.
    """
    if mu < 0.0 or nu <= 0.0:
        raise DomainError("need mu >= 0 and nu > 0")
    t_arr = np.asarray(t, dtype=float)
    if np.any((t_arr <= 0.0) | (t_arr >= 1.0)):
        raise DomainError("t must lie in (0, 1)")
    if t_arr.size == 0:
        return t_arr.copy(), t_arr.copy()
    grid, inverse = np.unique(t_arr, return_inverse=True)
    n = len(grid)
    # decreasing y of the grid points, then y = 0 for x = 1
    y_top = np.append(-np.log(grid), 0.0)
    p, q = endpoint_exponents(kernel)
    rate = 1.0 + abs(p) + abs(1.0 / nu - 1.0)
    if mu > 0.0:
        rate += abs(1.0 / nu - 1.0 / mu)
    y, w, own = _envelope_rule(y_top, q, rate)

    lam = np.empty_like(y)
    far = y >= math.log(2.0)
    lam[far] = density(kernel, np.exp(-y[far]))
    lam[~far] = density_complement(kernel, -np.expm1(-y[~far]))
    # dx = x dy, so the Lambda integrand is lambda x**(1 - 1/nu) in y
    f = w * lam * np.exp((1.0 / nu - 1.0) * y)
    lam_env = np.cumsum(np.bincount(own, f, minlength=n)[::-1])[::-1]
    if mu == 0.0:
        pi_env = lam_env
    else:
        d = 1.0 / nu - 1.0 / mu
        # (x**d - t_k**d)/d = t_k**d (exp(d log(x/t_k)) - 1)/d
        t_pow = np.exp(-d * y_top[:-1])
        pi_gap = np.bincount(
            own, f * t_pow[own] * _expm1_ratio(d, y_top[own] - y),
            minlength=n)
        step = t_pow * _expm1_ratio(d, y_top[:-1] - y_top[1:])
        lam_above = np.append(lam_env[1:], 0.0)
        pi_env = np.cumsum((pi_gap + step * lam_above)[::-1])[::-1]
    shape = t_arr.shape
    return lam_env[inverse].reshape(shape), pi_env[inverse].reshape(shape)


def parse_kernel(text: str) -> KernelSpec:
    """Parse the flat grammar ``family key=value ...`` (finite decimal
    literals)."""
    tokens = text.split()
    if not tokens:
        raise ConfigError("empty kernel specification")
    kwargs = {}
    for tok in tokens[1:]:
        if "=" not in tok:
            raise ConfigError(f"malformed kernel token {tok!r}")
        key, _, val = tok.partition("=")
        if key in kwargs:
            raise ConfigError(f"kernel parameter {key!r} given twice")
        try:
            kwargs[key] = float(val)
        except ValueError as exc:
            raise ConfigError(f"bad numeric literal in {tok!r}") from exc
        if not math.isfinite(kwargs[key]):
            raise ConfigError(f"non-finite literal in {tok!r}")
    try:
        return make_kernel(tokens[0], **kwargs)
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc
