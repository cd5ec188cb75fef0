"""The numpy 2F1 behind the Hohlov density, and the recurrence moments and
mass, against 40-digit mpmath and scipy.special."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy import special

from pascucert import kernels
from pascucert.errors import DomainError

REL = 1e-12
# from below 1e-300 to 1, with both sides of the switch to the Gauss
# series at d = 1/4
D_GRID = np.concatenate([np.geomspace(3e-301, 1e-3, 12),
                         np.linspace(1e-3, 1.0, 41),
                         [0.25 - 2.0**-54, 0.25]])


def _reference(A, B, C, d):
    """2F1(A, B; C; 1 - d) to 40 digits, with 1 - d held exactly.

    Where C - A - B is an integer and the series does not terminate, C is
    moved by a relative 2**-300, far below those digits and below any
    change F can show near d = 0, where it tends to a nonzero limit or
    grows: at 1000 bits mpmath's degenerate-case path can take seconds
    per point.
    """
    if A == 0.0 or B == 0.0:
        return mpmath.mpf(1)
    with mpmath.workprec(100 + max(0, int(-math.log2(d)))):
        c = mpmath.mpf(C)
        degenerate = (c - A - B) == int(c - A - B)
        terminating = any(x <= 0 and x == int(x) for x in (A, B))
        if degenerate and not terminating:
            c *= 1 + mpmath.mpf(2) ** -300
        with mpmath.extraprec(300):
            return +mpmath.hyp2f1(A, B, c, 1 - mpmath.mpf(d))


def _assert_matches(A, B, C, d=D_GRID, conditioned=False):
    """Relative error at most REL at every d; with conditioned, at most
    REL times the larger of |F| and the largest term summed there."""
    with np.errstate(over="ignore"):
        got = kernels._hyp2f1c(A, B, C, d)
    s = C - A - B
    checked = 0
    for g, dd in zip(got, d):
        if s < 0.0 and s * math.log(dd) > 575.0:
            # F ~ d**s > 1e250 nears the end of the double range, and
            # mpmath takes seconds per point there when s is an integer
            continue
        ref = _reference(A, B, C, float(dd))
        if not 1e-300 < abs(ref) < 1e300:  # outside double range
            continue
        scale = abs(ref)
        if conditioned:
            scale = max(scale, _largest_term(A, B, C, float(dd)))
        assert abs(g - ref) <= REL * scale, (A, B, C, dd, g, ref)
        checked += 1
    assert checked >= len(d) // 2


def _terms(a, b, c, x, scale=1, count=math.inf):
    """|scale (a)_n (b)_n / ((c)_n n!) x**n| for n = 0, 1, ... until the
    terms are negligible, the series ends or count terms are taken."""
    term = mpmath.mpf(scale)
    out = [abs(term)]
    top = out[0]
    n = 0
    while (a + n) * (b + n) != 0 and n + 1 < count \
            and (n < 20 or out[-1] > 1e-25 * top):
        term *= (a + n) * (b + n) / ((c + n) * (n + 1)) * x
        n += 1
        out.append(abs(term))
        top = max(top, out[-1])
    return out


def _polynomial_terms(A, B, C, d):
    """The terms of kernels._polynomial's form: of the powers of 1 - d
    and of d (Chu-Vandermonde), the one whose terms sum to less in
    absolute value."""
    if not kernels._nonpositive_integer(A) \
            or (kernels._nonpositive_integer(B) and B > A):
        A, B = B, A
    n = int(-A)
    powers_d = [abs(mpmath.binomial(n, k) * mpmath.rf(B, k)
                    * mpmath.rf(C - B, n - k) / mpmath.rf(C, n) * d**k)
                for k in range(n + 1)]
    return min([_terms(A, B, C, 1 - d), powers_d], key=sum)


def _log_terms(a, b, m, d):
    """The terms kernels._near_integer_terms sums at eps = 0:
    2F1(a, b; a + b + m; 1 - d), m >= 0 an integer (A&S 15.3.10-11), both
    the log d and the digamma sums of its second part."""
    c = a + b + m
    pref = abs(d**m * mpmath.gamma(c) * mpmath.rgamma(a) * mpmath.rgamma(b))
    coef = pref / mpmath.factorial(m)
    log_d = abs(mpmath.log(d))
    # the bracket's digammas, advanced by psi(x + 1) = psi(x) + 1/x
    x = [a + m, b + m, mpmath.mpf(1), mpmath.mpf(m + 1)]
    psi = [mpmath.digamma(v) for v in x]
    out = []
    for n in range(10000):
        bracket = psi[0] + psi[1] - psi[2] - psi[3]
        out += [abs(coef) * log_d, abs(coef * bracket)]
        if coef == 0 or (n > 20 and max(out[-2:]) < 1e-25 * max(out)):
            break
        coef *= (a + m + n) * (b + m + n) / ((n + 1) * (m + n + 1)) * d
        psi = [p + 1 / (v + n) for p, v in zip(psi, x)]
    if m > 0:
        head = mpmath.gamma(m) * mpmath.gamma(c) \
            * mpmath.rgamma(a + m) * mpmath.rgamma(b + m)
        out += _terms(a, b, 1 - m, d, head, count=m)
    return out


def _largest_term(A, B, C, d):
    """The largest term that kernels._hyp2f1c sums for 2F1(A, B; C; 1 - d)
    on its route at d, from mpmath: the conditioning of that evaluation.
    0 where C - A - B lies near an integer without being one, so that
    those draws are judged against |F| itself.  A magnitude, so mpmath's
    default precision serves."""
    d = mpmath.mpf(d)
    s = C - A - B
    if kernels._terminates(A, B):
        if s > 0 and kernels._terminates(C - A, C - B):
            return d**s * max(_polynomial_terms(C - A, C - B, C, d))
        return max(_polynomial_terms(A, B, C, d))
    switch, euler = kernels._far_plan(A, B, C)
    if d >= switch:
        if euler:
            return d**s * max(_terms(C - A, C - B, C, 1 - d))
        return max(_terms(A, B, C, 1 - d))
    m = round(s)
    if s == m:
        if m >= 0:
            return max(_log_terms(A, B, m, d))
        if kernels._terminates(C - A, C - B):
            return d**m * max(_polynomial_terms(C - A, C - B, C, d))
        return d**m * max(_log_terms(C - A, C - B, -m, d))
    if abs(s - m) < kernels._NEAR_INTEGER:
        return 0
    g1 = mpmath.gamma(C) * mpmath.gamma(s) \
        * mpmath.rgamma(C - A) * mpmath.rgamma(C - B)
    g2 = mpmath.gamma(C) * mpmath.gamma(-s) \
        * mpmath.rgamma(A) * mpmath.rgamma(B) * d**s
    return max(_terms(A, B, 1 - s, d, g1)
               + _terms(C - A, C - B, 1 + s, d, g2))


def _hohlov_triples(a, b, c):
    """(A, B, C) of the Hohlov factor f0 and the derivative factors."""
    return [(c - a + k, 1.0 - a + k, c - a - b + 1.0 + k) for k in range(3)]


WORKLOAD_TRIPLES = (_hohlov_triples(0.5, 0.8, 4.5)
                    + _hohlov_triples(1.5, 0.5, 4.0))


@pytest.mark.parametrize("triple", WORKLOAD_TRIPLES, ids=str)
def test_hyp2f1_workload_triples(triple):
    _assert_matches(*triple)


@pytest.mark.parametrize("s", [-2, -1, 0, 1, 2])
@pytest.mark.parametrize("a, b", [(1.75, 1.25), (-0.375, 2.25)])
def test_hyp2f1_integer_s(a, b, s):
    # a + b + s is exact, so these take the near-integer form at eps = 0,
    # the logarithmic forms
    _assert_matches(a, b, a + b + s)


@pytest.mark.parametrize("triple", [
    (-3.0, 1.5, 2.5), (2.5, -2.0, 0.5), (-1.0, -2.0, 3.3), (3.0, 0.0, 3.0),
    # terminating only after Euler's transformation: (0, 3; 4)
    (4.0, 1.0, 4.0),
    # large alternating terms in powers of 1 - d, so d < 1/2 needs the
    # powers of d
    (2.5, -8.0, 1.0), (-7.0, 4.5, 1.2),
], ids=str)
def test_hyp2f1_terminating(triple):
    _assert_matches(*triple)


NEAR_INTEGER = [
    pytest.param(1.75, 1.25, 3.0 + m + gap, id=f"{m}-{gap}")
    for m in (-2, -1, 0, 1, 2)
    for gap in (1e-9, -1e-9, 1e-6, -1e-6, 1e-3, -1e-3, 0.03, -0.03)] + [
    # s just below -1 and -2, where after Euler's transformation the
    # complement C - A is the given A, next to the pole of Gamma at 0
    pytest.param(1e-40, 1.5295322116702872, 0.5295322106702872,
                 id="tiny-A"),
    pytest.param(-2.5e-07, 2.2723795565891924, 0.27237830658919265,
                 id="small-negative-A"),
]


@pytest.mark.parametrize("A, B, C", NEAR_INTEGER)
def test_hyp2f1_near_integer_s(A, B, C):
    _assert_matches(A, B, C)


def test_hyp2f1_near_integer_s_with_vanishing_gauss_term():
    # Gamma(C - B) has a pole, so F = d**s times a series and tends to 0
    # at d = 0, where relative accuracy needs the small value itself
    _assert_matches(-0.03125, 0.9375, 0.9375)


# Relative accuracy is out of reach in double precision near a zero of
# F in (0, 1), which the Gauss terms of large parameters of both signs
# can put there; the draws keep to moderate parameters.
@settings(max_examples=15, deadline=None)
@given(A=st.floats(-3.0, 6.0), B=st.floats(-3.0, 3.0),
       C=st.floats(0.1, 8.0), shift=st.one_of(st.none(), st.integers(-3, 3)))
# a tiny B next to an integer C - A - B: Euler's transformation must carry
# C - B exactly, where recomputing it from C - (C - B) loses B
@example(A=2.0, B=1.1754943508222875e-38, C=1.0, shift=None)
@example(A=1.0, B=4.448180775167245e-63, C=0.5, shift=None)
@example(A=2.5, B=2.4722904609962036e-64, C=0.5, shift=None)
@example(A=2.0, B=5.865172075187742e-60, C=0.1, shift=None)
# Gamma(C - B) = Gamma(5e-324) overflows on its own
@example(A=1.96875, B=5e-324, C=1.0, shift=None)
# C - A, C - B or C - A + m next to a pole of Gamma, where rounding the
# difference itself would move it by a share of its distance to the pole
@example(A=2.1752031665862104, B=-1.9999999999999638, C=0.1751783987180227,
         shift=None)
@example(A=-3.000000000000004, B=1.4749546695935738, C=0.4749546695933072,
         shift=None)
@example(A=4.471789763428248, B=-1.9999999992687978, C=0.471788229135088,
         shift=None)
# a zero of F on the Gauss side of the switch (d = 0.525 and 0.750), where
# the Gauss terms exceed |F| by 1.2e4 to 6.2e4 and cancel below 1e-12
@example(A=3.4921875, B=-2.2374282434064483, C=0.25, shift=None)
@example(A=4.919721997149429, B=-1.417884536628274, C=1.5018374548961946,
         shift=None)
@example(A=-1.999222660378399, B=1.6644192579173813, C=0.6651965974741065,
         shift=None)
def test_hyp2f1_random_parameters(A, B, C, shift):
    # C > 0 is the range of every Hohlov factor
    if shift is not None:
        C = A + B + shift
    assume(C >= 0.1)
    _assert_matches(A, B, C, D_GRID[::3])


# A draw can put a zero of F anywhere in (0, 1), where relative accuracy
# is out of reach: each route sums terms in double precision, so its error
# is REL times the largest term it sums (_largest_term), not times |F|.
@settings(max_examples=15, deadline=None)
@given(a=st.floats(0.01, 8.0), b=st.floats(0.01, 8.0),
       c=st.floats(0.01, 12.0), k=st.integers(0, 2), integer=st.booleans())
# a zero of F at d = 0.2500..., where the Gauss series in 1 - d takes over
# and sums terms up to 3e2 for F = -1.5e-3
@example(a=5.55078125, b=7.0, c=11.6875, k=0, integer=True)
@example(a=1.125, b=0.75, c=1.0, k=0, integer=False)
# 1 - a = -1e-5: slopes of log Gamma near 1e5 at an eps of about 1e-16
@example(a=1.00001, b=1.00001, c=6.0, k=0, integer=True)
# a - b near an integer and a zero of F at d = 0.3007 and at d = 0.0759,
# where the paired terms add up to 4e4 |F| and 3e3 |F|
@example(a=4.168347373183445, b=6.168350703624229, c=10.891082963224006,
         k=0, integer=False)
@example(a=2.0457597492715927, b=3.045759749234529, c=6.045759749234529,
         k=1, integer=False)
# C - A = -1 - 9e-16 and C - A - B = 1 - 0.0195: Gamma changes sign
# between B + 1 and C - A, so their lgamma slope would lose it
@example(a=4.980494187126518, b=2.0, c=11.10498903153049, k=2,
         integer=False)
def test_hyp2f1_random_hohlov_factors(a, b, c, k, integer):
    if integer:  # a - b an integer: the near-integer form at eps = 0
        b = a + round(b - a)
    assume(b > 0.0 and c - a - b > -1.0)
    _assert_matches(*_hohlov_triples(a, b, c)[k], D_GRID[::3],
                    conditioned=True)


@pytest.mark.parametrize("triple", [(3.5, 2.0, 1.0), (6.0, 5.5, 2.5)],
                         ids=str)
def test_hyp2f1_growing_gauss_terms(triple):
    # A + B - C - 1 > 0: the Gauss terms at 1 - d = 3/4 shrink only
    # through the power, never below ratio 3/4
    _assert_matches(*triple)


@pytest.mark.parametrize("triple", [
    # 15.3.6 loses digits towards d = 1/4: the Gauss series takes over lower
    (3.0, 4.0, 9.5), (11.875, 1.875, 12.625),
    # both Gauss forms cancel at d = 1/4: the near-integer form (s = 0)
    # runs to 1/2
    (6.8125, -2.75, 4.0625),
], ids=str)
def test_hyp2f1_moved_switch(triple):
    _assert_matches(*triple)


def test_hyp2f1_scalar_and_domain():
    for triple in ((1.5, 0.5, 3.0), (-3.0, 1.5, 2.5)):
        assert isinstance(kernels._hyp2f1c(*triple, 0.3), float)
        assert kernels._hyp2f1c(*triple, np.full((2, 3), 0.3)).shape == (2, 3)
    assert kernels._hyp2f1c(1.5, 0.5, 3.0, 1.0) == 1.0
    with pytest.raises(DomainError):
        kernels._hyp2f1c(1.5, 0.5, -2.0, 0.3)


def _exact_polynomial(coef, x):
    """sum_k coef[k] x**k as an exact Fraction: every double is an
    integer over a power of 2, so the sum is one integer over 2**top."""
    p, bits = x.as_integer_ratio()
    parts = [c.as_integer_ratio() for c in coef.tolist()]
    shift = bits.bit_length() - 1
    top = max(den.bit_length() - 1 + shift * k
              for k, (_, den) in enumerate(parts))
    num, power = 0, 1
    for k, (n, den) in enumerate(parts):
        num += n * power << (top - (den.bit_length() - 1) - shift * k)
        power *= p
    return Fraction(num, 1 << top)


HORNER_RNG = np.random.default_rng(2024)
# K from 1 to 300, both sides of the switch to blocks at 24 included
HORNER_SIZES = [1, 2, 8, 23, 24, 25, 32, 33, 300] \
    + HORNER_RNG.integers(1, 301, 6).tolist()


@pytest.mark.parametrize("points", [1, 2, 257, 5000])
@pytest.mark.parametrize("kind", ["alternating", "terminating"])
def test_horner_matches_exact_sums(kind, points):
    # every path of _horner, one point, the plain loop and the blocks of
    # 8, errs by at most 2 (K + 8) eps sum_k |coef[k]| |x|**k
    rng = np.random.default_rng(points)
    for size in HORNER_SIZES:
        if kind == "alternating":
            coef = rng.uniform(0.5, 2.0, size) * (-1.0) ** np.arange(size)
        else:
            coef = kernels._taylor(1.0 - size, rng.uniform(0.1, 3.0),
                                   rng.uniform(0.1, 3.0), math.inf)
            assert coef.size == size
        x = rng.uniform(0.0, 1.0, points)
        got = kernels._horner(coef, x)
        absolute = kernels._horner(np.abs(coef), x)
        for i in np.unique(np.linspace(0, points - 1, 24).astype(int)):
            err = float(abs(Fraction(got[i])
                            - _exact_polynomial(coef, x[i])))
            assert err <= 2 * (size + 8) * kernels._EPS * absolute[i], \
                (kind, size, points, i)


def test_lgamma_slope_matches_mpmath():
    # z positive, negative and within 1e-9 of a pole; x = 0 is psi(z)
    for z in (2e-3, 0.5, 1.0, 1.4616321449683622, 3.7, 9.99, 10.0, 250.0,
              -0.5, -2.7, 7e-10, -1.0 + 3e-10, -3.0 - 7e-10):
        for x in (0.0, 1e-15, -1e-15, 1e-9, -1e-9, 1e-3, -1e-3, 0.049,
                  -0.049):
            with mpmath.workprec(300):
                zm, xm = mpmath.mpf(z), mpmath.mpf(x)
                if x == 0.0:
                    ref = mpmath.digamma(zm)
                else:
                    ref = (mpmath.loggamma(zm + xm).real
                           - mpmath.loggamma(zm).real) / xm
            got = kernels._lgamma_slope(z, x)
            assert abs(got - ref) <= 1e-14 * max(1.0, abs(ref)), (z, x)
            # z as an exact offset from the pole n nearest it
            n = min(0, round(z))
            got = kernels._lgamma_slope(z - n, x, n)
            assert abs(got - ref) <= 1e-14 * max(1.0, abs(ref)), (z, x, n)


def test_gamma_ratio_next_to_a_pole():
    # Gamma(n + delta) from the exact delta, where n + delta as one double
    # would lose most of delta's digits
    for n in (-1.0, -2.0, -5.0):
        for delta in (1e-12, -3e-9, 0.2, -0.5):
            got = kernels._gamma_ratio((2.5,), ((n, delta),))
            with mpmath.workprec(300):
                ref = mpmath.gamma(2.5) * mpmath.rgamma(n + mpmath.mpf(delta))
            assert abs(got - ref) <= 1e-14 * abs(ref), (n, delta)
    assert kernels._gamma_ratio((2.5,), ((-3.0, 0.0),)) == 0.0


HOHLOV = [(0.5, 0.8, 4.5), (1.5, 0.5, 4.0), (1.0, 1.0, 4.0), (0.5, 3.5, 6.2)]


@pytest.mark.parametrize("abc", HOHLOV, ids=str)
def test_hohlov_moments_match_pochhammer_ratio(abc):
    a, b, c = abc
    nmax = 8192
    tau = kernels.moment_sequence(kernels.make_kernel("hohlov", a=a, b=b, c=c),
                                  nmax)
    with mpmath.workdps(40):
        ref, exact = mpmath.mpf(1), []
        for k in range(nmax):
            ref *= (a + k) * (b + k) / ((c + k) * (k + 1))
            exact.append(ref)
    rel = max(float(abs(t - r) / r) for t, r in zip(tau, exact))
    assert rel <= REL
    # scipy's gammaln route carries about n eps in each log-gamma, 4e-11
    # at n = 8192, so it is held to a looser bound
    n = np.arange(1, nmax + 1, dtype=float)
    gl = special.gammaln
    via_gammaln = np.exp(gl(a + n) - gl(a) + gl(b + n) - gl(b)
                         - gl(c + n) + gl(c) - gl(n + 1.0))
    assert np.max(np.abs(tau / via_gammaln - 1.0)) <= 1e-10


GENERALIZED = [dict(A=1.0, B=1.0, C=4.0, x1=1.0),
               dict(A=0.5, B=2.5, C=3.5, x1=0.3, x2=2.0),
               dict(A=-0.5, B=0.3, C=0.5, x3=1.5)]


@pytest.mark.parametrize("params", GENERALIZED, ids=str)
def test_generalized_moments_and_mass(params):
    k = kernels.make_kernel("generalized", **params)
    bb, q = k.p["B"], k.p["C"] - k.p["A"] - k.p["B"]
    weights = list(enumerate(k.omega))
    mass = sum(x * special.beta(bb, q + j + 1.0) for j, x in weights)
    assert 1.0 / k.normalizer == pytest.approx(mass, rel=1e-14)
    nmax = 8192
    tau = kernels.moment_sequence(k, nmax)
    with mpmath.workdps(40):
        mass_exact = sum(x * mpmath.beta(bb, q + j + 1) for j, x in weights)
        for n in (1, 2, 7, 64, 1000, 4097, 8192):
            ref = sum(x * mpmath.beta(bb + n, q + j + 1)
                      for j, x in weights) / mass_exact
            assert abs(tau[n - 1] - ref) <= REL * ref
    n = np.arange(1, nmax + 1, dtype=float)
    via_betaln = k.normalizer * sum(
        x * np.exp(special.betaln(bb + n, q + j + 1.0)) for j, x in weights)
    assert np.max(np.abs(tau / via_betaln - 1.0)) <= 1e-10
