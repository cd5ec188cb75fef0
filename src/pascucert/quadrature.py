"""Quadrature and summation utilities.

Endpoint-singular integrals over (0, 1) are tamed by the power substitution
t = u**m (m picked from the known endpoint exponent, so the transformed
integrand is C^1 at the endpoint) followed by adaptive Gauss-Kronrod.
The substitution leaves a log(1/t)**k factor at t = 0, so on (0, 1/2) the
panel touching 0 is split geometrically rather than bisected; at t = 1,
log(1/t) ~ 1 - t is a power and bisection is kept.
integrate_01 is numpy-only: its integrand takes an array of nodes, and
each refinement round evaluates it once on the nodes of every panel being
split.  Alternating series are summed with a binomially weighted average
of the trailing partial sums, which annihilates the slow oscillatory
tail.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, QuadratureFailure

# Gauss-Kronrod 21-point rule on (-1, 1) (QUADPACK qk21): the nonnegative
# Kronrod abscissae, largest first, and their weights.  The entries at odd
# positions are the 10-point Gauss nodes, with the Gauss weights _G10_W.
_K21_X = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0])
_K21_W = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821])
_G10_W = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338])
# all 21 nodes in increasing order, with Kronrod and (zero-padded) Gauss
# weights
_GK_X = np.concatenate([-_K21_X[:-1], _K21_X[::-1]])
_GK_WK = np.concatenate([_K21_W[:-1], _K21_W[::-1]])
_G_HALF = np.zeros(11)
_G_HALF[1::2] = _G10_W
_GK_WG = np.concatenate([_G_HALF[:-1], _G_HALF[::-1]])
# Gauss-Legendre rules on (-1, 1), equal bit for bit to
# np.polynomial.legendre.leggauss(n), which is symmetric exactly: the
# positive nodes, largest first, and their weights.  The 10- and 20-node
# rules serve kernels.envelopes, the 24-node rule certify's M-node panels;
# as literals they keep numpy.polynomial out of the import.  (QUADPACK's
# _G10_W above differs from leggauss(10) by up to 7 ulps.)
_GL_HALF = {
    10: ((0.9739065285171717, 0.8650633666889845, 0.6794095682990244,
          0.4333953941292472, 0.14887433898163122),
         (0.06667134430868814, 0.1494513491505804, 0.219086362515982,
          0.2692667193099965, 0.2955242247147528)),
    20: ((0.993128599185095, 0.9639719272779138, 0.912234428251326,
          0.8391169718222188, 0.7463319064601508, 0.636053680726515,
          0.5108670019508271, 0.37370608871541955, 0.22778585114164507,
          0.07652652113349734),
         (0.017614007139150893, 0.040601429800386446, 0.06267204833410879,
          0.08327674157670471, 0.1019301198172407, 0.1181945319615186,
          0.1316886384491769, 0.1420961093183824, 0.14917298647260424,
          0.15275338713072628)),
    24: ((0.9951872199970213, 0.9747285559713095, 0.9382745520027328,
          0.8864155270044011, 0.820001985973903, 0.7401241915785544,
          0.6480936519369755, 0.5454214713888396, 0.4337935076260451,
          0.3150426796961634, 0.1911188674736163, 0.06405689286260563),
         (0.01234122979998869, 0.02853138862893356, 0.04427743881741941,
          0.05929858491543636, 0.07334648141108016, 0.0861901615319532,
          0.09761865210411393, 0.10744427011596556, 0.11550566805372552,
          0.1216704729278033, 0.12583745634682825, 0.12793819534675202)),
}
_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny
_MAX_PANELS = 200
# edges of the graded split of a panel (0, h), in units of h
_GRADED = np.concatenate([[0.0], 4.0 ** np.arange(-10, 1)])


def _sub_power(exponent: float) -> int:
    """Substitution power making t**exponent * dt at least C^1 at t=0."""
    if exponent >= 1.0:
        return 1
    return max(1, math.ceil(2.0 / (1.0 + exponent)))


def _gk21(g, lo, hi):
    """Kronrod values and QUADPACK error estimates on panels (lo, hi).

    g is called once, on the 21 nodes of every panel together.
    """
    half = 0.5 * (hi - lo)
    x = (0.5 * (lo + hi))[:, None] + half[:, None] * _GK_X
    fx = np.asarray(g(x.ravel()), dtype=float).reshape(x.shape)
    res_k = fx @ _GK_WK
    res_g = fx @ _GK_WG
    res_abs = np.abs(fx) @ _GK_WK
    res_asc = np.abs(fx - 0.5 * res_k[:, None]) @ _GK_WK
    err = np.abs((res_k - res_g) * half)
    res_abs *= np.abs(half)
    res_asc *= np.abs(half)
    # QUADPACK's scaling: trust a tiny Kronrod-Gauss difference less than
    # linearly, and never claim more than the rounding floor
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = res_asc * np.minimum(1.0, (200.0 * err / res_asc) ** 1.5)
    err = np.where((res_asc != 0.0) & (err != 0.0), scaled, err)
    err = np.maximum(err, 50.0 * _EPS * res_abs)
    return res_k * half, err


def _adaptive_gk(g, b, epsabs, epsrel, graded=False):
    """(int_0^b g, error estimate) by adaptive Gauss-Kronrod.

    Each round splits, at once, the largest-error panels until the error
    left on the other panels is below half the tolerance.  A panel is
    bisected, except that with graded the panel (0, h) at the endpoint is
    split at the edges h 4**-k, k = 10 .. 1, while the panel cap leaves
    room for them: geometric refinement toward an endpoint singularity
    (QUADPACK, Piessens et al. 1983), which resolves a log factor at 0 in
    one round where bisection needs one round per halving.  The round
    stops once the summed error meets max(epsabs, epsrel |integral|), the
    panel count reaches _MAX_PANELS or a value is not finite.
    """
    lo, hi = np.array([0.0]), np.array([float(b)])
    val, err = _gk21(g, lo, hi)
    while True:
        total, err_sum = val.sum(), err.sum()
        tol = max(epsabs, epsrel * abs(total))
        room = _MAX_PANELS - len(lo)
        if err_sum <= tol or room <= 0 or not np.isfinite(err_sum):
            return float(total), float(err_sum)
        order = np.argsort(err)[::-1]
        left = err_sum - np.cumsum(err[order])
        split = order[:min(room, 1 + int(np.argmax(left <= 0.5 * tol)))]
        halve, edges = split, _GRADED[:0]
        # the graded panels of (0, h) add len(_GRADED) - 3 more than halves
        if graded and len(split) + len(_GRADED) - 3 <= room:
            at0 = lo[split] == 0.0
            halve = split[~at0]
            edges = np.outer(hi[split[at0]], _GRADED).ravel()
        mid = 0.5 * (lo[halve] + hi[halve])
        new_lo = np.concatenate([lo[halve], mid, edges[:-1]])
        new_hi = np.concatenate([mid, hi[halve], edges[1:]])
        new_val, new_err = _gk21(g, new_lo, new_hi)
        keep = np.ones(len(lo), dtype=bool)
        keep[split] = False
        lo = np.concatenate([lo[keep], new_lo])
        hi = np.concatenate([hi[keep], new_hi])
        val = np.concatenate([val[keep], new_val])
        err = np.concatenate([err[keep], new_err])


def _substituted(f, u, m):
    """f(u**m) m u**(m - 1), and 0 where u**m underflows below the normal
    doubles; integrate_01 says what that leaves out."""
    t = u**m
    out = np.zeros_like(u)
    ok = t >= _TINY
    out[ok] = f(t[ok]) * m * u[ok] ** (m - 1)
    return out


def integrate_01(f, left_exponent=0.0, right_exponent=0.0, epsabs=1e-10,
                 f_complement=None):
    """Integrate f on (0,1) where f ~ t**p at 0 and ~ (1-t)**q at 1.

    f takes an array of points in (0, 1) and returns the array of values.
    p and q must exceed -1; they only steer the substitution, so a rough
    value is fine.  When q < 0 the substitution samples distances from 1
    below machine epsilon, where 1 - d rounds to 1; pass f_complement(d)
    evaluating f(1 - d) from an array of distances directly to keep the
    singular factor accurate there.  Each half, (0, 1/2) and (1/2, 1), is
    integrated to max(epsabs/2, 1e-12 |half|) with at most 200 panels.
    The integral covers t and 1 - t down to the smallest normal double,
    2.2e-308, and misses what f has below: 2.2e-308**(p + 1)/(p + 1) for
    f = t**p, under 1e-12 for p >= -0.956.  A value of f that is not finite
    makes a DomainError naming its endpoint; numpy's floating-point
    warnings are silenced while f is sampled, as this check replaces them.
    """
    if left_exponent <= -1.0 or right_exponent <= -1.0:
        raise QuadratureFailure("endpoint exponent <= -1: integral diverges")
    ml = _sub_power(left_exponent)
    mr = _sub_power(right_exponent)
    if f_complement is None:
        f_complement = lambda d: f(1.0 - d)

    def left(u):
        return _substituted(f, u, ml)

    def right(v):
        return _substituted(f_complement, v, mr)

    with np.errstate(all="ignore"):
        vl, el = _adaptive_gk(left, 0.5 ** (1.0 / ml), 0.5 * epsabs, 1e-12,
                              graded=True)
        vr, er = _adaptive_gk(right, 0.5 ** (1.0 / mr), 0.5 * epsabs, 1e-12)
    for end, val, err in ((0, vl, el), (1, vr, er)):
        if not (math.isfinite(val) and math.isfinite(err)):
            raise DomainError(f"the integral is not finite at t -> {end}")
    err = el + er
    if err > max(100.0 * epsabs, 1e-8 * (abs(vl) + abs(vr))):
        raise QuadratureFailure("tolerance not reached", residual=err)
    return vl + vr


_BINOM8 = np.array([math.comb(7, k) for k in range(8)], dtype=float) / 128.0
# the terms of the series route to beta, the one alternating sum on the
# verdict path (the oracles' 6F5 of the Hohlov closed form sums the same
# terms), see averaged_partial_sum
ALTERNATING_TERMS = 256


def averaged_partial_sum(terms):
    """Sum a (near-)alternating series, or each row of a 2-D array of them.

    Plain summation when the tail is already negligible, otherwise a
    binomial average of the last eight partial sums (seven averaging
    passes), which converges even for terms decaying like 1/n.  For terms
    (-1)**n b_n, n = 0 .. N - 1, with b_n = int t**n dm(t) and m >= 0 on
    [0, 1], the average is off by
    |int (-t)**(N - 7) (1 - t)**7 / (1 + t) dm| / 128: at most
    (7/(e N))**7 / 128 times the mass of m, and O(N**-8) where m has a
    bounded density near t = 1 (Cohen, Rodriguez Villegas and Zagier,
    Exp. Math. 9 (2000) 3).  A factor of b_n rational in n does not change
    the order.  At N = ALTERNATING_TERMS = 256 the bound is 8e-17 of the
    mass, below the rounding of the partial sums, so more terms only add
    rounding.
    """
    terms = np.asarray(terms)
    s = np.cumsum(terms, axis=-1)
    total = s[..., -1][()]
    if terms.shape[-1] < 16:
        return total
    slow = np.abs(terms[..., -1]) > 1e-16 * np.maximum(np.abs(total), 1e-300)
    return np.where(slow, s[..., -8:] @ _BINOM8, total)[()]


def gauss_legendre(n):
    """The n-node Gauss-Legendre nodes (increasing) and weights on (-1, 1),
    for the n that _GL_HALF tabulates (10, 20 and 24)."""
    x, w = map(np.array, _GL_HALF[n])
    return np.concatenate([-x, x[::-1]]), np.concatenate([w, w[::-1]])


def gauss_panels(edges, n):
    """Composite Gauss-Legendre nodes/weights on the given panel edges."""
    x0, w0 = gauss_legendre(n)
    xs, ws = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        h = 0.5 * (b - a)
        xs.append(0.5 * (a + b) + h * x0)
        ws.append(h * w0)
    return np.concatenate(xs), np.concatenate(ws)


def chebyshev_grid(lo, hi, n):
    """Chebyshev-spaced points on (lo, hi), sorted increasing."""
    k = np.arange(n)
    x = np.cos((2 * k + 1) * np.pi / (2 * n))
    return np.sort(0.5 * (lo + hi) + 0.5 * (hi - lo) * x)
