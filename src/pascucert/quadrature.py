"""Fixed quadrature rules and summation for the verdict path.

Literal Gauss-Legendre tables (gauss_legendre) and composite rules built
from them (gauss_panels), Chebyshev grids, and averaged_partial_sum:
alternating series summed with a binomially weighted average of the
trailing partial sums, which annihilates the slow oscillatory tail.  No
rule here is adaptive; the adaptive Gauss-Kronrod integrator that the
tests use as a reference lives in oracles.
"""

from __future__ import annotations

import math

import numpy as np

# Gauss-Legendre rules on (-1, 1), equal bit for bit to
# np.polynomial.legendre.leggauss(n), which is symmetric exactly: the
# positive nodes, largest first, and their weights.  The 10- and 20-node
# rules serve kernels.envelopes, the 24-node rule certify's M-node panels;
# as literals they keep numpy.polynomial out of the import.
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
