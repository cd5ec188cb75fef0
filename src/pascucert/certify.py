"""Sharp-bound solvers, sufficient-condition checkers, and certification.

The lower bound beta is solved in closed form from the weighted average of
the combined profile: with I = int lambda(t) [(1-xi) g + xi (2q - 1)] dt
the relation beta/(1-beta) = -I gives beta = I/(I-1).  The profile is
2 E R(t U**mu V**nu) - 1 with R rational and U, V uniform on (0, 1), so
swapping the order of integration makes I a sum over the duality
functional's nodes, I = 1 + (2/(mu nu)) sum W (R(t) - 1).  The moment
series gives I by an independent route; the two must agree to 1e-7, or
to the rounding of I magnified by dbeta/dI = -(beta - 1)**2.  For
the Hohlov kernel at a = 1 the moment series is, term by term, the 6F5 of
the closed form beta = 1 - 1/(2(1 - 6F5(...; -1))), so that closed form is
no third route and is kept with the oracles.

The duality functional M integrates t**(1/mu - 1) Pi(t) against the real
integrand L over the weight interval.  By Ruscheweyh duality M is affine
in the unimodular epsilon, M = P + Re(A(epsilon) Q), so its minimum over
|epsilon| = 1 is taken in closed form at each z; for fixed epsilon M is
harmonic in z, so the minimum over the disk lies on the boundary circle.
The image of the extremal function, behind the membership margin and the
sharpness residual, needs no truncation order: it and the functional are
read from one set of node sums M_k = sum W u**k, u = 1/(1 - t z).  Those
nodes are the one integration rule of a certification; kernels.make_kernel
checks the unit mass from closed forms.  The adaptive beta quadrature,
the Hohlov closed form, the direct functional and the series membership
and sharpness checks are in the oracles module.

Each verdict is a table of params.Row, each threshold compared in one
row.  V_lambda maps W_beta into M(sigma, xi) exactly when M >= 0, so
run_certification's rows are beta_routes, functional and membership, and
it reports the sharpness residual as a value only.  It computes nothing
of the theorem route: condition_margins and theorem_rows serve check
and sweep, and plot_curves the plot data.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from . import auxfun, kernels, params as params_mod
from .params import Row
from .errors import (CriticalPoint, DomainError, NotApplicable,
                     PascucertError, QuadratureFailure,
                     RepresentationMismatch, ZeroDenominator)
from .quadrature import (ALTERNATING_TERMS, averaged_partial_sum,
                         chebyshev_grid, gauss_panels)

# the version of every command's JSON and of CertificationReport.to_dict
SCHEMA_VERSION = 4
BETA_ROUTE_TOL = 1e-7
# the least tolerance of the functional row; a larger --tol replaces it
FUNCTIONAL_TOL = 1e-6
MEMBERSHIP_TOL = 1e-3
CHECK_GRID_POINTS = 257
# the most angles of a DiskGrid, whose arrays then take a few hundred MB
MAX_ANGLES = 2**20


class _DiskFields(NamedTuple):
    radius: float = 0.999
    angles: int = 256


class DiskGrid(_DiskFields):
    """Equal angles on the circle |z| = radius, where the minima of the
    harmonic quantities sampled here lie."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not 0.0 < self.radius < 1.0:
            raise DomainError("radius must lie in (0, 1)")
        if self.angles < 4:
            raise DomainError("need at least 4 angles")
        if self.angles > MAX_ANGLES:
            raise DomainError(f"need at most {MAX_ANGLES} angles")
        return self

    def theta(self) -> np.ndarray:
        return 2.0 * np.pi * np.arange(self.angles) / self.angles

    def boundary_points(self) -> np.ndarray:
        return self.radius * np.exp(1j * self.theta())

    def upper_points(self) -> np.ndarray:
        """The points k = 0..angles//2, those with Im z >= 0; every other
        point is the conjugate of one of them."""
        return self.boundary_points()[:self.angles // 2 + 1]

    def unfold(self, upper) -> np.ndarray:
        """Values at all boundary points from values at upper_points, for
        a quantity with f(conj z) = conj f(z): point k takes the value at
        min(k, angles - k), conjugated below the real axis."""
        k = np.arange(self.angles)
        full = np.asarray(upper)[np.minimum(k, self.angles - k)]
        lower = k > self.angles // 2
        full[lower] = np.conj(full[lower])
        return full


def default_t_grid(n: int = 512) -> np.ndarray:
    """Chebyshev-spaced points on (0.001, 0.999) for condition checks."""
    return chebyshev_grid(0.001, 0.999, n)


def _effective_exponent(params: params_mod.ParameterSet) -> float:
    return 1.0 / (params.mu if params.mu > 0 else params.nu)


def beta_from_integral(i_value: float) -> float:
    """Solve beta/(1-beta) = -I for beta < 1."""
    if abs(i_value - 1.0) < 1e-12:
        raise DomainError("|I - 1| < 1e-12, so |beta| = |I/(I - 1)| > 1e12")
    return i_value / (i_value - 1.0)


def beta_series_route(kernel: kernels.KernelSpec,
                      params: params_mod.ParameterSet, pieces=None) -> float:
    """The same I = 1 + sum_n 2 (-1)**n b_n from the alternating moment
    series, on tau_1 .. tau_N of the given SharedPieces (or of fresh ones),
    N = ALTERNATING_TERMS.

    b_n = (1 + xi n)(n + 1 - sigma) tau_n / ((1 - sigma)(1 + mu n)(1 + nu n))
    is the Hausdorff moment tau_n of lambda >= 0 times a factor rational in
    n, so the binomial average of averaged_partial_sum misses the sum by
    O(N**-8), far below rounding at N = 256.
    """
    tau = (pieces or SharedPieces(kernel, params)).tau
    n = np.arange(1, ALTERNATING_TERMS + 1, dtype=float)
    mu, nu, sg, xi = params.mu, params.nu, params.sigma, params.xi
    terms = 2.0 * (1.0 + xi * n) * (n + 1.0 - sg) * tau \
        / ((1.0 - sg) * (1.0 + mu * n) * (1.0 + nu * n))
    terms[::2] *= -1.0  # (-1)**n, n = 1, 3, ...
    return 1.0 + float(averaged_partial_sum(terms))


class BetaRoutes(NamedTuple):
    """beta from the M-node route and from the moment-series route."""

    nodes: float
    series: float

    def row(self) -> Row:
        """The beta_routes row: the routes agree within BETA_ROUTE_TOL, or
        within 4 eps (beta - 1)**2 where that is larger.  Each route's I
        lies next to 1 and carries its rounding, about eps, and
        beta = I/(I - 1) magnifies a change of I by (beta - 1)**2."""
        tol = max(BETA_ROUTE_TOL,
                  4.0 * np.finfo(float).eps * (self.nodes - 1.0) ** 2)
        return Row("beta_routes", -abs(self.nodes - self.series), tol)

    @property
    def agree(self) -> bool:
        return self.row().satisfied

    def sharp(self) -> float:
        """The M-node beta; RepresentationMismatch if the routes differ."""
        if not self.agree:
            raise RepresentationMismatch(
                f"beta routes disagree: M-nodes {self.nodes!r} vs "
                f"series {self.series!r}")
        return self.nodes


def beta_routes(kernel: kernels.KernelSpec,
                params: params_mod.ParameterSet, pieces=None) -> BetaRoutes:
    """beta = I/(I-1) from both routes to I, on the given SharedPieces (or
    on fresh ones): the moment series of beta_series_route, and
    I = 1 + (2/(mu nu)) sum W (R(t) - 1)
    (nu for mu nu at mu = 0) on the M-nodes (t, W).  R - 1 vanishes at
    t = 0, so the error of the rule's mass sum W cancels.  One route is
    built from the envelopes of lambda, the other from its moments; a
    drift of the node rule shows as a disagreement."""
    pieces = pieces or SharedPieces(kernel, params)
    nodes = pieces.nodes
    i_nodes = 1.0 + 2.0 * (_r_sum(nodes, params) - float(nodes[1].sum())) \
        / _node_mass(params)
    return BetaRoutes(
        beta_from_integral(i_nodes),
        beta_from_integral(beta_series_route(kernel, params, pieces)))


def beta_sharp(kernel: kernels.KernelSpec,
               params: params_mod.ParameterSet, pieces=None) -> float:
    """The sharp lower bound beta, cross-validated over both routes."""
    return beta_routes(kernel, params, pieces).sharp()


# ---------------------------------------------------------------------------
# duality functional

_M_PANEL_EDGES = (0.0, 0.1, 0.3, 0.5, 0.7, 0.85, 0.93, 0.97, 0.99,
                  0.997, 0.999, 0.9997, 0.9999, 1.0)
_M_PANEL_NODES = 24
_M_U, _M_WU = gauss_panels(np.asarray(_M_PANEL_EDGES), _M_PANEL_NODES)
# the node sums' buffer holds at most 2 _BLOCK complex elements (128 KiB)
_BLOCK = 4096


def _m_nodes(kernel: kernels.KernelSpec, params: params_mod.ParameterSet):
    """Quadrature nodes t and weights W = w * t**(1/mu - 1) * Pi(t).

    At t = 0 the weight is a sum of powers t**(b - 1), times powers of
    log(1/t), with b = 1/mu, 1/nu and p + 1 for the density's exponent p;
    the least is b = min(1/nu, p + 1), as mu <= nu.  Every sum taken over
    the nodes has an integrand that vanishes like t there, and t = u**m
    turns t**b dt into m u**(m (b + 1) - 1) du: m = 6/(1 + b) leaves at
    worst u**5, which composite Gauss-Legendre with panels crowding
    t -> 1 integrates to rounding.  Pi grows like t**(b - 1/mu) (like
    Lambda ~ t**(b - 1/nu) at mu = 0), so m stays small enough to keep it
    inside the double range at the smallest node, and at least 1.
    """
    expo = _effective_exponent(params)
    b = min(1.0 / params.nu, kernels.endpoint_exponents(kernel)[0] + 1.0)
    m = 6.0 / (1.0 + b)
    if expo > b:
        # e**690 leaves room for the constant factor of Pi
        m = min(m, 690.0 / ((expo - b) * -math.log(_M_U[0])))
    m = max(1.0, m)
    t = _M_U**m
    # t**(expo-1) dt = m u**(m expo - 1) du, assembled jointly to dodge the
    # singular split
    pref = _M_WU * m * _M_U ** (m * expo - 1.0)
    # an overflow here leaves a weight that is not finite, named below
    with np.errstate(over="ignore", invalid="ignore"):
        _, pi_vals = kernels.envelopes(kernel, params.mu, params.nu, t)
        w = pref * pi_vals
    if not np.all(np.isfinite(w)):
        raise QuadratureFailure(
            f"M-node weight t**(1/mu - 1) Pi(t) is not finite at t = "
            f"{float(t[np.argmin(np.isfinite(w))])!r} (mu = {params.mu!r}, "
            f"nu = {params.nu!r})")
    return t, w


class SharedPieces:
    """The work fixed by (kernel, mu, nu) alone, for every (sigma, xi)
    point of that key: the M-nodes and tau_1 .. tau_ALTERNATING_TERMS,
    which a certification reads, and the envelopes and slope profile on
    the checkers' grid, which the theorem route and the plot curves read.
    Every stage takes them from the SharedPieces it is given, or from
    fresh ones.  Each is built at its first use and kept for the next; a
    build that fails raises at every use, as a fresh build would.  Of
    params only mu and nu are read.  Assigning grid before its first use
    puts the checkers on other points.
    """

    def __init__(self, kernel: kernels.KernelSpec,
                 params: params_mod.ParameterSet):
        self.kernel, self.params = kernel, params

    @functools.cached_property
    def nodes(self):
        """The M-nodes (t, W) of _m_nodes."""
        return _m_nodes(self.kernel, self.params)

    @functools.cached_property
    def tau(self) -> np.ndarray:
        return kernels.moment_sequence(self.kernel, ALTERNATING_TERMS)

    @functools.cached_property
    def grid(self) -> np.ndarray:
        return default_t_grid(CHECK_GRID_POINTS)

    @functools.cached_property
    def grid_envelopes(self):
        """(Lambda, Pi) at grid."""
        return kernels.envelopes(self.kernel, self.params.mu, self.params.nu,
                                 self.grid)

    @functools.cached_property
    def grid_slopes(self):
        """(ratio, sign) of kernels.slope_profile at grid."""
        return kernels.slope_profile(self.kernel, self.grid)


def _node_sums(nodes, z):
    """(M1, M2, M3), M_k = sum W u**k with u = 1/(1 - t z), at every z.

    The sums have real coefficients, so M_k(conj z) = conj M_k(z): a
    circle needs them on its upper half only (DiskGrid.unfold).  The z run
    in blocks of 2 _BLOCK // (3 len(t)) rows through one (3, rows, len(t))
    buffer of u, u**2 and u**3, below glibc's 128 KiB mmap threshold, so
    no call maps and zeroes fresh pages.  W is real, so two dots of that
    buffer's real and imaginary parts with W take all three sums, one
    single-threaded BLAS ddot a row, each the same as over the whole
    array at once.
    """
    t = np.asarray(nodes[0], dtype=complex)
    w = np.asarray(nodes[1], dtype=float)
    z = np.asarray(z, dtype=complex).ravel()
    sums = np.empty((3, z.size), dtype=complex)
    rows = max(1, 2 * _BLOCK // (3 * t.size))
    buf = np.empty((3, min(rows, z.size), t.size), dtype=complex)
    for i in range(0, z.size, rows):
        zb = z[i:i + rows]
        block = buf[:, :zb.size]
        u = block[0]
        # row by row: a broadcast multiply takes two 40 KB iterator buffers
        for j, zj in enumerate(zb):
            np.multiply(t, zj, out=u[j])
        np.reciprocal(np.subtract(1.0, u, out=u), out=u)
        np.multiply(u, u, out=block[1])
        np.multiply(u, block[1], out=block[2])
        # a 3-d dot with a vector runs one BLAS dot a row, where a 2-d
        # reshape would be a threaded gemv, doubling the CPU time.  A
        # complex zdotu would be faster, but its code raised the peak
        # resident memory of a pass by about 0.1 MiB
        sums.real[:, i:i + rows] = block.real.dot(w)
        sums.imag[:, i:i + rows] = block.imag.dot(w)
    return sums[0], sums[1], sums[2]


def _node_mass(params):
    """sum W exactly, the n = 0 moment identity: mu nu, or nu at mu = 0."""
    return params.mu * params.nu if params.mu > 0.0 else params.nu


def _r_sum(nodes, params) -> float:
    """sum W R(t), R the rational kernel of the profile G
    (auxfun.combined_rational): the z-free sum of P, and beta's integral."""
    t, w = nodes
    return float(np.dot(w, auxfun.combined_rational(t, params.sigma,
                                                    params.xi)))


def _pq_from_sums(nodes, params, m1, m2, m3):
    """P and complex Q from the node sums, by (1 + tz) u**3 = 2 u**3 - u**2
    and tz u**k = u**k - u**(k - 1); R gives the z-free sum."""
    xi = params.xi
    p = ((1.0 - xi) * m2 + xi * (2.0 * m3 - m2)).real - _r_sum(nodes, params)
    qc = (1.0 - xi) * (m2 - m1) + 2.0 * xi * (m3 - m2)
    return p, qc


def _pq_profiles(nodes, params, z_points):
    """P(z) and complex Q(z) with M(z, eps) = P + Re(A(eps) Q)."""
    return _pq_from_sums(nodes, params, *_node_sums(nodes, z_points))


def m_functional(kernel: kernels.KernelSpec, params: params_mod.ParameterSet,
                 z: complex, epsilon: complex) -> float:
    """The duality functional at one (z, epsilon), from the node sums at
    that z on freshly built M-nodes."""
    p, qc = _pq_profiles(_m_nodes(kernel, params), params, [z])
    a = auxfun.duality_slope(complex(epsilon), params.sigma)
    return float(p[0] + (a * qc[0]).real)


def _min_from_sums(nodes, params, z, m1, m2, m3):
    """The minimum of the duality functional over the points z and
    |epsilon| = 1, from the node sums at z: (min, argmin z, argmin eps).

    With A(eps) = (eps + 2 sigma - 1)/(2(1 - sigma)), M = P + Re(A Q) has
    the exact minimum P + ((2 sigma - 1) Re Q - |Q|)/(2(1 - sigma)) over
    the epsilon circle, attained at eps = -conj(Q)/|Q|.
    """
    p, qc = _pq_from_sums(nodes, params, m1, m2, m3)
    sg = params.sigma
    m = p + ((2.0 * sg - 1.0) * qc.real - np.abs(qc)) / (2.0 * (1.0 - sg))
    i = int(np.argmin(m))
    return float(m[i]), complex(z[i]), complex(-np.conj(qc[i]) / abs(qc[i]))


# ---------------------------------------------------------------------------
# the image of the extremal function

def extremal_image(nodes, params: params_mod.ParameterSet, beta: float, z):
    """K(z)/z and z K'/K for K = xi z g' + (1 - xi) g, g = V_lambda(f_beta)
    the image of the extremal function, at any z with |z| <= 1.

    The M-node weights W have sum W t**n = mu nu tau_n/((1 + n mu)(1 + n nu))
    (swap the order of integration).  So with u = 1/(1 - t z), the sums
    M_k = sum W u**k and c = 2(1 - beta)/(mu nu) (2(1 - beta)/nu at mu = 0),
    K/z = 1 + c ((1 - xi) M1 + xi M2 - M0) and
    zK'/z = 1 + c ((1 - 2 xi) M2 + 2 xi M3 - M0).
    """
    k, ratio = _image_from_sums(nodes[1], params, beta,
                                *_node_sums(nodes, z))
    return k.reshape(np.shape(z)), ratio.reshape(np.shape(z))


def _image_from_sums(w, params, beta, m1, m2, m3):
    """K(z)/z and z K'/K from the node sums, as in extremal_image."""
    xi = params.xi
    c = 2.0 * (1.0 - beta) / _node_mass(params)
    m0 = w.sum()
    k = 1.0 + c * ((1.0 - xi) * m1 + xi * m2 - m0)
    zk = 1.0 + c * ((1.0 - 2.0 * xi) * m2 + 2.0 * xi * m3 - m0)
    return k, zk / k


def _winding_guard(k_over_z, z):
    """ZeroDenominator unless K(z)/z, sampled on a circle, stays off 0 and
    winds 0 times around 0; then Re(zK'/K) has its disk minimum there."""
    small = np.abs(k_over_z) < 1e-12
    if np.any(small):
        loc = complex(z[np.argmax(small)])
        raise ZeroDenominator(f"K vanishes near z = {loc}", location=loc)
    turns = round(float(np.sum(np.angle(np.roll(k_over_z, -1) / k_over_z)))
                  / (2.0 * np.pi))
    if turns:
        raise ZeroDenominator(f"K(z)/z winds {turns} times around 0 on "
                              f"|z| = {abs(z[0]):.6g}: K vanishes inside")


# ---------------------------------------------------------------------------
# sufficient conditions

def check_monotone_condition(kernel: kernels.KernelSpec,
                             params: params_mod.ParameterSet,
                             pieces=None) -> float:
    """Minimum slope of the weighted-envelope expression; >= 0 means the
    monotonicity sufficient condition holds on the grid of the given
    SharedPieces (or of fresh ones).

    The t-derivative of t**(1/mu - 1/xi) Pi is expanded with
    Pi' = -Lambda_nu(t) t**(1/nu - 1 - 1/mu), collapsing the expression to
    ((xi/mu - 1) Pi - xi t**(1/nu - 1/mu) Lambda) / log(1/t)**(1 + 2 sigma).
    Raises CriticalPoint at the first grid t where Lambda or Pi underflows
    (below the smallest normal float), where the slope measures the
    underflow and not the condition.
    """
    if params.xi <= 0.0:
        raise NotApplicable("the monotone condition degenerates at xi = 0")
    if params.mu < 1.0:
        raise DomainError("requires mu >= 1")
    pieces = pieces or SharedPieces(kernel, params)
    tiny = np.finfo(float).tiny
    lam_vals, pi_vals = pieces.grid_envelopes
    small = np.minimum(lam_vals, pi_vals) < tiny
    if np.any(small):
        i = np.argmax(small)
        name = "Pi" if pi_vals[i] < tiny else "Lambda"
        raise CriticalPoint(f"{name}({float(pieces.grid[i])!r}) underflows")
    expr = _monotone_curve(params, pieces)
    return float(np.min(np.diff(expr) / np.diff(pieces.grid)))


def _monotone_curve(params, pieces):
    """The monotone expression at every point of the pieces' grid."""
    mu, nu, sg, xi = params.mu, params.nu, params.sigma, params.xi
    t, (lam_vals, pi_vals) = pieces.grid, pieces.grid_envelopes
    return ((xi / mu - 1.0) * pi_vals
            - xi * t ** (1.0 / nu - 1.0 / mu) * lam_vals) \
        / (-np.log(t)) ** (1.0 + 2.0 * sg)


def check_growth_condition(kernel: kernels.KernelSpec,
                           params: params_mod.ParameterSet,
                           pieces=None) -> float:
    """Margin of the density-growth sufficient condition on the grid of
    the given SharedPieces (or of fresh ones).

    The underlying inequality is
    xi t log(1/t) lambda'' - ((1 - 2 xi + 2 xi/mu - xi/nu) log(1/t)
    + xi (1 - 2 sigma)) lambda' >= 0; dividing by xi log(1/t) |lambda'|
    gives the ratio form t lambda''/lambda' - rhs, with the inequality
    direction set by the sign of lambda'.  The signed margin returned here
    is that normalized quantity, so >= 0 certifies the condition whether
    the density is increasing or decreasing.
    """
    if params.xi <= 0.0:
        raise NotApplicable("the growth condition degenerates at xi = 0")
    if params.mu < 1.0:
        raise DomainError("requires mu >= 1")
    if params.gamma <= 0.0:
        raise DomainError("requires gamma > 0")
    pieces = pieces or SharedPieces(kernel, params)
    return float(np.min(_growth_curve(params, pieces)))


def _growth_curve(params, pieces):
    """The signed growth margin at every point of the pieces' grid."""
    t, (ratio, sign) = pieces.grid, pieces.grid_slopes
    base = (1.0 / params.xi - 2.0 + 2.0 / params.mu - 1.0 / params.nu)
    rhs = base + (1.0 - 2.0 * params.sigma) / (-np.log(t))
    return (ratio - rhs) * sign


def condition_margins(kernel: kernels.KernelSpec,
                      params: params_mod.ParameterSet, pieces=None,
                      name_errors: bool = False):
    """The monotone and growth margins and the family's hypothesis audit,
    the checkers reading the given SharedPieces (or fresh ones).

    Returns (margins, hypothesis_report).  A margin is None where its
    condition does not apply (NotApplicable, DomainError).  Any other
    error of a checker propagates, or with name_errors is recorded as
    that margin, under the error's class name.  The report is None for
    families without a theorem.
    """
    margins = {}
    for name, checker in (("monotone", check_monotone_condition),
                          ("growth", check_growth_condition)):
        try:
            margins[name] = checker(kernel, params, pieces=pieces)
        except (NotApplicable, DomainError):
            margins[name] = None
        except PascucertError as exc:
            if not name_errors:
                raise
            margins[name] = type(exc).__name__
    return margins, params_mod.hypothesis_check(params, kernel)


def theorem_rows(margins: dict, hyp_report, tol: float = 0.0) -> list:
    """The theorem route's verdict rows, from condition_margins: each
    sufficient condition that applies, within tol (a NaN margin, which
    fails, where its checker broke down and the margin names the error),
    and the least margin of the theorem's hypotheses, >= 0, where a
    theorem covers the family."""
    rows = [Row(name, math.nan if isinstance(margin, str) else margin, tol)
            for name, margin in margins.items() if margin is not None]
    if hyp_report is not None:
        rows.append(Row(f"hypotheses_{hyp_report.theorem}",
                        hyp_report.min_margin))
    return rows


# ---------------------------------------------------------------------------
# end-to-end certification

class CertificationReport(NamedTuple):
    """The duality route's verdict for one kernel and parameter set: rows
    holds its table (run_certification).  The theorem route's margins are
    condition_margins', and their curves plot_curves'."""

    params: params_mod.ParameterSet
    kernel: kernels.KernelSpec
    beta_integral: float
    beta_series: float
    m_functional_min: float
    m_argmin_z: complex
    m_argmin_eps: complex
    membership_min: float
    membership_argmin: complex
    sharpness_residual: float
    rows: tuple

    def failed(self) -> list:
        """The names of the rows that fail."""
        return params_mod.failed_rows(self.rows)

    def passed(self) -> bool:
        return not self.failed()

    def to_dict(self) -> dict:
        p = self.params
        return {
            "schema_version": SCHEMA_VERSION,
            "kernel": self.kernel.text(),
            "params": {
                "alpha": p.alpha, "gamma": p.gamma,
                "mu": p.mu, "nu": p.nu,
                "sigma": p.sigma, "xi": p.xi,
                "beta": self.beta_integral,
            },
            "beta": {
                "integral": self.beta_integral,
                "series": self.beta_series,
            },
            "m_functional": {
                "min": self.m_functional_min,
                "argmin_z": [self.m_argmin_z.real, self.m_argmin_z.imag],
                "argmin_eps": [self.m_argmin_eps.real, self.m_argmin_eps.imag],
            },
            "membership": {
                "min_margin": self.membership_min,
                "argmin_z": [self.membership_argmin.real,
                             self.membership_argmin.imag],
            },
            "sharpness_residual": self.sharpness_residual,
            "passed": self.passed(),
            "failed": self.failed(),
        }


def run_certification(kernel: kernels.KernelSpec,
                      params: params_mod.ParameterSet,
                      grid: DiskGrid = DiskGrid(),
                      tol: float = 0.0, pieces=None) -> CertificationReport:
    """Full pipeline: beta, duality functional, membership and sharpness
    of the extremal image, all from the given SharedPieces (or fresh ones)
    and the M-node beta.
    tol widens the functional row past FUNCTIONAL_TOL.  This is the one
    pass over the grid circle: as M(conj z, conj eps) = M(z, eps), its
    upper half holds the minimum, and the report carries it with its z
    (Im z >= 0) and epsilon."""
    pieces = pieces or SharedPieces(kernel, params)
    beta = beta_routes(kernel, params, pieces)

    # one set of sums: the upper half circle for M and membership (the
    # lower half holds the conjugates), z = -1 for sharpness
    nodes = pieces.nodes
    z = np.append(grid.upper_points(), -1.0)
    sums = _node_sums(nodes, z)
    m_min, argmin_z, argmin_eps = _min_from_sums(
        nodes, params, z[:-1], *(m[:-1] for m in sums))

    k_over_z, ratio = _image_from_sums(nodes[1], params, beta.nodes, *sums)
    _winding_guard(grid.unfold(k_over_z[:-1]), grid.boundary_points())
    ratio = ratio.real
    i = int(np.argmin(ratio[:-1]))
    membership = float(ratio[i] - params.sigma)
    rows = (beta.row(),
            Row("functional", m_min, max(tol, FUNCTIONAL_TOL)),
            Row("membership", membership, MEMBERSHIP_TOL))

    return CertificationReport(
        params=params,
        kernel=kernel,
        beta_integral=beta.nodes,
        beta_series=beta.series,
        m_functional_min=m_min,
        m_argmin_z=argmin_z,
        m_argmin_eps=argmin_eps,
        membership_min=membership,
        membership_argmin=complex(z[i]),
        sharpness_residual=float(abs(ratio[-1] - params.sigma)),
        rows=rows,
    )


def plot_curves(report: CertificationReport, grid: DiskGrid,
                pieces=None) -> dict:
    """The plot curves of a certification run on grid: Pi, L at the
    functional's argmin and the two condition curves on the checkers'
    grid, so the condition curves hold exactly what the margins of
    condition_margins (under "margins", a checker's error by its class
    name) are the minima of, and Re(zK'/K) around the circle.  A
    condition curve is NaN where its margin is no number.  The curves
    read the given SharedPieces of the report's kernel and parameters
    (or fresh ones)."""
    params = report.params
    pieces = pieces or SharedPieces(report.kernel, params)
    margins, _ = condition_margins(report.kernel, params, pieces,
                                   name_errors=True)
    t = pieces.grid
    growth, monotone = (
        curve(params, pieces) if isinstance(margins[name], float)
        else np.full_like(t, np.nan) for name, curve in
        (("growth", _growth_curve), ("monotone", _monotone_curve)))
    _, ratio = extremal_image(pieces.nodes, params, report.beta_integral,
                              grid.upper_points())
    return {
        "t": t, "pi": pieces.grid_envelopes[1],
        "l_at_argmin": auxfun.l_integrand(params, report.m_argmin_eps,
                                          report.m_argmin_z, t),
        "growth_margin": growth, "monotone_expression": monotone,
        "margins": margins,
        "theta": grid.theta(), "re_zkprime_over_k": grid.unfold(ratio).real,
    }
