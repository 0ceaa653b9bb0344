"""Eigenvalues of zonal integral kernels on the 15-sphere.

Two independent routes to the same numbers: closed-form gamma-ratio
formulas (gamma constants times prefix products of rising-factorial
ratios, so indices up to 10^4 neither overflow nor lose the exact zeros
at the integer limit points) and a Funk-Hecke quadrature oracle that
integrates the kernel against the zonal harmonics directly, on one
Duffy-mapped Gauss-Jacobi rule.  Also: the spectrum of the intertwining
operator of degree d, its fundamental-solution constant, the bilinear
eigenvalue margin, and the Log-Sobolev spectral gap.

Zonal kernels are radial-angular: K(w) depends on the octonion w only
through r = |w| and x = Re w / |w|; for the sphere pairing w = zeta .
conj(eta) this gives r = cos(theta), x = cos(phi) in the polar angles
of the north-pole-fixing frame.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from . import Q
from .constants import (_J_FACTORS, _K_FACTORS, _check_alpha, _check_open, _gamma_starts,
                        _signed_log_gamma, c_d)
from .specfun import _check_degree, _check_index, gegenbauer3, jacobi33

__all__ = [
    "ZonalKernel",
    "EigenTable",
    "kernel_K1",
    "kernel_K2",
    "eig_quadrature_table",
    "eig_K1",
    "eig_K2",
    "eig_K1_ratio",
    "margin_table",
    "bilinear_margin",
    "intertwining_spectrum",
    "logsob_gap",
    "logsob_gap_limit",
]

# overall Funk-Hecke constant: volume of the angular fibres over (theta, phi)
_FH_CONST = 16.0 * math.pi ** 7 / 45.0


# ---------------------------------------------------------------------------
# zonal kernels


@dataclass(frozen=True)
class ZonalKernel:
    """A kernel K(w) that depends on w only through |w| and Re w.

    ``at(d2, theta)`` returns K at |1 - w|^2 = d2, |w| = cos theta for arrays
    of any broadcastable shapes, with the broadcast shape.  The quadrature
    oracle calls it once per table, with d2 and theta at the nodes of both
    Duffy triangles, each (2, n, n), d2 formed as 4 sin^4(theta/2) + 4 cos
    theta sin^2(phi/2) = (1 - r)^2 + 2 r (1 - cos phi) at r = cos theta,
    which keeps the digits that 1 - cos loses near the singular corner.
    Both are read-only arrays of the rule every table at the same (n, alpha)
    shares, and a write raises ValueError.
    """

    at: Callable
    name: str = "zonal"


def kernel_K1(alpha):
    """K1 = |1 - w|^(-2 alpha) = (1 - 2 r x + r^2)^(-alpha)."""
    a = float(alpha)
    return ZonalKernel(lambda d2, theta: d2 ** (-a), name=f"K1 at alpha = {a}")


def kernel_K2(alpha):
    """K2 = |w|^2 |1 - w|^(-2 alpha)."""
    a = float(alpha)
    return ZonalKernel(lambda d2, theta: np.cos(theta) ** 2 * d2 ** (-a),
                       name=f"K2 at alpha = {a}")


# ---------------------------------------------------------------------------
# Funk-Hecke quadrature oracle
#
# lambda_{j,k}(K) = (16 pi^7 / 45) * int_0^{pi/2} dtheta cos^{m+7} sin^7 theta
#                   * p_k(cos 2 theta) * int_0^pi dphi K(cos theta, cos phi)
#                   * c_m(cos phi) sin^6 phi
# with m = j - k, p_k and c_m the normalized Jacobi/Gegenbauer factors.
# The kernel blows up at the corner (theta, phi) = (0, 0).  In u = theta^2 everything but
# the kernel is analytic on [0, U] x [0, Phi], U = (pi/2)^2, Phi = pi, and near the corner
# d2 = |1 - w|^2 = u^2/4 + phi^2 + ... is homogeneous of degree 2 in (u, phi).  Duffy's
# map (SIAM J. Numer. Anal. 19, 1982) splits the rectangle into the triangles
# A: (u, phi) = (U s, Phi s t) and B: (u, phi) = (U s t, Phi s), s, t in [0, 1], each of
# Jacobian U Phi s; there the measure u^3 phi^6 du dphi / 2 and K1 = d2^-alpha make the
# integrand s^(10 - 2 alpha) times a function analytic in (s, t), with 10 = Q/2 - 1.  So
# the rule is Gauss-Jacobi in s, of weight s^(10 - 2 alpha), times Gauss-Legendre in t.

_U, _PHI = (math.pi / 2.0) ** 2, math.pi


def _freeze(arr):
    arr.flags.writeable = False
    return arr


def _orthonormal(s, a, off):
    """(p_n, p_n', sum_(k<n) p_k^2) at s, n = len(a) - 1, of the polynomials p_0 = 1,
    s p_k = off[k + 1] p_(k+1) + a[k] p_k + off[k] p_(k-1), in the dtype of s."""
    p_prev, p, d_prev, d, total = 0.0, np.ones_like(s), 0.0, np.zeros_like(s), np.zeros_like(s)
    for k in range(len(a) - 1):
        total += p * p
        p_prev, p, d_prev, d = (p, ((s - a[k]) * p - off[k] * p_prev) / off[k + 1],
                                d, ((s - a[k]) * d + p - off[k] * d_prev) / off[k + 1])
    return p, d, total


def _gauss_jacobi(n, b):
    """The n-point Gauss rule of the weight s^b on [0, 1], b > -1: (nodes ascending, weights),
    np.longdouble arrays.

    The recurrence is that of the Jacobi polynomials P^(0, b), mapped by s = (1 + x) / 2.
    Golub-Welsch (np.linalg.eigvalsh of its matrix) gives the nodes in float64; two Newton
    steps on the recurrence polish them, and the weights are the Christoffel numbers
    1 / ((b + 1) sum_(k<n) p_k(s)^2) of the orthonormal recurrence, both in np.longdouble.
    float64 alone falls short: weights from 1 / ((1 - x^2) P_n'^2) are off by up to 1e-10
    in total mass at b = -0.998, and eigenvector weights by up to 5.9e-9 at b = 12.
    """
    k, b = np.arange(n + 1, dtype=np.longdouble), np.longdouble(b)
    two = 2.0 * k[1:] + b
    # x-diagonal b^2 / ((2k + b)(2k + b + 2)), which is b / (b + 2) at k = 0, even at b = 0
    a = (1.0 + np.concatenate([[b / (b + 2.0)], b * b / (two * (two + 2.0))])) / 2.0
    off = np.concatenate([[0.0], k[1:] * (k[1:] + b) / (two * np.sqrt((two + 1.0) * (two - 1.0)))])
    s = np.linalg.eigvalsh(np.diag(a[:n].astype(float)) + np.diag(off[1:n].astype(float), -1)
                           ).astype(np.longdouble)  # eigvalsh reads the lower triangle
    for _ in range(2):
        p, d, _ = _orthonormal(s, a, off)
        s -= p / d
    return s, 1.0 / ((b + 1.0) * _orthonormal(s, a, off)[2])


@functools.lru_cache(maxsize=32)
def _duffy_rule(n, a):
    """The rule of eig_quadrature_table at n nodes and a checked alpha = a, read-only arrays
    kept for the 32 most recently used (n, alpha) (1 MB each at n = 116, jmax 100).

    theta, d2 = 4 sin^4(theta/2) + 4 cos theta sin^2(phi/2) and mu at the nodes, each
    (2, n, n) over (triangle, s, t): the Gauss-Jacobi nodes s of weight s^(10 - 2a), the
    Gauss-Legendre nodes t, and mu the measure sin^7 cos^7 theta dtheta sin^6 phi dphi as
    weights, without s^(10 - 2a).  Then, over A's theta by s and B's theta, (n + n^2,):
    cos theta and cos 2 theta; and over B's phi by s and A's phi: cos phi.
    """
    b = 10.0 - 2.0 * a
    s, w = _gauss_jacobi(n, b)
    ws = (w * s ** (1.0 - np.longdouble(b))).astype(float) * (_U * _PHI)  # the Jacobian U Phi s
    s = s.astype(float)
    t, wt = leggauss(n)
    t, wt = (t + 1.0) / 2.0, wt / 2.0
    st = s[:, None] * t
    theta = np.stack([np.broadcast_to(np.sqrt(_U * s)[:, None], st.shape), np.sqrt(_U * st)])
    phi = np.stack([_PHI * st, np.broadcast_to(_PHI * s[:, None], st.shape)])
    d2 = 4.0 * np.sin(theta / 2.0) ** 4 + 4.0 * np.cos(theta) * np.sin(phi / 2.0) ** 2
    mu = (ws[:, None] * wt * np.sin(theta) ** 7 * np.cos(theta) ** 7 / (2.0 * theta)
          * np.sin(phi) ** 6)
    x = np.concatenate([theta[0, :, 0], theta[1].ravel()])
    cphi = np.cos(np.concatenate([phi[1, :, 0], phi[0].ravel()]))
    return tuple(map(_freeze, (theta, d2, mu, np.cos(x), np.cos(2.0 * x), cphi)))


@dataclass
class EigenTable:
    """Eigenvalues for one kernel exponent: ``values`` maps (j, k) to the eigenvalue."""

    alpha: float
    values: dict


def eig_quadrature_table(kern, alpha, jmax):
    """Quadrature eigenvalues of the Funk-Hecke integral for all j <= jmax, k <= j, as an
    EigenTable of alpha.

    alpha, checked on (-1, 11/2) before the kernel is called, is the exponent of the
    kernel's corner singularity d2^-alpha, and selects the rule: on both Duffy triangles
    (see above), Gauss-Jacobi in s of weight s^(10 - 2 alpha) times Gauss-Legendre in t,
    each of n = max(24, jmax + 16) nodes, so the rule follows the highest degree.  The
    kernel is called once, on both triangles' (s nodes x t nodes) arrays stacked, (2, n, n).
    Triangle A's theta depends on s alone, so its phi sum is taken first; triangle B's phi
    depends on s alone, so its gegenbauer3 rows are read by s.  One jacobi33 call per m
    covers the n + n^2 theta values of both, so memory is O(jmax n^2).  The rule is kept
    per (n, alpha) (_duffy_rule), read-only.  A table runs under one np.errstate that
    ignores overflow, and raises a ValueError naming the kernel when a value is not finite.
    """
    jmax = _check_degree("jmax", jmax)
    a = _check_alpha(alpha)
    n = max(24, jmax + 16)
    theta, d2, mu, c, x2, cphi = _duffy_rule(n, a)
    G = gegenbauer3(jmax, cphi)
    values = np.empty((jmax + 1) * (jmax + 2) // 2)
    with np.errstate(over="ignore", invalid="ignore"):
        kmu = kern.at(d2, theta) * mu
        v = np.concatenate([np.einsum("mil,il->mi", G[:, n:].reshape(-1, n, n), kmu[0]),
                            (G[:, :n, None] * kmu[1]).reshape(-1, n * n)], axis=1)
        for m in range(jmax + 1):
            k = np.arange(jmax + 1 - m)
            values[(k + m) * (k + m + 1) // 2 + k] = jacobi33(jmax - m, m, x2) @ (c ** m * v[m])
        values *= _FH_CONST
    if not np.isfinite(values).all():
        raise ValueError(f"Funk-Hecke quadrature of {kern.name} is not finite: the oracle"
                         " cannot integrate it")
    j, k = np.tril_indices(jmax + 1)
    return EigenTable(a, dict(zip(zip(j.tolist(), k.tolist()), values.tolist())))


# ---------------------------------------------------------------------------
# closed forms


# eig_K1 and eig_K2 are sums of terms
#   2 pi^8 Gamma(t - 2a) (a)_j (a + s)_k / (Gamma(j + t - a) Gamma(k + u - a)),
# each a j-factor times a k-factor.  With Gamma(n + t - a) = Gamma(t - a) (t - a)_n
# a factor is a gamma constant times the prefix product of the ratios
# (a + (s + i)) / ((t - a) + i), i < n; a product of n such ratios rounds by
# at most about n ulps (Higham, Accuracy and Stability of Numerical
# Algorithms, 2002, ch. 3).  The gamma constants are constants._gamma_starts.


@functools.lru_cache(maxsize=32)
def _factor_tables(a, size):
    """The j- and k-factors at alpha = a for n < size: seven read-only float views,
    the j-factors in _J_FACTORS order, then the k-factors in _K_FACTORS order.  a is
    checked here, once per table (callers key it by float(alpha); a call that raises is not kept).

    Each numerator a + (s + i) is formed from a itself, so a shift that
    would round a (a - 3 for a just below 1) loses no digits, and a factor
    is exactly 0 from the first numerator that is.  Every denominator is
    positive for alpha in (-1, 11/2).  All seven tables are one in-place
    cumprod, so column 0 is _gamma_starts(a) as it is.
    """
    a = _check_alpha(a)
    starts = _gamma_starts(a)
    # one (7, size) array holds the starts, then the ratios row by row, then the products
    rows = np.empty((len(starts), size))
    rows[:, 0] = starts
    i = np.arange(size - 1.0)
    den = np.empty(size - 1)
    for row, (s, t) in zip(rows, [(0, t) for t in _J_FACTORS] + list(_K_FACTORS)):
        num = np.add(i, s, out=row[1:])
        num += a
        num /= np.add(i, t - a, out=den)
    np.cumprod(rows, axis=1, out=rows)
    rows.flags.writeable = False
    return tuple(memoryview(row) for row in rows)  # an index is a Python float


def _size(j):
    """The _factor_tables size for indices up to j: a power of two >= 64, so a
    scan over j builds O(log j) tables, and a call is an index."""
    return 64 << (int(j) >> 6).bit_length()


def _eig_K1(j, k, rows):
    """eig_K1 from the _factor_tables rows of its exponent: the t = 11 j-factor
    times the (s, u) = (-3, 8) k-factor.  j and k are indices, or broadcasting
    index arrays with rows as ndarrays."""
    return rows[0][j] * rows[3][k] + 0.0  # an exact zero is +0.0 whatever the other signs


def _eig_K1_arrays(j, k, alpha):
    """eig_K1 on index arrays (j >= k >= 0 elementwise): one table read, and per
    element the operations of eig_K1."""
    rows = _factor_tables(float(alpha), _size(np.max(j)))
    return _eig_K1(j, k, [np.asarray(row) for row in rows])


def eig_K1(j, k, alpha):
    """Closed-form eigenvalue of K1 = |1 - w|^(-2 alpha) on W_{j,k}.

    2 pi^8 Gamma(11 - 2a) (a)_j (a - 3)_k / (Gamma(j + 11 - a) Gamma(k + 8 - a)),
    the rising factorials supplying the vanishing limits at a in {0, 1, 2, 3}.
    """
    j, k = _check_index(j, k)
    return _eig_K1(j, k, _factor_tables(float(alpha), _size(j)))


def eig_K2(j, k, alpha):
    """Closed-form eigenvalue of K2 = |w|^2 |1 - w|^(-2 alpha) on W_{j,k}.

    eig_K1 minus the t = 12 term and plus the two (a - 4) terms of a
    gamma-ratio decomposition valid across the integer limit points.  At
    j = 0 (so k = 0) two of them carry (a)_{-1} = 1 / (a - 1); their sum is
    -2 pi^8 (a - 4) Gamma(12 - 2a) / (Gamma(9 - a) Gamma(12 - a)), where
    that pole has cancelled, and with the first term the whole
    eigenvalue is eig_K1 (a^2 - 11a + 44) / ((8 - a)(11 - a)), a
    positive factor evaluated without cancellation.
    """
    j, k = _check_index(j, k)
    a = float(alpha)
    rows = _factor_tables(a, _size(j))
    lam1 = _eig_K1(j, k, rows)
    if j == 0:
        return lam1 * (a * a - 11.0 * a + 44.0) / ((8.0 - a) * (11.0 - a))
    _, j12, j13, _, k48, k39, k49 = rows
    return (lam1 - j12[j] * k48[k] - (a - 4.0) * j12[j - 1] * k39[k]
            + (a - 4.0) * j13[j - 1] * k49[k])


def eig_K1_ratio(j, k, alpha):
    """The quotient lambda_{j,k}(K1^(alpha-1)) / lambda_{j,k}(K1^alpha).

    Rational closed form valid for alpha > 3 where the denominator
    eigenvalue never vanishes.
    """
    j, k = _check_index(j, k)
    a = _check_alpha(alpha)
    if not a > 3.0:
        raise ValueError("ratio requires alpha > 3")
    num = (a - 1.0) * (11.0 - 2.0 * a) * (12.0 - 2.0 * a)
    den = (j + a - 1.0) * (k + 8.0 - a) * (j + 11.0 - a)
    # the (a - 4)/(k + a - 4) factor is an exact cancellation at k = 0, a = 4
    if k + a - 4.0 != 0.0:
        num *= a - 4.0
        den *= k + a - 4.0
    return num / den


# The bilinear margin lambda(K1) + lambda(K2) - lambda(K1^(a-1)) - 2a/(11-a) lambda(K1)
# is 0 at j = 0, and at j >= 1 it is the product (P = (c2 j + c1) j + c0)
#   lambda(K1) 2 (2a - 11) P / ((11 - a)(j + 11 - a)(a + j - 1)(k + 8 - a)(a + k - 4)),
#   c2 = (a - 4)(a - 8) - k (k + 4),  c1 = (8a - 90) a + 232 + k ((15 - a) a - 84 - 10k),
#   c0 = k (k ((a - 12) a + 11) + (27 - a) a - 176).
# For k >= 1, lambda(K1) / (a + k - 4) is the t = 11 j-factor times the (s, u) = (-3, 9)
# k-factor at k - 1; at k = 0, P = j (a - 4)((a - 8) j + 8a - 58) and the (a - 4) cancels.
# So a margin reads the alpha tables alone, and it is exactly 0 where lambda(K1) is.


#: log2 of the scan-order cells per margin block: block b holds the rows j whose first cell
#: j (j + 1) / 2 falls in [b 2^_MARGIN_BITS, (b + 1) 2^_MARGIN_BITS), so at most
#: 2^_MARGIN_BITS + j + 1 cells; 15 was measured against 13..17 (see CHANGES.md)
_MARGIN_BITS = 15


def _block_start(b):
    """The first row of margin block b: the least j with j (j + 1) / 2 >= b 2^_MARGIN_BITS."""
    return (math.isqrt(max(8 * (b << _MARGIN_BITS) - 7, 0)) + 1) // 2


@functools.lru_cache(maxsize=8)
def _margin_cells(a, b):
    """(first, cells) of margin block b at alpha = a: the scan index j (j + 1) / 2 + k of its
    first cell, and its margins in scan order, read-only; an index is a Python float."""
    a, j0 = _check_alpha(a, lo=0.0), _block_start(b)
    return j0 * (j0 + 1) // 2, memoryview(_freeze(_margin_block(j0, _block_start(b + 1), a)[2]))


def bilinear_margin(j, k, alpha):
    """lambda(K1) + lambda(K2) - lambda(K1^(alpha-1)) - 2a/(11-a) lambda(K1) on W_{j,k}, as
    the product above: nonnegative on 3 <= alpha < 11/2, and exactly 0.0 where it vanishes.
    Any alpha in (0, 11/2) is accepted for exploration (so alpha - 1 > -1).

    A call reads cell (j, k) of its margin block, so equals margin_table to the last bit;
    the 8 most recently used (alpha, block) pairs are kept, and a cold block costs a whole
    block (every j <= 255 is in block 0; about 0.7 ms at j = 10^4).
    """
    if not (type(j) is int and type(k) is int and j >= k >= 0):  # else _check_index decides
        j, k = _check_index(j, k)
    start = j * (j + 1) // 2
    first, cells = _margin_cells(float(alpha), start >> _MARGIN_BITS)
    return cells[start - first + k]


def margin_table(alpha, jmax):
    """bilinear_margin on every cell k <= j <= jmax, in scan order (j, then k).

    An iterator over the margin blocks (see _MARGIN_BITS), the last cut at jmax, each a
    triple (j, k, margin) of the cells' index arrays and margins, equal to bilinear_margin
    to the last bit; memory grows with jmax, not jmax^2.  The arguments are checked when
    this is called, not when the first block is read.
    """
    a = _check_alpha(alpha, lo=0.0)
    jmax = _check_degree("jmax", jmax)
    last = jmax * (jmax + 1) // 2 >> _MARGIN_BITS  # the block of row jmax
    starts = [min(_block_start(b), jmax + 1) for b in range(last + 2)]
    return (_margin_block(j0, j1, a) for j0, j1 in zip(starts, starts[1:]) if j0 < j1)


def _margin_block(j0, j1, a):
    """(j, k, margin) of the cells of rows j0 <= j < j1 at alpha = a, in scan order: the
    (j column, k row) rectangle, masked.  Each cell takes the same operations in the same
    order, whatever the block."""
    rows = [np.asarray(row) for row in _factor_tables(a, _size(j1 - 1))]
    s, t, u = 2.0 * (2.0 * a - 11.0) / (11.0 - a), 11.0 - a, 8.0 - a
    # the alpha parts of P's coefficients: c2 = c2_0 - k (k + 4), c1 = c1_0 + k (c1_1 - 10k),
    # c0 = k (k c0_2 + c0_1)
    c2_0, c1_0, c1_1 = (a - 4.0) * (a - 8.0), (8.0 * a - 90.0) * a + 232.0, (15.0 - a) * a - 84.0
    c0_2, c0_1 = (a - 12.0) * a + 11.0, (27.0 - a) * a - 176.0
    j, k = np.arange(j0, j1)[:, None], np.arange(j1)
    m = np.zeros((len(j), len(k)))
    first = 1 if j0 == 0 else 0  # the one cell of row j = 0 is 0
    i, k1 = j[first:], k[1:]
    jt = (i + t) * ((i - 1.0) + a)
    # the k = 0 column, where P / (a + k - 4) = j ((a - 8) j + 8a - 58)
    p0 = i * ((a - 8.0) * i + (8.0 * a - 58.0))
    m[first:, :1] = rows[0][i] * rows[3][0] * s * p0 / (jt * u) + 0.0
    p = ((c2_0 - k1 * (k1 + 4)) * i + (c1_0 + k1 * (c1_1 - 10 * k1))) * i + k1 * (k1 * c0_2 + c0_1)
    m[first:, 1:] = rows[0][i] * rows[5][k1 - 1] * s * p / (jt * (k1 + u)) + 0.0
    cell = k <= j
    return np.broadcast_to(j, cell.shape)[cell], np.broadcast_to(k, cell.shape)[cell], m[cell]


def intertwining_spectrum(d, j, k):
    """Eigenvalue of the degree-d intertwining operator on W_{j,k}.

    Gamma(j + (Q+d)/4) / Gamma(j + (Q-d)/4) times the same ratio shifted
    by -3 in k.  Requires 0 < d < Q.  Zero where a denominator Gamma has a
    pole: at d in {10, 14, 18} when k + (Q-d)/4 - 3 is a nonpositive integer.
    """
    j, k = _check_index(j, k)
    d = _check_open("degree d", d)
    up, dn = (Q + d) / 4.0, (Q - d) / 4.0
    s, log = 1.0, 0.0
    for x, sgn in ((j + up, 1), (j + dn, -1), (k + up - 3.0, 1), (k + dn - 3.0, -1)):
        if sgn < 0 and x <= 0.0 and x == math.floor(x):
            return 0.0  # 1 / Gamma vanishes at the poles of Gamma
        si, li = _signed_log_gamma(x)
        s *= si
        log += sgn * li
    return s * math.exp(log)


# Log-Sobolev gap constant, from the residue of Gamma(11 - 2 alpha) at
# alpha = 11/2 in the K1 eigenvalue family (including the 2^(Q/2) kernel
# normalization).
_C0_LOGSOB = 2.0 ** (Q // 2 + 1) * math.pi ** 8 / (math.gamma(5.5) * math.gamma(2.5))


@functools.lru_cache(maxsize=8)
def _gap_sums(size):
    """Read-only prefix sums of 1/(Q/4 + i) (row 0) and 1/(Q/4 - 3 + i) (row 1) over
    i < n, n < size: np.cumsum plus the cumsum of its rounding errors (Knuth's
    TwoSum), so within about an ulp of the exact sums rather than n ulps."""
    x = 1.0 / (np.array([[Q / 4.0], [Q / 4.0 - 3.0]]) + np.arange(size - 1.0))
    s = np.cumsum(x, axis=1)
    prev = np.pad(s[:, :-1], ((0, 0), (1, 0)))
    z = s - prev
    sums = np.pad(s + np.cumsum((prev - (s - z)) + (x - z), axis=1), ((0, 0), (1, 0)))
    sums.flags.writeable = False
    return sums


def _logsob_gap(j, k):
    """logsob_gap on indices or broadcasting index arrays, unchecked."""
    sums = _gap_sums(_size(np.max(j)))
    return _C0_LOGSOB * (sums[0, j] + sums[1, k])


def logsob_gap(j, k):
    """Spectral gap of the endpoint kernel d_S^(-Q) on W_{j,k}.

    C0 [psi(j + Q/4) + psi(k + Q/4 - 3) - psi(Q/4) - psi(Q/4 - 3)], the
    digamma differences read from the prefix sums of 1/(Q/4 + i) and
    1/(Q/4 - 3 + i); zero at (0,0) and strictly increasing in each index.
    """
    j, k = _check_index(j, k)
    return float(_logsob_gap(j, k))


#: logsob_gap_limit's step below the endpoint alpha = Q/4
_LOGSOB_EPS = 1e-4


def logsob_gap_limit(j, k):
    """Numerical oracle for the gap: 2^(Q/2) (lambda_00 - lambda_jk) at alpha = Q/4 - eps,
    Richardson-extrapolated over eps and eps/2, with eps = _LOGSOB_EPS."""

    def at(e):
        a = Q / 4.0 - e
        return 2.0 ** (Q / 2) * (eig_K1(0, 0, a) - eig_K1(j, k, a))

    f1, f2 = at(_LOGSOB_EPS), at(_LOGSOB_EPS / 2.0)
    return 2.0 * f2 - f1
