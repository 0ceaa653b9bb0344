"""Eigenvalues of zonal integral kernels on the 15-sphere.

Two independent routes to the same numbers: closed-form gamma-ratio
formulas (gamma constants times prefix products of rising-factorial
ratios, so indices up to 10^4 neither overflow nor lose the exact zeros
at the integer limit points) and a Funk-Hecke quadrature oracle that
integrates the kernel against the zonal harmonics directly.  Also: the spectrum of the intertwining
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
from typing import NamedTuple

import numpy as np
from numpy.polynomial.legendre import leggauss

from . import Q
from .constants import (_J_FACTORS, _K_FACTORS, _check_alpha, _check_open, _gamma_starts,
                        _signed_log_gamma, c_d)
from .specfun import _check_degree, _check_index, bispherical_basis, gegenbauer3

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
    oracle passes a level's (theta nodes x phi nodes) array of d2 and its
    theta column, d2 formed as 4 sin^4(theta/2) + 4 cos theta sin^2(phi/2)
    = (1 - r)^2 + 2 r (1 - cos phi) at r = cos theta, which keeps the digits
    that 1 - cos loses near the singular corner.  Both are read-only: the
    theta column is a view of the grid every table at the same jmax shares,
    and a write raises ValueError.
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
# The kernel blows up at (theta, phi) = (0, 0); both integrals use
# composite Gauss-Legendre panels refined dyadically toward 0.  Near the
# corner the integrand is theta^s times an even series in theta, and each
# level halves theta, so level l contributes A rho^l + B (rho/4)^l, with
# rho = 2^(4 alpha - Q) for K1 above alpha = 7/2 and 2^-8 below.  The levels
# left over close as the two geometric tails of that model, at the ratio
# the levels measure, extrapolated once over its 1/4 subleading factor.


def _panels(lo, hi, rule):
    """Nodes and weights of the rule (x, w) on the panels [lo, hi], shape (*np.shape(lo), n)."""
    x, w = rule
    mid, half = np.asarray(0.5 * (lo + hi))[..., None], np.asarray(0.5 * (hi - lo))[..., None]
    return mid + half * x, half * w


def _freeze(arr):
    arr.flags.writeable = False
    return arr


#: the dyadic theta levels a table may visit
_LEVELS = 64
#: theta levels per bispherical_basis call: a grid builds the theta factors of the levels
#: tables reach, a block at a time
_BLOCK = 8


class _Level(NamedTuple):
    """What a dyadic theta level reads of its grid, every array read-only."""

    theta: np.ndarray  # the level's theta nodes, a column (n, 1)
    w: np.ndarray  # their sin^7 cos^7 weights
    T: np.ndarray  # the theta factors of bispherical_basis at them, (pairs, n)
    A: np.ndarray  # 4 sin^4(theta/2), a column
    B: np.ndarray  # 4 cos theta, a column
    sw: np.ndarray  # sin^6 phi times the weights of the level's phi grid on [0, pi]
    S: np.ndarray  # sin^2(phi/2) at its nodes
    cut: int  # the dyadic panels' columns: the first cut, then the end panel's n
    G_end: np.ndarray  # the end panel's gegenbauer3 rows, a view of the grid's G


class _Grid:
    """Everything of the oracle at one jmax that does not depend on the kernel.

    Built with the grid: the Gauss-Legendre rule of n = max(16, jmax + 8) nodes, the
    theta nodes of every level, their sin^7 cos^7 weights, the theta parts A = 4
    sin^4(theta/2) and B = 4 cos theta of |1 - w|^2 = A + B sin^2(phi/2), and every phi
    panel.  Level l reads the dyadic panels [pi 2^(-i-1), pi 2^-i], i < D_l = 2 l + 4,
    then its end panel [0, pi 2^-D_l].  The grid holds the 2 _LEVELS + 2 dyadic panels,
    then the _LEVELS end panels, as rows of n: sw = sin^6 phi times the weights, S =
    sin^2(phi/2), and G, their gegenbauer3 rows from one call, (jmax + 1, panels n),
    whose first D_l n columns a level reads in place (16 MiB at jmax 100).  The theta
    factors are built in blocks of _BLOCK levels as tables reach them (34 MiB a block
    at jmax 100, 272 MiB for all _LEVELS), with one _Level record per level reached.
    Every array a grid hands out is read-only.
    """

    def __init__(self, jmax):
        self.jmax = jmax
        self.rule = leggauss(max(16, jmax + 8))
        hi = math.pi * 2.0 ** -np.arange(1, _LEVELS + 1)
        theta, w = _panels(hi / 2.0, hi, self.rule)
        self.theta = _freeze(theta)
        self.w7 = _freeze(w * np.sin(theta) ** 7 * np.cos(theta) ** 7)
        self.A = _freeze(4.0 * np.sin(theta / 2.0) ** 4)
        self.B = _freeze(4.0 * np.cos(theta))
        j, k, T = bispherical_basis(jmax, theta[:_BLOCK])  # every table visits level 0
        self.j, self.k, self.m = _freeze(j), _freeze(k), _freeze(j - k)
        self._T = [_freeze(T)]  # by block of _BLOCK levels: their theta factors, (pairs, block, n)
        # the kernel's feature scale in phi is 1 - cos theta, below which the integrand is
        # smooth: about pi^2 2^(-2l-5) at level l's smallest theta node, so D_l = 2 l + 4
        top = math.pi * 2.0 ** -np.arange(2 * _LEVELS + 3)
        phi, w = _panels(np.concatenate([top[1:], np.zeros(_LEVELS)]),
                         np.concatenate([top[:-1], top[4::2]]), self.rule)
        self.sw = _freeze(np.sin(phi) ** 6 * w)  # (panels, n)
        self.S = _freeze(np.sin(phi / 2.0) ** 2)
        self.G = _freeze(gegenbauer3(jmax, np.cos(phi)).reshape(jmax + 1, -1))
        self._levels = {}  # by level reached: its _Level

    def level(self, level):
        """The _Level of dyadic theta level `level`, built when a table first reaches it."""
        rec = self._levels.get(level)
        if rec is not None:
            return rec
        depth, n = 2 * level + 4, len(self.rule[0])
        end = 2 * _LEVELS + 2 + level  # the row of the level's end panel
        sw, S = (_freeze(np.concatenate([a[:depth].ravel(), a[end]])) for a in (self.sw, self.S))
        while len(self._T) * _BLOCK <= level:
            b = len(self._T) * _BLOCK
            self._T.append(_freeze(bispherical_basis(self.jmax, self.theta[b:b + _BLOCK])[2]))
        rec = _Level(self.theta[level][:, None], self.w7[level],
                     self._T[level // _BLOCK][:, level % _BLOCK], self.A[level][:, None],
                     self.B[level][:, None], sw, S, depth * n, self.G[:, end * n:(end + 1) * n])
        self._levels[level] = rec
        return rec


#: the most recently used jmax values whose grid is kept: a CLI command runs at one jmax,
#: and at jmax 100 a grid holds 17 MiB, nearly all phi panels, and 34 MiB per block of levels
#: reached: 85 MiB after a K1 table at alpha = 4 (9 levels), 120 at 5.45 (22), 189 at 5.49 (38)
_GRIDS = 2


@functools.lru_cache(maxsize=_GRIDS)
def _grid(jmax):
    """The _Grid of a checked jmax, shared by every table at that jmax."""
    return _Grid(jmax)


def _level(grid, kern, level):
    """(c, ref) of dyadic theta level `level`: the level's share of every pair's
    Funk-Hecke integral, without _FH_CONST, and of the (0, 0) reference integral
    of |K| over phi.  The kernel takes d2 = A + B S, the operations of
    4 sin^4(theta/2) + 4 cos theta sin^2(phi/2) in their order, read-only."""
    theta, w, T, A, B, sw, S, cut, G_end = grid.level(level)
    kw = kern.at(_freeze(A + B * S), theta) * sw
    inner = kw[:, :cut] @ grid.G[:, :cut].T  # inner[i, m]: the dyadic panels,
    inner += kw[:, cut:] @ G_end.T  # then the end panel
    c = np.einsum("pi,i,ip->p", T, w, inner[:, grid.m])
    ref = float(np.dot(w, np.abs(inner[:, 0])))
    return c, ref


def _not_finite(kern, level):
    return ValueError(f"Funk-Hecke quadrature of {kern.name} is not finite at dyadic theta"
                      f" level {level}: the oracle cannot converge there")


@dataclass
class EigenTable:
    """Eigenvalues for one kernel exponent: ``values`` maps (j, k) to the eigenvalue."""

    alpha: float
    values: dict


def eig_quadrature_table(kern, alpha, jmax):
    """Quadrature eigenvalues of the Funk-Hecke integral for all j <= jmax, k <= j, as an
    EigenTable of alpha.

    Every theta and phi panel takes the one Gauss-Legendre rule of n = max(16, jmax + 8)
    nodes, exact to polynomial degree 2n - 1: the harmonic factors times the measure are
    trigonometric polynomials of degree up to 2 jmax + 14 in theta (jmax + 6 in phi), so
    the rule follows jmax (16 nodes miss 1e-6 from jmax 9 at alpha = 2.5).  Dyadic theta
    level l is the panel [pi 2^(-l-2), pi 2^(-l-1)].  Everything but the kernel comes from
    the _Grid of jmax, kept for the _GRIDS most recently used values of jmax; a table
    evaluates the kernel once per level on its (theta nodes x phi nodes) array, with the
    phi grid of the level's smallest theta node, and shares it across all indices.  A table
    runs under one np.errstate that ignores overflow: a level whose sums are not finite, or
    a table that is not, raises instead.

    Level L adds c_L to the pairs and ref_L to the (0, 0) reference, whose
    ratios rho_L = ref_L / ref_(L-1) approach rho with an error that shrinks by
    1/4 per level, so rho^ = rho_L + (rho_L - rho_(L-1)) / 3 estimates rho.  A
    level is settled when rho_L < 1 and ref_L |rho_L - rho_(L-1)| / (1 - rho_L)^2 is
    within 1e-15 of the reference total.  Once rho^ < 1, and the level is settled
    or the same test passes on rho^, the model A rho^l + B (rho/4)^l through the
    last two levels of each pair gives the table, sum_(l<L) c_l + (c_L - b) / (1 -
    rho^) + b / (1 - rho^/4) with b = B (rho^/4)^L.  It is returned at a settled
    level, or once it moved by at most 1e-15 of its largest entry since the level
    before.  A level the reference does not see (rho_L = 0 after a nonzero level)
    closes with an empty tail.
    """
    grid = _grid(_check_degree("jmax", jmax))
    totals = np.zeros(len(grid.j))
    ref_total, prev, rho_prev, hat_prev = 0.0, 0.0, math.inf, math.inf
    c_prev = est = None
    with np.errstate(over="ignore", invalid="ignore"):
        for level in range(_LEVELS):
            c, ref = _level(grid, kern, level)
            ref_total += ref
            if not (np.isfinite(c).all() and math.isfinite(ref_total)):
                raise _not_finite(kern, level)
            rho = ref / prev if prev else math.inf  # no ratio after an empty level
            rho_hat = max(rho + (rho - rho_prev) / 3.0, 0.0) if rho_prev < math.inf else math.inf
            settled = (rho < 1.0
                       and ref * abs(rho - rho_prev) <= 1e-15 * (1.0 - rho) ** 2 * ref_total)
            if rho_hat < 1.0 and (settled or ref * abs(rho_hat - hat_prev)
                                  <= 1e-15 * (1.0 - rho_hat) ** 2 * ref_total):
                b = (rho_hat * c_prev - c) / 3.0  # (c_L - rho c_(L-1)) q / (q - rho), q = rho/4
                last, est = est, totals + (c - b) / (1.0 - rho_hat) + b / (1.0 - rho_hat / 4.0)
                if settled or (last is not None
                               and np.abs(est - last).max() <= 1e-15 * np.abs(est).max()):
                    values = _FH_CONST * est
                    if not np.isfinite(values).all():
                        raise _not_finite(kern, level)
                    break
            else:
                est = None
            totals += c
            c_prev, prev, rho_prev, hat_prev = c, ref, rho, rho_hat
        else:
            if ref_total:
                raise ValueError(f"Funk-Hecke quadrature of {kern.name} did not settle within"
                                 f" {_LEVELS} dyadic theta levels")
            values = np.zeros(len(grid.j))  # the kernel vanishes on every level
    cells = zip(grid.j.tolist(), grid.k.tolist())
    return EigenTable(float(alpha), dict(zip(cells, values.tolist())))


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
