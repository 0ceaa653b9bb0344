"""Eigenvalues of zonal integral kernels on the 15-sphere.

Two independent routes to the same numbers: closed-form gamma-ratio
formulas (evaluated in signed log space so indices up to 10^4 neither
overflow nor lose the sign bookkeeping at the integer limit points)
and a Funk-Hecke quadrature oracle that integrates the kernel against
the zonal harmonics directly.  Also: the spectrum of the intertwining
operator of degree d, its fundamental-solution constant, the bilinear
eigenvalue margin, and the Log-Sobolev spectral gap.

Zonal kernels are radial-angular: K(w) depends on the octonion w only
through r = |w| and x = Re w / |w|; for the sphere pairing w = zeta .
conj(eta) this gives r = cos(theta), x = cos(phi) in the polar angles
of the north-pole-fixing frame.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy import special as sp

from .nilgroup import Q
from .specfun import _check_index, gegenbauer3, jacobi33

__all__ = [
    "ZonalKernel",
    "EigenTable",
    "kernel_K1",
    "kernel_K2",
    "eig_quadrature",
    "eig_quadrature_table",
    "eig_K1",
    "eig_K2",
    "eig_K1_ratio",
    "margin_terms",
    "bilinear_margin",
    "intertwining_spectrum",
    "c_d",
    "logsob_gap",
    "logsob_gap_limit",
]

_LOG_2PI8 = math.log(2.0) + 8.0 * math.log(math.pi)

# overall Funk-Hecke constant: volume of the angular fibres over (theta, phi)
_FH_CONST = 16.0 * math.pi ** 7 / 45.0


# ---------------------------------------------------------------------------
# signed log-space building blocks


def _signed_log_gamma(x):
    """(sign, log|Gamma(x)|); raises at the poles x = 0, -1, -2, ..."""
    x = float(x)
    if x <= 0.0 and x == math.floor(x):
        raise ValueError(f"gamma pole at {x}")
    return float(sp.gammasgn(x)), float(sp.gammaln(x))


def _log_poch(a, n, shift=0):
    """(sign, log|.|) of the rising factorial (a + shift) (a + shift + 1) ... (a + shift + n - 1).

    Each factor is formed as a + (shift + i) from a itself, so a shift
    that would round a (e.g. a - 3 for a just below 1) loses no digits.
    Sign 0 means the product vanishes exactly (a + shift is a
    nonpositive integer reachable within n steps).
    """
    a = float(a)
    n = int(n)
    if n < 0:
        raise ValueError("rising factorial needs n >= 0")
    if n == 0:
        return 1.0, 0.0
    if a + shift > 0.0:  # rounding keeps the sign of a + shift
        return 1.0, float(sp.gammaln(a + (shift + n)) - sp.gammaln(a + shift))
    # the factors i < neg are negative; factor neg is the first >= 0
    neg = min(n, math.ceil(-a) - shift)
    total = 0.0
    for i in range(neg):
        total += math.log(-(a + (shift + i)))
    if neg < n:
        lo = a + (shift + neg)
        if lo == 0.0:
            return 0.0, -math.inf
        total += float(sp.gammaln(a + (shift + n)) - sp.gammaln(lo))
    return (-1.0) ** neg, total


def _signed_exp(sign, log):
    return 0.0 if sign == 0.0 else sign * math.exp(log)


# ---------------------------------------------------------------------------
# zonal kernels


@dataclass(frozen=True)
class ZonalKernel:
    """A kernel K(w) that depends on w only through |w| and Re w.

    ``angles(theta, phi)`` returns K at |w| = cos theta, Re w / |w| = cos phi
    for arrays of any broadcastable shapes, with the broadcast shape; the
    angles keep the digits that 1 - cos loses near the singular corner.
    """

    angles: Callable
    name: str = "zonal"


def _dist2_angles(theta, phi):
    """|1 - w|^2 = (1 - r)^2 + 2 r (1 - cos phi) at r = cos theta, cancellation-free."""
    return 4.0 * np.sin(theta / 2.0) ** 4 + 4.0 * np.cos(theta) * np.sin(phi / 2.0) ** 2


def kernel_K1(alpha):
    """K1 = |1 - w|^(-2 alpha) = (1 - 2 r x + r^2)^(-alpha)."""
    a = float(alpha)
    return ZonalKernel(
        lambda theta, phi: _dist2_angles(theta, phi) ** (-a),
        name=f"K1 at alpha = {a}",
    )


def kernel_K2(alpha):
    """K2 = |w|^2 |1 - w|^(-2 alpha)."""
    a = float(alpha)
    return ZonalKernel(
        lambda theta, phi: np.cos(theta) ** 2 * _dist2_angles(theta, phi) ** (-a),
        name=f"K2 at alpha = {a}",
    )


# ---------------------------------------------------------------------------
# Funk-Hecke quadrature oracle
#
# lambda_{j,k}(K) = (16 pi^7 / 45) * int_0^{pi/2} dtheta cos^{m+7} sin^7 theta
#                   * p_k(cos 2 theta) * int_0^pi dphi K(cos theta, cos phi)
#                   * c_m(cos phi) sin^6 phi
# with m = j - k, p_k and c_m the normalized Jacobi/Gegenbauer factors.
# The kernel blows up at (theta, phi) = (0, 0); both integrals use
# composite Gauss-Legendre panels refined dyadically toward 0.  Near the
# corner each theta level contributes a fixed ratio of the one before
# (2^(4 alpha - Q) for K1 above alpha = 7/2, 2^-8 below), so the levels
# left over close as one geometric tail at the ratio the levels measure.


def _panels(lo, hi, rule):
    """Nodes and weights of the rule (x, w) on every panel [lo_i, hi_i], shape (panels, n)."""
    x, w = rule
    mid, half = 0.5 * (lo + hi)[:, None], 0.5 * (hi - lo)[:, None]
    return mid + half * x, half * w


def _phi_grid(theta, rule):
    """Nodes/weights on [0, pi], refined dyadically down to the kernel width at theta.

    The kernel feature scale in phi at r = cos theta is ~ (1 - r); below
    it the integrand is smooth, so refinement stops there.
    """
    width = 2.0 * math.sin(theta / 2.0) ** 2
    levels = math.ceil(math.log2(math.pi / width))
    hi = math.pi * 2.0 ** -np.arange(levels + 1)
    phi, w = _panels(np.append(hi[1:], 0.0), hi, rule)
    return phi.ravel(), w.ravel()


def _quadrature_core(kern, pairs, nodes_theta, nodes_phi):
    """Shared-grid evaluation of the Funk-Hecke integral for many (j, k).

    Dyadic theta level l is the panel [pi 2^(-l-2), pi 2^(-l-1)]; the
    kernel is evaluated once per level on its (theta nodes x phi nodes)
    array, with the phi grid of the level's smallest theta node.  Level L
    adds c_L to the pairs and ref_L to the (0, 0) reference; once rho =
    ref_L / ref_(L-1) < 1 with ref_L |rho - rho_(L-1)| / (1 - rho)^2 within
    1e-15 of the reference total, c_L / (1 - rho) adds level L and its tail.
    A node count n gives max(16, n // 16) Gauss-Legendre nodes per panel.
    """
    if nodes_theta < 1 or nodes_phi < 1:
        raise ValueError(f"node counts must be at least 1, got {nodes_theta} and {nodes_phi}")
    rule_theta = leggauss(max(16, int(nodes_theta) // 16))
    rule_phi = leggauss(max(16, int(nodes_phi) // 16))
    hi = math.pi * 2.0 ** -np.arange(1, 65)  # a budget of 64 levels
    thetas, wthetas = _panels(hi / 2.0, hi, rule_theta)
    ks = np.array([k for _, k in pairs])
    ms = np.array([j - k for j, k in pairs])
    mmax = int(ms.max())
    by_m = [(m, np.flatnonzero(ms == m)) for m in np.unique(ms)]
    totals = np.zeros(len(pairs))
    ref_total, prev, rho_prev = 0.0, 0.0, math.inf
    for level, (th, wth) in enumerate(zip(thetas, wthetas)):
        phi, wphi = _phi_grid(th[0], rule_phi)
        # jac[p, i] = p_k(cos 2 theta_i) for pair p = (k + m, k)
        jac = np.empty((len(pairs), len(th)))
        for m, sel in by_m:
            jac[sel] = jacobi33(ks[sel].max(), m, np.cos(2.0 * th))[ks[sel]]
        w7 = wth * np.sin(th) ** 7 * np.cos(th) ** 7
        with np.errstate(over="ignore", invalid="ignore"):
            base = kern.angles(th[:, None], phi) * (np.sin(phi) ** 6 * wphi)
            inner = base @ gegenbauer3(mmax, np.cos(phi)).T  # inner[i, m]
            c = (w7 * np.cos(th) ** ms[:, None] * jac * inner.T[ms]).sum(axis=1)
            ref = float(np.dot(w7, np.abs(inner[:, 0])))
        ref_total += ref
        if not (np.isfinite(c).all() and math.isfinite(ref_total)):
            raise ValueError(
                f"Funk-Hecke quadrature of {kern.name} is not finite at dyadic theta level"
                f" {level}: the oracle cannot converge there"
            )
        rho = ref / prev if prev else math.inf  # no ratio after an empty level
        if rho < 1.0 and ref * abs(rho - rho_prev) <= 1e-15 * (1.0 - rho) ** 2 * ref_total:
            return {p: _FH_CONST * float(v) for p, v in zip(pairs, totals + c / (1.0 - rho))}
        totals += c
        prev, rho_prev = ref, rho
    if not ref_total:  # the kernel vanishes on every level
        return dict.fromkeys(pairs, 0.0)
    raise ValueError(
        f"Funk-Hecke quadrature of {kern.name} did not settle within {len(hi)} dyadic theta levels"
    )


def eig_quadrature(kern, j, k, nodes_theta=256, nodes_phi=256):
    """Funk-Hecke eigenvalue of a zonal kernel on the (j, k) subspace."""
    pair = _check_index(j, k)
    return _quadrature_core(kern, [pair], nodes_theta, nodes_phi)[pair]


def eig_quadrature_table(kern, alpha, jmax, kmax=None, nodes_theta=256, nodes_phi=256):
    """Quadrature eigenvalues for all j <= jmax, k <= min(j, kmax), as an EigenTable.

    The kernel grid is evaluated once and shared across all indices.
    """
    kmax = jmax if kmax is None else kmax
    pairs = [(j, k) for j in range(jmax + 1) for k in range(min(j, kmax) + 1)]
    vals = _quadrature_core(kern, pairs, nodes_theta, nodes_phi)
    return EigenTable(alpha=float(alpha), provenance="quadrature", values=vals)


# ---------------------------------------------------------------------------
# closed forms


def _check_alpha(alpha, lo=-1.0):
    a = float(alpha)
    if not (lo < a < Q / 4):
        raise ValueError(f"exponent alpha = {a} outside ({lo}, {Q / 4})")
    return a


def _closed_forms(j, k, a, n):
    """The first n of eig_K1(a), eig_K2(a) and eig_K1(a - 1) on W_{j,k}, in one pass.

    Each signed log rising factorial and log-gamma is evaluated once and shared;
    every sum keeps its formula's order, so each value is the one its formula gives alone.

    eig_K2 is eig_K1 plus three gamma-ratio terms.  At j = 0 (so k = 0)
    two of them carry (a)_{-1} = 1 / (a - 1); their sum is
    -2 pi^8 (a - 4) Gamma(12 - 2a) / (Gamma(9 - a) Gamma(12 - a)), where
    that pole has cancelled, and with the first term the whole
    eigenvalue is eig_K1 (a^2 - 11a + 44) / ((8 - a)(11 - a)), a
    positive factor evaluated without cancellation.  eig_K1 at b = a - 1
    takes (a - 4)_k, Gamma(13 - 2a), Gamma(j + 12 - a) and Gamma(k + 9 - a)
    from eig_K2 when b is a - 1 exactly: then each factor b + (i - 3) and
    each gamma argument of b is the same float as a's.  b rounds only for
    some a < 1/2 (e.g. 1/3), and is then evaluated alone.
    """
    s1, l1 = _log_poch(a, j)
    s2, l2 = _log_poch(a, k, -3)
    g11 = float(sp.gammaln(11.0 - 2.0 * a))
    gj11 = float(sp.gammaln(j + 11.0 - a))
    gk8 = float(sp.gammaln(k + 8.0 - a))
    lam1 = _signed_exp(s1 * s2, _LOG_2PI8 + g11 + l1 + l2 - gj11 - gk8)
    if n == 1:
        return (lam1,)
    sC, lC = _log_poch(a, k, -4)
    g12 = float(sp.gammaln(12.0 - 2.0 * a))
    g13 = float(sp.gammaln(13.0 - 2.0 * a))
    gj12 = float(sp.gammaln(j + 12.0 - a))
    gk9 = float(sp.gammaln(k + 9.0 - a))
    if j == 0:
        lam2 = lam1 * (a * a - 11.0 * a + 44.0) / ((8.0 - a) * (11.0 - a))
    else:
        lam2 = lam1 - _signed_exp(s1 * sC, _LOG_2PI8 + g12 + l1 + lC - gk8 - gj12)
        if a != 4.0:
            s4, l4 = (1.0 if a > 4.0 else -1.0), math.log(abs(a - 4.0))
            sp1, lp1 = _log_poch(a, j - 1)
            lam2 -= _signed_exp(s4 * sp1 * s2, _LOG_2PI8 + g12 + l4 + lp1 + l2 - gk9 - gj11)
            lam2 += _signed_exp(s4 * sp1 * sC, _LOG_2PI8 + g13 + l4 + lp1 + lC - gk9 - gj12)
    if n == 2:
        return lam1, lam2
    b = a - 1.0
    if math.fsum((a, -b, -1.0)) != 0.0:  # the exact a - b - 1: nonzero where a - 1 rounds
        return lam1, lam2, _closed_forms(j, k, b, 1)[0]
    sb, lb = _log_poch(b, j)
    return lam1, lam2, _signed_exp(sb * sC, _LOG_2PI8 + g13 + lb + lC - gj12 - gk9)


def eig_K1(j, k, alpha):
    """Closed-form eigenvalue of K1 = |1 - w|^(-2 alpha) on W_{j,k}.

    2 pi^8 Gamma(11 - 2a) (a)_j (a - 3)_k / (Gamma(j + 11 - a) Gamma(k + 8 - a)),
    the rising factorials supplying the vanishing limits at a in {0, 1, 2, 3}.
    """
    return _closed_forms(*_check_index(j, k), _check_alpha(alpha), 1)[0]


def eig_K2(j, k, alpha):
    """Closed-form eigenvalue of K2 = |w|^2 |1 - w|^(-2 alpha) on W_{j,k}.

    Evaluated by a four-term gamma-ratio decomposition valid across the
    integer limit points; at j = 0 the terms are summed in closed form,
    which removes the apparent pole at alpha = 1 (see _closed_forms).
    """
    return _closed_forms(*_check_index(j, k), _check_alpha(alpha), 2)[1]


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


def margin_terms(j, k, alpha):
    """lambda(K1), lambda(K2), -lambda(K1^(alpha-1)), -2a/(11-a) lambda(K1) on W_{j,k}.

    Any alpha in (0, 11/2) is accepted for exploration (so alpha - 1 > -1).
    At alpha = 3 every term is finite as evaluated by the limit-aware
    eigenvalue routines, so no rescaling is applied.
    """
    a = _check_alpha(alpha, lo=0.0)
    lam1, lam2, lam1_prev = _closed_forms(*_check_index(j, k), a, 3)
    return lam1, lam2, -lam1_prev, -(2.0 * a / (11.0 - a)) * lam1


def bilinear_margin(j, k, alpha):
    """The left-to-right sum of margin_terms; nonnegative on 3 <= alpha < 11/2."""
    return sum(margin_terms(j, k, alpha))


def intertwining_spectrum(d, j, k):
    """Eigenvalue of the degree-d intertwining operator on W_{j,k}.

    Gamma(j + (Q+d)/4) / Gamma(j + (Q-d)/4) times the same ratio shifted
    by -3 in k.  Requires 0 < d < Q.  Zero where a denominator Gamma has a
    pole: at d in {10, 14, 18} when k + (Q-d)/4 - 3 is a nonpositive integer.
    """
    j, k = _check_index(j, k)
    d = float(d)
    if not (0.0 < d < Q):
        raise ValueError(f"degree d = {d} outside (0, {Q})")
    up, dn = (Q + d) / 4.0, (Q - d) / 4.0
    s, log = 1.0, 0.0
    for x, sgn in ((j + up, 1), (j + dn, -1), (k + up - 3.0, 1), (k + dn - 3.0, -1)):
        if sgn < 0 and x <= 0.0 and x == math.floor(x):
            return 0.0  # 1 / Gamma vanishes at the poles of Gamma
        si, li = _signed_log_gamma(x)
        s *= si
        log += sgn * li
    return _signed_exp(s, log)


def c_d(d):
    """Normalizing constant of the fundamental solution of the degree-d operator.

    1 / c_d = 2^((Q-d)/2 + 1) pi^8 Gamma(d/2) / (Gamma((Q-d)/4) Gamma((Q-d)/4 - 3)).
    Positive for 0 < d < Q - 12; evaluated with sign tracking elsewhere,
    with a domain error at the gamma poles d in {10, 14, 18}.
    """
    d = float(d)
    if not (0.0 < d < Q):
        raise ValueError(f"degree d = {d} outside (0, {Q})")
    s1, l1 = _signed_log_gamma((Q - d) / 4.0)
    s2, l2 = _signed_log_gamma((Q - d) / 4.0 - 3.0)
    log = (
        l1
        + l2
        - ((Q - d) / 2.0 + 1.0) * math.log(2.0)
        - 8.0 * math.log(math.pi)
        - sp.gammaln(d / 2.0)
    )
    return _signed_exp(s1 * s2, float(log))


# Log-Sobolev gap constant, from the residue of Gamma(11 - 2 alpha) at
# alpha = 11/2 in the K1 eigenvalue family (including the 2^(Q/2) kernel
# normalization).
_C0_LOGSOB = 2.0 ** (Q // 2 + 1) * math.pi ** 8 / (sp.gamma(5.5) * sp.gamma(2.5))


def logsob_gap(j, k):
    """Spectral gap of the endpoint kernel d_S^(-Q) on W_{j,k}.

    C0 [psi(j + Q/4) + psi(k + Q/4 - 3) - psi(Q/4) - psi(Q/4 - 3)];
    zero at (0,0) and strictly increasing in each index.
    """
    j, k = _check_index(j, k)
    return _C0_LOGSOB * float(
        sp.digamma(j + Q / 4.0)
        + sp.digamma(k + Q / 4.0 - 3.0)
        - sp.digamma(Q / 4.0)
        - sp.digamma(Q / 4.0 - 3.0)
    )


def logsob_gap_limit(j, k, eps=1e-4):
    """Numerical oracle for the gap: 2^(Q/2) (lambda_00 - lambda_jk) at alpha = Q/4 - eps,
    Richardson-extrapolated over eps and eps/2."""

    def at(e):
        a = Q / 4.0 - e
        return 2.0 ** (Q / 2) * (eig_K1(0, 0, a) - eig_K1(j, k, a))

    f1, f2 = at(eps), at(eps / 2.0)
    return 2.0 * f2 - f1


# ---------------------------------------------------------------------------
# eigenvalue tables


@dataclass
class EigenTable:
    """Eigenvalues over an index grid for one kernel exponent.

    ``values`` maps (j, k) to the eigenvalue; ``provenance`` records how
    the numbers were produced.
    """

    alpha: float
    provenance: str
    values: dict = field(default_factory=dict)

    def get(self, j, k):
        return self.values[(j, k)]

    def indices(self):
        return sorted(self.values)
