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
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy import special as sp

from .nilgroup import Q
from .specfun import (
    BisphericalIndex,
    digamma,
    gegenbauer3_normalized,
    jacobi33_normalized,
)

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


def _log_poch(a, n):
    """(sign, log|.|) of the rising factorial a (a+1) ... (a+n-1).

    Sign 0 means the product vanishes exactly (a is a nonpositive
    integer reachable within n steps).
    """
    a = float(a)
    n = int(n)
    if n < 0:
        raise ValueError("rising factorial needs n >= 0")
    if n == 0:
        return 1.0, 0.0
    if a > 0.0:
        return 1.0, float(sp.gammaln(a + n) - sp.gammaln(a))
    # peel off the nonpositive leading factors, then a gamma ratio
    neg = int(math.ceil(-a))
    sign, total = 1.0, 0.0
    for i in range(min(neg, n)):
        f = a + i
        if f == 0.0:
            return 0.0, -math.inf
        if f < 0.0:
            sign = -sign
        total += math.log(abs(f))
    if neg < n:
        if a + neg == 0.0:
            return 0.0, -math.inf
        total += float(sp.gammaln(a + n) - sp.gammaln(a + neg))
    return sign, total


def _signed_exp(sign, log):
    return 0.0 if sign == 0.0 else sign * math.exp(log)


# ---------------------------------------------------------------------------
# zonal kernels


class ZonalKernel:
    """A kernel K(w) that depends on w only through |w| and Re w.

    ``radial(r, x)`` must accept a scalar r in [0, 1] and an ndarray of
    cosines x, returning the kernel values; ``integrable`` marks whether
    K is integrable against the Funk-Hecke weight.  ``radial_angles``
    (optional) evaluates K(cos theta, cos phi) directly from the angles;
    the quadrature prefers it because 1 - cos loses all digits near the
    singular corner in the cosine parameterization.
    """

    __slots__ = ("radial", "integrable", "name", "radial_angles")

    def __init__(self, radial, integrable=True, name="zonal", radial_angles=None):
        self.radial = radial
        self.integrable = bool(integrable)
        self.name = name
        if radial_angles is None:
            radial_angles = lambda theta, phi: self.radial(math.cos(theta), np.cos(phi))
        self.radial_angles = radial_angles

    def __call__(self, w):
        """Evaluate at an octonion argument (object with .c, or (..., 8) array)."""
        c = np.asarray(getattr(w, "c", w), dtype=float)
        r = np.linalg.norm(c, axis=-1)
        x = np.where(r > 0.0, c[..., 0] / np.where(r > 0.0, r, 1.0), 1.0)
        out = self.radial(r, x)
        return float(out) if np.ndim(out) == 0 else out

    def __repr__(self):
        return f"ZonalKernel({self.name})"


def _dist2_angles(theta, phi):
    """|1 - w|^2 = (1 - r)^2 + 2 r (1 - cos phi) at r = cos theta, cancellation-free."""
    return 4.0 * math.sin(theta / 2.0) ** 4 + 4.0 * math.cos(theta) * np.sin(phi / 2.0) ** 2


def kernel_K1(alpha):
    """K1 = |1 - w|^(-2 alpha) = (1 - 2 r x + r^2)^(-alpha)."""
    a = float(alpha)
    return ZonalKernel(
        lambda r, x: (1.0 - 2.0 * r * x + r * r) ** (-a),
        integrable=a < Q / 4,
        name=f"K1^{a}",
        radial_angles=lambda theta, phi: _dist2_angles(theta, phi) ** (-a),
    )


def kernel_K2(alpha):
    """K2 = |w|^2 |1 - w|^(-2 alpha)."""
    a = float(alpha)
    return ZonalKernel(
        lambda r, x: r * r * (1.0 - 2.0 * r * x + r * r) ** (-a),
        integrable=a < Q / 4,
        name=f"K2^{a}",
        radial_angles=lambda theta, phi: math.cos(theta) ** 2 * _dist2_angles(theta, phi) ** (-a),
    )


# ---------------------------------------------------------------------------
# Funk-Hecke quadrature oracle
#
# lambda_{j,k}(K) = (16 pi^7 / 45) * int_0^{pi/2} dtheta cos^{m+7} sin^7 theta
#                   * p_k(cos 2 theta) * int_0^pi dphi K(cos theta, cos phi)
#                   * c_m(cos phi) sin^6 phi
# with m = j - k, p_k and c_m the normalized Jacobi/Gegenbauer factors.
# The kernel blows up at (theta, phi) = (0, 0); both integrals use
# composite Gauss-Legendre panels refined dyadically toward 0.


def _panel(a, b, n):
    x, w = leggauss(n)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * x, half * w


def _phi_grid(theta, npp):
    """Nodes/weights on [0, pi], refined dyadically down to the kernel width.

    The kernel feature scale in phi at r = cos theta is ~ (1 - r); below
    it the integrand is smooth, so refinement stops there.
    """
    width = max(2.0 * math.sin(theta / 2.0) ** 2, 1e-300)
    levels = int(math.ceil(math.log2(math.pi / width)))
    levels = max(2, min(360, levels))
    nodes, weights = [], []
    hi = math.pi
    for _ in range(levels):
        lo = hi / 2.0
        x, w = _panel(lo, hi, npp)
        nodes.append(x)
        weights.append(w)
        hi = lo
    x, w = _panel(0.0, hi, npp)
    nodes.append(x)
    weights.append(w)
    return np.concatenate(nodes), np.concatenate(weights)


def _inner_profile(kern, theta, mmax, npp):
    """Inner phi-integrals I_m = int K(cos theta, cos phi) c_m(cos phi) sin^6 phi dphi."""
    phi, w = _phi_grid(theta, npp)
    x = np.cos(phi)
    base = kern.radial_angles(theta, phi) * np.sin(phi) ** 6 * w
    return np.array([np.dot(base, gegenbauer3_normalized(m, x)) for m in range(mmax + 1)])


def _quadrature_core(kern, pairs, nodes_theta, nodes_phi):
    """Shared-grid evaluation of the Funk-Hecke integral for many (j, k)."""
    if not kern.integrable:
        raise ValueError("kernel is not integrable against the Funk-Hecke weight")
    ntp = max(16, int(nodes_theta) // 16)
    npp = max(16, int(nodes_phi) // 16)
    mmax = max(j - k for j, k in pairs)
    totals = {p: 0.0 for p in pairs}
    ref_total, quiet = 0.0, 0
    for level in range(400):
        hi = math.pi * 2.0 ** (-level - 1)
        lo = hi / 2.0
        th, wth = _panel(lo, hi, ntp)
        contrib = {p: 0.0 for p in pairs}
        ref = 0.0
        for theta, wt in zip(th, wth):
            r = math.cos(theta)
            inner = _inner_profile(kern, theta, mmax, npp)
            base = wt * math.sin(theta) ** 7
            s2 = math.cos(2.0 * theta)
            for j, k in pairs:
                m = j - k
                contrib[(j, k)] += (
                    base * r ** (m + 7) * jacobi33_normalized(k, m, s2) * inner[m]
                )
            ref += base * r ** 7 * abs(inner[0])
        for p in pairs:
            totals[p] += contrib[p]
        ref_total += ref
        if level >= 4 and ref <= 1e-15 * ref_total:
            quiet += 1
            if quiet >= 2:
                break
        else:
            quiet = 0
    return {p: _FH_CONST * v for p, v in totals.items()}


def eig_quadrature(kern, j, k, nodes_theta=256, nodes_phi=256):
    """Funk-Hecke eigenvalue of a zonal kernel on the (j, k) subspace."""
    idx = BisphericalIndex(j, k)
    return _quadrature_core(kern, [(idx.j, idx.k)], nodes_theta, nodes_phi)[(idx.j, idx.k)]


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


def eig_K1(j, k, alpha):
    """Closed-form eigenvalue of K1 = |1 - w|^(-2 alpha) on W_{j,k}.

    2 pi^8 Gamma(11 - 2a) (a)_j (a - 3)_k / (Gamma(j + 11 - a) Gamma(k + 8 - a)),
    with the rising factorials supplying the correct vanishing limits at
    the integer points a in {0, 1, 2, 3}.
    """
    idx = BisphericalIndex(j, k)
    a = _check_alpha(alpha)
    s1, l1 = _log_poch(a, idx.j)
    s2, l2 = _log_poch(a - 3.0, idx.k)
    if s1 * s2 == 0.0:
        return 0.0
    log = (
        _LOG_2PI8
        + sp.gammaln(11.0 - 2.0 * a)
        + l1
        + l2
        - sp.gammaln(idx.j + 11.0 - a)
        - sp.gammaln(idx.k + 8.0 - a)
    )
    return _signed_exp(s1 * s2, float(log))


def _eig_K2_raw(j, k, a):
    """Four-term analytic continuation for the K2 eigenvalue; see eig_K2."""
    lam1 = eig_K1(j, k, a)
    if j == 0:
        if a == 1.0:
            raise ZeroDivisionError("K2 eigenvalue pole at alpha = 1, j = 0")
        sp1 = 1.0 if a > 1.0 else -1.0
        lp1 = -math.log(abs(a - 1.0))
    else:
        sp1, lp1 = _log_poch(a, j - 1)
    sA, lA = _log_poch(a, j)
    sB, lB = _log_poch(a - 3.0, k)
    sC, lC = _log_poch(a - 4.0, k)
    g12 = float(sp.gammaln(12.0 - 2.0 * a))
    g13 = float(sp.gammaln(13.0 - 2.0 * a))
    term_a = -_signed_exp(
        sA * sC,
        _LOG_2PI8 + g12 + lA + lC - sp.gammaln(k + 8.0 - a) - sp.gammaln(j + 12.0 - a),
    )
    if a == 4.0:
        return lam1 + term_a
    l4 = math.log(abs(a - 4.0))
    s4 = 1.0 if a > 4.0 else -1.0
    term_b = -_signed_exp(
        s4 * sp1 * sB,
        _LOG_2PI8 + g12 + l4 + lp1 + lB - sp.gammaln(k + 9.0 - a) - sp.gammaln(j + 11.0 - a),
    )
    term_c = _signed_exp(
        s4 * sp1 * sC,
        _LOG_2PI8 + g13 + l4 + lp1 + lC - sp.gammaln(k + 9.0 - a) - sp.gammaln(j + 12.0 - a),
    )
    return lam1 + term_a + term_b + term_c


def eig_K2(j, k, alpha):
    """Closed-form eigenvalue of K2 = |w|^2 |1 - w|^(-2 alpha) on W_{j,k}.

    Evaluated by a four-term gamma-ratio decomposition valid across the
    integer limit points.  The isolated simple pole at alpha = 1, j = 0
    is resolved by a symmetric epsilon-average when the two-sided limit
    exists and rejected (domain error) when it does not.
    """
    idx = BisphericalIndex(j, k)
    a = _check_alpha(alpha)
    if idx.j == 0 and abs(a - 1.0) < 1e-7:
        eps = 1e-6
        hi = _eig_K2_raw(idx.j, idx.k, a + eps)
        lo = _eig_K2_raw(idx.j, idx.k, a - eps)
        avg = 0.5 * (hi + lo)
        if abs(hi - lo) > 1e-3 * (abs(avg) + 1.0):
            raise ValueError(
                f"K2 eigenvalue has a genuine pole at alpha = 1 for (j, k) = (0, {idx.k})"
            )
        return avg
    return _eig_K2_raw(idx.j, idx.k, a)


def eig_K1_ratio(j, k, alpha):
    """The quotient lambda_{j,k}(K1^(alpha-1)) / lambda_{j,k}(K1^alpha).

    Rational closed form valid for alpha > 3 where the denominator
    eigenvalue never vanishes.
    """
    idx = BisphericalIndex(j, k)
    a = _check_alpha(alpha)
    if not a > 3.0:
        raise ValueError("ratio requires alpha > 3")
    num = (a - 1.0) * (11.0 - 2.0 * a) * (12.0 - 2.0 * a)
    den = (idx.j + a - 1.0) * (idx.k + 8.0 - a) * (idx.j + 11.0 - a)
    # the (a - 4)/(k + a - 4) factor is an exact cancellation at k = 0, a = 4
    if idx.k + a - 4.0 != 0.0:
        num *= a - 4.0
        den *= idx.k + a - 4.0
    return num / den


def bilinear_margin(j, k, alpha):
    """Margin lambda(K1) + lambda(K2) - lambda(K1^(alpha-1)) - 2a/(11-a) lambda(K1).

    Nonnegative on 3 <= alpha < 11/2; any alpha in (0, 11/2) is accepted
    for exploration.  At alpha = 3 every term is finite as evaluated by
    the limit-aware eigenvalue routines, so no rescaling is applied.
    """
    idx = BisphericalIndex(j, k)
    a = float(alpha)
    if not (0.0 < a < Q / 4):
        raise ValueError(f"margin needs 0 < alpha < {Q / 4} so that alpha - 1 > -1")
    lam1 = eig_K1(idx.j, idx.k, a)
    lam2 = eig_K2(idx.j, idx.k, a)
    lam1m = eig_K1(idx.j, idx.k, a - 1.0)
    return lam1 + lam2 - lam1m - (2.0 * a / (11.0 - a)) * lam1


def intertwining_spectrum(d, j, k):
    """Eigenvalue of the degree-d intertwining operator on W_{j,k}.

    Gamma(j + (Q+d)/4) / Gamma(j + (Q-d)/4) times the same ratio shifted
    by -3 in k.  Requires 0 < d < Q.
    """
    idx = BisphericalIndex(j, k)
    d = float(d)
    if not (0.0 < d < Q):
        raise ValueError(f"degree d = {d} outside (0, {Q})")
    up, dn = (Q + d) / 4.0, (Q - d) / 4.0
    s = 1.0
    log = 0.0
    for x, sgn in ((idx.j + up, 1), (idx.j + dn, -1), (idx.k + up - 3.0, 1), (idx.k + dn - 3.0, -1)):
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
    idx = BisphericalIndex(j, k)
    return _C0_LOGSOB * float(
        digamma(idx.j + Q / 4.0)
        + digamma(idx.k + Q / 4.0 - 3.0)
        - digamma(Q / 4.0)
        - digamma(Q / 4.0 - 3.0)
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
