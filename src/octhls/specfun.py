"""Special functions for the bispherical spectral theory.

Provides Gegenbauer C_n^(3) and Jacobi P_k^(3, 3+m) polynomials (by
three-term recurrence, with variants normalized to 1 at x = 1) and the
zonal harmonics in polar angles (theta, phi).

Polar-angle convention: |zeta2| = cos(theta) with theta in [0, pi/2],
Re zeta2 = cos(theta) cos(phi) with phi in [0, pi].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy import special as sp

__all__ = [
    "BisphericalIndex",
    "digamma",
    "gegenbauer3",
    "gegenbauer3_normalized",
    "jacobi33",
    "jacobi33_normalized",
    "zonal",
    "zonal_sine_form",
]

# seam between direct evaluation of the sine-sum form and its Taylor fallback;
# below the seam the sin^5 quotient cancels catastrophically, so the seam sits
# where both branches are accurate (direct ~1e-11, Taylor converged for the
# frequencies m+5 <= ~45 exercised by the cross-checks)
_PHI_SMALL = 5e-2


@dataclass(frozen=True)
class BisphericalIndex:
    """Index (j, k) of a bispherical harmonic subspace, j >= k >= 0."""

    j: int
    k: int

    def __post_init__(self):
        if not (self.j >= self.k >= 0):
            raise ValueError(f"need j >= k >= 0, got ({self.j}, {self.k})")


def digamma(x):
    return sp.digamma(x)


def _poly_recurrence(n, x, p0, p1, coeffs):
    """Generic three-term recurrence p_m = (a_m x + b_m) p_{m-1} + c_m p_{m-2}."""
    if n == 0:
        return p0
    prev, cur = p0, p1
    for m in range(2, n + 1):
        am, bm, cm = coeffs(m)
        prev, cur = cur, (am * x + bm) * cur + cm * prev
    return cur


def gegenbauer3(n, x):
    """Gegenbauer polynomial C_n^(3)(x) by three-term recurrence."""
    n = int(n)
    x = np.asarray(x, dtype=float)
    p0 = np.ones_like(x)
    p1 = 6.0 * x

    def coeffs(m):
        return 2.0 * (m + 2.0) / m, 0.0, -(m + 4.0) / m

    out = _poly_recurrence(n, x, p0, p1, coeffs)
    return out if out.shape else float(out)


def gegenbauer3_normalized(n, x):
    """(5! n! / (n+5)!) C_n^(3)(x); equals 1 at x = 1."""
    n = int(n)
    scale = 120.0 / ((n + 1) * (n + 2) * (n + 3) * (n + 4) * (n + 5))
    return scale * gegenbauer3(n, x)


def jacobi33(k, m, x):
    """Jacobi polynomial P_k^(3, 3+m)(x) by three-term recurrence."""
    k = int(k)
    if m < 0:
        raise ValueError("weight offset m must be nonnegative")
    a, b = 3.0, 3.0 + m
    x = np.asarray(x, dtype=float)
    p0 = np.ones_like(x)
    p1 = (a + 1.0) + (a + b + 2.0) * (x - 1.0) / 2.0

    def coeffs(n):
        c1 = 2.0 * n * (n + a + b) * (2.0 * n + a + b - 2.0)
        c2 = (2.0 * n + a + b - 1.0) * (a * a - b * b)
        c3 = (2.0 * n + a + b - 1.0) * (2.0 * n + a + b) * (2.0 * n + a + b - 2.0)
        c4 = 2.0 * (n + a - 1.0) * (n + b - 1.0) * (2.0 * n + a + b)
        return c3 / c1, c2 / c1, -c4 / c1

    out = _poly_recurrence(k, x, p0, p1, coeffs)
    return out if out.shape else float(out)


def jacobi33_normalized(k, m, x):
    """(3! k! / (k+3)!) P_k^(3, 3+m)(x); equals 1 at x = 1."""
    k = int(k)
    scale = 6.0 / ((k + 1) * (k + 2) * (k + 3))
    return scale * jacobi33(k, m, x)


# ---------------------------------------------------------------------------
# zonal harmonics


def zonal(j, k, theta, phi):
    """Zonal harmonic of the (j, k) subspace, normalized to 1 at theta = phi = 0.

    Evaluates the product of the normalized Gegenbauer factor in phi and
    the normalized Jacobi factor in theta; accepts scalar or array angles.
    """
    idx = BisphericalIndex(j, k)
    m = idx.j - idx.k
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    val = (
        gegenbauer3_normalized(m, np.cos(phi))
        * np.cos(theta) ** m
        * jacobi33_normalized(idx.k, m, np.cos(2.0 * theta))
    )
    return val if np.ndim(val) else float(val)


def _sine_sum_coeffs(m):
    """Exact coefficients c_r of the bracket sum_r c_r sin(n_r phi), n_r = m+1, m+3, m+5."""
    c1 = Fraction(1, 4 * (m + 3)) - Fraction(1, 2 * (m + 2)) + Fraction(1, 4 * (m + 1))
    c3 = Fraction(1, m + 3) - Fraction(1, 2 * (m + 2)) - Fraction(1, 2 * (m + 4))
    c5 = Fraction(1, 4 * (m + 3)) - Fraction(1, 2 * (m + 4)) + Fraction(1, 4 * (m + 5))
    return {m + 1: c1, m + 3: c3, m + 5: c5}


def _sine_sum_moments(m, imax=9):
    """Exact odd moments M_i = sum_r c_r n_r^(2i+1); M_0 = M_1 = 0 identically."""
    coeffs = _sine_sum_coeffs(m)
    return [sum(c * Fraction(n) ** (2 * i + 1) for n, c in coeffs.items()) for i in range(imax + 1)]


def _sine_ratio(m, phi):
    """The quotient [bracket]/sin^5(phi), with a Taylor fallback near phi = 0."""
    phi = np.asarray(phi, dtype=float)
    out = np.empty_like(phi)
    small = np.abs(phi) < _PHI_SMALL
    if np.any(~small):
        p = phi[~small]
        s = np.zeros_like(p)
        for n, c in _sine_sum_coeffs(m).items():
            s += float(c) * np.sin(n * p)
        out[~small] = s / np.sin(p) ** 5
    if np.any(small):
        p = phi[small]
        moments = _sine_sum_moments(m)
        num = np.zeros_like(p)
        for i in range(2, len(moments)):
            num += (-1.0) ** i * float(moments[i]) / math.factorial(2 * i + 1) * p ** (2 * i + 1)
        sin5 = np.where(p == 0.0, 1.0, np.sin(np.where(p == 0.0, 1.0, p)) ** 5)
        ratio = np.where(p == 0.0, float(moments[2]) / math.factorial(5), num / sin5)
        out[small] = ratio
    return out


def zonal_sine_form(j, k, theta, phi):
    """The sine-sum form of the zonal harmonic, calibrated to match :func:`zonal`.

    The overall constant is fixed once by matching the hypergeometric
    product form at theta = phi = 0.
    """
    idx = BisphericalIndex(j, k)
    m = idx.j - idx.k
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    # at phi = 0 the ratio tends to M_2/5!, so kappa * ratio(0) = 1
    kappa = math.factorial(5) / float(_sine_sum_moments(m)[2])
    val = (
        kappa
        * _sine_ratio(m, phi)
        * np.cos(theta) ** m
        * jacobi33_normalized(idx.k, m, np.cos(2.0 * theta))
    )
    return val if np.ndim(val) else float(val)

