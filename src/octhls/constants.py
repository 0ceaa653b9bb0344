"""Closed-form sharp constants of the inequality family, and the scalar gamma layer of
the closed-form spectra: c_d, the gamma starts of spectra's factor tables, lambda_00.

Everything is computed fresh from gamma ratios; the decimal values quoted in the test
suite are derived targets, not inputs.  It imports only math, so `octhls constants` loads no numpy.
"""

from __future__ import annotations

import math

from . import Q

__all__ = ["sphere_measure", "C_hls_group", "C_hls_sphere", "C_sobolev", "C_logsobolev", "c_d"]


def sphere_measure():
    """Surface measure of the unit sphere in R^16: 2 pi^8 / 7!."""
    return 2.0 * math.pi ** 8 / math.factorial(7)


def _check_open(name, x):
    """x as a float; ValueError naming it unless 0 < x < Q, the range of lambda and of
    the degree d."""
    x = float(x)
    if not (0.0 < x < Q):
        raise ValueError(f"{name} = {x} outside (0, {Q})")
    return x


def C_hls_group(lam):
    """Sharp constant of the bilinear inequality on the group side.

    2^(-4 lam/Q) |S|^(lam/Q) 7! Gamma((Q-lam)/2) /
    (Gamma((2Q-lam)/4) Gamma((2Q-lam)/4 - 3)).
    """
    lam = _check_open("lambda", lam)
    gammas = math.gamma((Q - lam) / 2.0) / (
        math.gamma((2.0 * Q - lam) / 4.0) * math.gamma((2.0 * Q - lam) / 4.0 - 3.0)
    )
    return 2.0 ** (-4.0 * lam / Q) * sphere_measure() ** (lam / Q) * math.factorial(7) * gammas


def C_hls_sphere(lam):
    """Sharp constant on the sphere side: 2^(15 lam/Q) times the group constant."""
    return 2.0 ** (15.0 * lam / Q) * C_hls_group(lam)


def C_sobolev(d):
    """Sharp constant of the conformally-invariant Sobolev inequality of degree d.

    (c_d * C'_{Q-d})^(-1) for 0 < d < Q - 12.  At the endpoint d = Q - 12
    the normalizing constant c_d diverges and the value degenerates to 0,
    which is returned rather than raised.
    """
    d = float(d)
    if not (0.0 < d <= Q - 12.0):
        raise ValueError(f"degree d = {d} outside (0, {Q - 12}]")
    if d == Q - 12.0:
        return 0.0
    return 1.0 / (c_d(d) * C_hls_sphere(Q - d))


def C_logsobolev():
    """Sharp Log-Sobolev constant 2^(Q/2 + 3) pi^8 / (Q Gamma(Q/4) Gamma(Q/4 - 3))."""
    return 2.0 ** (Q / 2 + 3) * math.pi ** 8 / (Q * math.gamma(Q / 4.0) * math.gamma(Q / 4.0 - 3.0))


# ---------------------------------------------------------------------------
# the scalar gamma layer of spectra's closed forms


def _check_alpha(alpha, lo=-1.0):
    a = float(alpha)
    if not (lo < a < Q / 4):
        raise ValueError(f"exponent alpha = {a} outside ({lo}, {Q / 4})")
    return a


_2PI8 = 2.0 * math.pi ** 8
# j-factors 2 pi^8 Gamma(t - 2a) (a)_n / Gamma(n + t - a), for t = 11, 12, 13
_J_FACTORS = (11, 12, 13)
# k-factors (a + s)_n / Gamma(n + u - a), for (s, u) = (-3, 8), (-4, 8), (-3, 9), (-4, 9)
_K_FACTORS = ((-3, 8), (-4, 8), (-3, 9), (-4, 9))


def _gamma_starts(a):
    """The n = 0 values of the seven factors at a checked alpha = a: 2 pi^8 Gamma(t - 2a) /
    Gamma(t - a) in _J_FACTORS order, then 1 / Gamma(u - a) in _K_FACTORS order.  Every
    gamma argument is positive for alpha in (-1, 11/2)."""
    starts = [_2PI8 * math.gamma(t - 2.0 * a) / math.gamma(t - a) for t in _J_FACTORS]
    return starts + [1.0 / math.gamma(u - a) for _, u in _K_FACTORS]


def _lambda00(alpha):
    """spectra.eig_K1(0, 0, alpha) to the last bit: the t = 11 start times the (s, u) = (-3, 8)
    start, 2 pi^8 Gamma(11 - 2a) / (Gamma(11 - a) Gamma(8 - a)), positive on the domain."""
    starts = _gamma_starts(_check_alpha(alpha))
    return starts[0] * starts[3]


def _signed_log_gamma(x):
    """(sign, log|Gamma(x)|); raises at the poles x = 0, -1, -2, ..."""
    x = float(x)
    if x <= 0.0 and x == math.floor(x):
        raise ValueError(f"gamma pole at {x}")
    return (-1.0 if x < 0.0 and math.floor(x) % 2 else 1.0), math.lgamma(x)


def c_d(d):
    """Normalizing constant of the fundamental solution of the degree-d operator.

    1 / c_d = 2^((Q-d)/2 + 1) pi^8 Gamma(d/2) / (Gamma((Q-d)/4) Gamma((Q-d)/4 - 3)).
    Positive for 0 < d < Q - 12; evaluated with sign tracking elsewhere,
    with a domain error at the gamma poles d in {10, 14, 18}.
    """
    d = _check_open("degree d", d)
    s1, l1 = _signed_log_gamma((Q - d) / 4.0)
    s2, l2 = _signed_log_gamma((Q - d) / 4.0 - 3.0)
    log = (l1 + l2 - ((Q - d) / 2.0 + 1.0) * math.log(2.0) - 8.0 * math.log(math.pi)
           - math.lgamma(d / 2.0))
    return s1 * s2 * math.exp(log)
