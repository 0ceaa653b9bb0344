"""Closed-form sharp constants of the inequality family.

Everything is computed fresh from gamma ratios; the decimal values
quoted in the test suite are derived targets, not inputs.
"""

from __future__ import annotations

import math

from . import Q
from .spectra import c_d

__all__ = [
    "sphere_measure",
    "C_hls_group",
    "C_hls_sphere",
    "C_sobolev",
    "C_logsobolev",
]


def sphere_measure():
    """Surface measure of the unit sphere in R^16: 2 pi^8 / 7!."""
    return 2.0 * math.pi ** 8 / math.factorial(7)


def C_hls_group(lam):
    """Sharp constant of the bilinear inequality on the group side.

    2^(-4 lam/Q) |S|^(lam/Q) 7! Gamma((Q-lam)/2) /
    (Gamma((2Q-lam)/4) Gamma((2Q-lam)/4 - 3)).
    """
    lam = float(lam)
    if not (0.0 < lam < Q):
        raise ValueError(f"lambda = {lam} outside (0, {Q})")
    gammas = math.gamma((Q - lam) / 2.0) / (
        math.gamma((2.0 * Q - lam) / 4.0) * math.gamma((2.0 * Q - lam) / 4.0 - 3.0)
    )
    return (
        2.0 ** (-4.0 * lam / Q)
        * sphere_measure() ** (lam / Q)
        * math.factorial(7)
        * gammas
    )


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
    return (
        2.0 ** (Q / 2 + 3)
        * math.pi ** 8
        / (Q * math.gamma(Q / 4.0) * math.gamma(Q / 4.0 - 3.0))
    )
