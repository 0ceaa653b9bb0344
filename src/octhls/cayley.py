"""Boundary Cayley transform between the group and the octonionic sphere.

The sphere S is the unit sphere in O^2 = R^16; a point is a pair
(zeta1, zeta2) of octonions with |zeta1|^2 + |zeta2|^2 = 1.  All
octonion quotients A/B below are taken as left division B^-1 A; this
is the order under which the sphere distance transforms exactly into
the group distance (the right-division variant fails that identity
already in the associative subalgebra).

A sphere point is a (..., 16) array.  Each map is written once, as a
batched kernel over arrays (z (..., 8), t (..., 7), sphere points
(..., 16)); ``cayley``, ``cayley_inv``, ``jac_cayley`` and
``jac_cayley_sphere`` are one-row views of those kernels.
"""

from __future__ import annotations

import numpy as np

from . import Q, octonion as oc
from .nilgroup import GroupElement

__all__ = [
    "cayley_zt",
    "cayley_inv_arrays",
    "jac_cayley_zt",
    "jac_cayley_sphere_arrays",
    "hermitian_pairing",
    "sdist_arrays",
    "cayley",
    "cayley_inv",
    "jac_cayley",
    "jac_cayley_sphere",
    "NORTH_POLE",
    "SOUTH_POLE",
]

#: the image of the identity (zeta1, zeta2) = (0, 1), and the point at infinity (0, -1)
NORTH_POLE = np.zeros(16)
NORTH_POLE[8] = 1.0
SOUTH_POLE = -NORTH_POLE
NORTH_POLE.setflags(write=False)
SOUTH_POLE.setflags(write=False)

# below this modulus 1 + zeta2 counts as zero: the point is the south pole
_POLE_EPS = 1e-14


# ---------------------------------------------------------------------------
# array kernels


def _one_plus(x):
    """1 + x for octonion arrays x of shape (..., 8), as a new array."""
    out = np.array(x, dtype=float)
    out[..., 0] += 1.0
    return out


def cayley_zt(z, t):
    """Batched transform of group elements to sphere points (..., 16).

    With w = 1 + |z|^2 - t, zeta1 = w^-1 (2z) and zeta2 = w^-1 (1 - |z|^2 + t);
    zeta2 lies in the complex line of t, (1 - |z|^4 - |t|^2, 2t) / |w|^2.
    """
    z = np.asarray(z, dtype=float)
    t = np.asarray(t, dtype=float)
    z2 = (z * z).sum(axis=-1)
    t2 = (t * t).sum(axis=-1)
    w2 = (1.0 + z2) ** 2 + t2
    winv = oc.from_im(t) / w2[..., None]  # conj(w) / |w|^2
    winv[..., 0] = (1.0 + z2) / w2
    zeta2 = 2.0 * winv
    zeta2[..., 0] = (1.0 - z2 * z2 - t2) / w2
    return np.concatenate([oc.mul(winv, 2.0 * z), zeta2], axis=-1)


def cayley_inv_arrays(v):
    """Batched inverse transform (z, t); raises if any point is the south pole.

    z = (1 + zeta2)^-1 zeta1, and t = -Im((1 + zeta2)^-1 (1 - zeta2)) =
    2 Im(zeta2) / |1 + zeta2|^2 in the complex line of zeta2.
    """
    v = np.asarray(v, dtype=float)
    op = _one_plus(v[..., 8:])
    n2 = (op * op).sum(axis=-1)
    if (n2 < _POLE_EPS ** 2).any():
        raise ZeroDivisionError("Cayley inverse undefined at the south pole")
    return oc.mul(oc.conj(op) / n2[..., None], v[..., :8]), 2.0 * v[..., 9:] / n2[..., None]


def jac_cayley_zt(z, t):
    """Jacobian determinant 2^(Q-7) ((1+|z|^2)^2 + |t|^2)^(-Q/2), batched."""
    z, t = np.asarray(z, dtype=float), np.asarray(t, dtype=float)
    w = (1.0 + (z * z).sum(axis=-1)) ** 2 + (t * t).sum(axis=-1)
    return 2.0 ** (Q - 7) * w ** (-Q / 2)


def jac_cayley_sphere_arrays(v):
    """The same Jacobian in sphere coordinates, 2^-7 |1 + zeta2|^Q, batched."""
    op = _one_plus(np.asarray(v, dtype=float)[..., 8:])
    return 2.0 ** (-7) * (op * op).sum(axis=-1) ** (Q / 2)


def hermitian_pairing(zv, ev):
    """The component-wise pairing zeta1 conj(eta1) + zeta2 conj(eta2), shape (..., 8).

    Its modulus and real part give the polar angles used by the zonal
    calculus.  Because octonion multiplication is non-associative this
    plain sum is *not* the quantity entering the sphere distance for
    two generic points; see :func:`sdist_arrays`.
    """
    zv = np.asarray(zv, dtype=float)
    ev = np.asarray(ev, dtype=float)
    return oc.mul(zv[..., :8], oc.conj(ev[..., :8])) + oc.mul(zv[..., 8:], oc.conj(ev[..., 8:]))


def sdist_arrays(zv, ev):
    """Sphere distance 2^(-1/2) |1 - zeta . conj(eta)|^(1/2) for points (..., 16).

    The product zeta . conj(eta) keeps each term bracketed with the
    unit phases a = conj(p)/|p| and b = q/|q|, p = 1 + zeta2 and
    q = 1 + eta2, of the suppressed quotient denominators:

        1 - zeta . conj(eta)  :=  a b - (a zeta1)(conj(eta1) b)
                                      - (a zeta2)(conj(eta2) b).

    In an associative algebra the phases cancel and this reduces to
    1 - zeta1 conj(eta1) - zeta2 conj(eta2); for octonions only the
    bracketed form satisfies the exact exchange identity with the
    group distance, d_S = d_G(u,v) / (W(u) W(v))^(1/4) with
    W(u) = (1+|z|^2)^2 + |t|^2.  On the zonal slice (eta = north pole)
    the bracketed and plain formulas coincide.

    The zeta2 term lives in complex lines: a zeta2 = |p| - a and
    conj(eta2) b = |q| - b, so a b - (a zeta2)(conj(eta2) b) = |p| b + |q| a - |p||q|,
    and with the phases multiplied out

        1 - zeta . conj(eta) = (|p|^2 q + |q|^2 conj(p) - |p|^2 |q|^2
                                - (conj(p) zeta1)(conj(eta1) q)) / (|p| |q|),

    three octonion products per pair.  When either argument is the
    south pole (|p| or |q| below 1e-14) the continuous limit
    sqrt(|1 + other2| / 2) is used.
    """
    zv = np.asarray(zv, dtype=float)
    ev = np.asarray(ev, dtype=float)
    p = _one_plus(zv[..., 8:])
    q = _one_plus(ev[..., 8:])
    # squared row norms by einsum, which runs one loop per row where .sum reduces 8-wide rows slowly
    p2 = np.einsum("...i,...i->...", p, p)
    q2 = np.einsum("...i,...i->...", q, q)
    pc = oc.conj(p)
    pair = oc.mul(oc.mul(pc, zv[..., :8]), oc.mul(oc.conj(ev[..., :8]), q))
    num = p2[..., None] * q + q2[..., None] * pc - pair
    num[..., 0] -= p2 * q2
    lo, hi = np.sqrt(np.minimum(p2, q2)), np.sqrt(np.maximum(p2, q2))
    pole = lo < _POLE_EPS
    den = np.where(pole, 1.0, 2.0 * np.sqrt(p2 * q2))
    size = np.sqrt(np.einsum("...i,...i->...", num, num))
    return np.where(pole, np.sqrt(hi / 2.0), np.sqrt(size / den))


# ---------------------------------------------------------------------------
# one-point views: each calls its kernel on a one-row batch, so that it
# returns exactly that kernel's row (numpy's scalar and array power
# loops can differ in the last bit)


def cayley(u: GroupElement):
    """Map a group element to the sphere minus the south pole, as a (16,) row."""
    return cayley_zt(u.z.c[None], u.t.v[None])[0]


def cayley_inv(v) -> GroupElement:
    """Inverse boundary transform of a (16,) row; the south pole is the point at infinity."""
    z, t = cayley_inv_arrays(np.asarray(v, dtype=float)[None])
    return GroupElement.from_arrays(z[0], t[0])


def jac_cayley(u: GroupElement) -> float:
    """Jacobian determinant of the transform at one group element."""
    return float(jac_cayley_zt(u.z.c[None], u.t.v[None])[0])


def jac_cayley_sphere(v) -> float:
    """The same Jacobian at one sphere point, a (16,) row."""
    return float(jac_cayley_sphere_arrays(np.asarray(v, dtype=float)[None])[0])

