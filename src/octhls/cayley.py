"""Boundary Cayley transform between the group and the octonionic sphere.

The sphere S is the unit sphere in O^2 = R^16; a point is a pair
(zeta1, zeta2) of octonions with |zeta1|^2 + |zeta2|^2 = 1.  All
octonion quotients A/B below are taken as left division B^-1 A; this
is the order under which the sphere distance transforms exactly into
the group distance (the right-division variant fails that identity
already in the associative subalgebra).

Each map is written once, as a batched kernel over arrays (z (..., 8),
t (..., 7), sphere points (..., 16)); the functions taking GroupElement
or SpherePoint objects are one-row views of those kernels.
"""

from __future__ import annotations

import math

import numpy as np

from . import octonion as oc
from .nilgroup import Q, GroupElement
from .octonion import Octonion

__all__ = [
    "SpherePoint",
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
    "sdist",
    "lift_function",
    "lower_function",
    "NORTH_POLE",
    "SOUTH_POLE",
]


class SpherePoint:
    """Unit vector in O^2, stored as two octonions."""

    __slots__ = ("zeta1", "zeta2")

    def __init__(self, zeta1: Octonion, zeta2: Octonion, check: bool = True):
        self.zeta1 = zeta1
        self.zeta2 = zeta2
        if check:
            r = zeta1.norm() ** 2 + zeta2.norm() ** 2
            if abs(r - 1.0) > 1e-10:
                raise ValueError(f"not a unit vector: |zeta|^2 = {r}")

    @classmethod
    def from_vector(cls, v, check=True):
        v = np.asarray(v, dtype=float)
        return cls(Octonion(v[:8]), Octonion(v[8:]), check=check)

    def as_vector(self):
        return np.concatenate([self.zeta1.c, self.zeta2.c])

    def __repr__(self):
        return f"SpherePoint({self.zeta1.c.tolist()}, {self.zeta2.c.tolist()})"


NORTH_POLE = SpherePoint(Octonion.zero(), Octonion.unit(0))
SOUTH_POLE = SpherePoint(Octonion.zero(), -Octonion.unit(0))

# below this modulus 1 + zeta2 counts as zero: the point is the south pole
_POLE_EPS = 1e-14


# ---------------------------------------------------------------------------
# array kernels


def _one_plus(x, sign=1.0):
    """1 + sign * x for octonion arrays x of shape (..., 8), as a new array."""
    out = sign * x
    out[..., 0] += 1.0
    return out


def cayley_zt(z, t):
    """Batched transform of group elements to sphere points (..., 16)."""
    z = np.asarray(z, dtype=float)
    tt = oc.from_im(t)
    z2 = (z * z).sum(axis=-1)
    w = -tt  # 1 + |z|^2 - t, real part >= 1
    w[..., 0] = 1.0 + z2
    winv = oc.conj(w) / (w * w).sum(axis=-1)[..., None]
    tt[..., 0] = 1.0 - z2  # 1 - |z|^2 + t
    return np.concatenate([oc.mul(winv, 2.0 * z), oc.mul(winv, tt)], axis=-1)


def cayley_inv_arrays(v):
    """Batched inverse transform (z, t); raises if any point is the south pole."""
    v = np.asarray(v, dtype=float)
    op = _one_plus(v[..., 8:])
    n2 = (op * op).sum(axis=-1)
    if (n2 < _POLE_EPS ** 2).any():
        raise ZeroDivisionError("Cayley inverse undefined at the south pole")
    q = oc.conj(op) / n2[..., None]
    return oc.mul(q, v[..., :8]), -oc.im(oc.mul(q, _one_plus(v[..., 8:], -1.0)))


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
    unit phases a = conj(1+zeta2)/|1+zeta2| and b = (1+eta2)/|1+eta2|
    of the suppressed quotient denominators:

        1 - zeta . conj(eta)  :=  a b - (a zeta1)(conj(eta1) b)
                                      - (a zeta2)(conj(eta2) b).

    In an associative algebra the phases cancel and this reduces to
    1 - zeta1 conj(eta1) - zeta2 conj(eta2); for octonions only the
    bracketed form satisfies the exact exchange identity with the
    group distance, d_S = d_G(u,v) / (W(u) W(v))^(1/4) with
    W(u) = (1+|z|^2)^2 + |t|^2.  When either argument is the south
    pole the continuous limit sqrt(|1 + other2| / 2) is used.  On the
    zonal slice (eta = north pole) the corrected and plain formulas
    coincide.
    """
    zv = np.asarray(zv, dtype=float)
    ev = np.asarray(ev, dtype=float)
    oz = _one_plus(zv[..., 8:])
    oe = _one_plus(ev[..., 8:])
    nz = oc.norm(oz)[..., None]
    ne = oc.norm(oe)[..., None]
    a = oc.conj(oz) / np.where(nz < _POLE_EPS, 1.0, nz)
    b = oe / np.where(ne < _POLE_EPS, 1.0, ne)
    pair = oc.mul(oc.mul(a, zv[..., :8]), oc.mul(oc.conj(ev[..., :8]), b)) + oc.mul(
        oc.mul(a, zv[..., 8:]), oc.mul(oc.conj(ev[..., 8:]), b)
    )
    d = np.sqrt(oc.norm(oc.mul(a, b) - pair) / 2.0)
    lo, hi = np.minimum(nz, ne)[..., 0], np.maximum(nz, ne)[..., 0]
    return np.where(lo < _POLE_EPS, np.sqrt(hi / 2.0), d)


# ---------------------------------------------------------------------------
# one-point views: each calls its kernel on a one-row batch, so that it
# returns exactly that kernel's row (numpy's scalar and array power
# loops can differ in the last bit)


def cayley(u: GroupElement) -> SpherePoint:
    """Map a group element to the sphere minus the south pole."""
    return SpherePoint.from_vector(cayley_zt(u.z.c[None], u.t.v[None])[0])


def cayley_inv(zeta: SpherePoint) -> GroupElement:
    """Inverse boundary transform; the south pole is the point at infinity."""
    z, t = cayley_inv_arrays(zeta.as_vector()[None])
    return GroupElement.from_arrays(z[0], t[0])


def jac_cayley(u: GroupElement) -> float:
    """Jacobian determinant of the transform at one group element."""
    return float(jac_cayley_zt(u.z.c[None], u.t.v[None])[0])


def jac_cayley_sphere(zeta: SpherePoint) -> float:
    """The same Jacobian at one sphere point."""
    return float(jac_cayley_sphere_arrays(zeta.as_vector()[None])[0])


def sdist(zeta: SpherePoint, eta: SpherePoint) -> float:
    """Sphere distance of two points; see :func:`sdist_arrays`."""
    return float(sdist_arrays(zeta.as_vector()[None], eta.as_vector()[None])[0])


def lift_function(f, p):
    """Lift a group function to the sphere: f~(zeta) = f(C^-1 zeta) |J_C^-1|^(1/p).

    ``p`` may be ``math.inf`` for the plain-composition limit.  The lift
    preserves the L^p norm.  Evaluation at the south pole raises.
    """
    if not (p > 1):
        raise ValueError("exponent p must exceed 1")

    def ftilde(zeta: SpherePoint) -> float:
        u = cayley_inv(zeta)
        if math.isinf(p):
            return f(u)
        return f(u) * (1.0 / jac_cayley(u)) ** (1.0 / p)

    return ftilde


def lower_function(ftilde, p):
    """Inverse of :func:`lift_function`: f(u) = f~(C u) |J_C(u)|^(1/p)."""
    if not (p > 1):
        raise ValueError("exponent p must exceed 1")

    def f(u: GroupElement) -> float:
        zeta = cayley(u)
        if math.isinf(p):
            return ftilde(zeta)
        return ftilde(zeta) * jac_cayley(u) ** (1.0 / p)

    return f
