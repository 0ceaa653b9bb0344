"""The 15-dimensional octonionic Heisenberg group.

Elements are pairs (z, t) with z an octonion and t purely imaginary,
with product (z, t)(z', t') = (z + z', t + t' + 2 Im(z conj(z'))).
The homogeneous dimension is Q = 8 + 2 * 7 = 22; it is defined in the
octhls package, so that reading it loads no numpy, and re-exported here.

Every map is a batched kernel on z with shape (..., 8) and t with
shape (..., 7); a dilation by delta is (delta z, delta^2 t).
"""

from __future__ import annotations

import numpy as np

from . import Q, octonion as oc
from .octonion import ImOctonion, Octonion

__all__ = [
    "Q",
    "GroupElement",
    "gmul_zt",
    "hnorm_zt",
    "inversion_zt",
]


class GroupElement:
    """Record of one group element: z an Octonion, t an ImOctonion."""

    __slots__ = ("z", "t")

    def __init__(self, z: Octonion, t: ImOctonion):
        self.z = z
        self.t = t

    @classmethod
    def from_arrays(cls, z, t):
        return cls(Octonion(z), ImOctonion(t))

    def __repr__(self):
        return f"GroupElement(z={self.z.c.tolist()}, t={self.t.v.tolist()})"


def gmul_zt(z1, t1, z2, t2):
    """Batched group product; z* are (..., 8), t* are (..., 7).

    The inverse of (z, t) is (-z, -t), and the left-invariant distance
    |v^-1 u| is ``hnorm_zt(*gmul_zt(-zv, -tv, zu, tu))``.
    """
    z = np.asarray(z1) + np.asarray(z2)
    cross = oc.im_mul_conj(z1, z2)
    cross *= 2.0
    t = np.add(t1, t2, out=np.empty(np.broadcast_shapes(np.shape(t1), np.shape(t2), cross.shape)))
    t += cross
    return z, t


def hnorm_zt(z, t):
    """Batched homogeneous norm (|z|^4 + |t|^2)^(1/4)."""
    z2 = np.sum(np.asarray(z) ** 2, axis=-1)
    t2 = np.sum(np.asarray(t) ** 2, axis=-1)
    return (z2 ** 2 + t2) ** 0.25


def inversion_zt(z, t):
    """Batched conformal inversion (z, t) -> (-z (|z|^2 - t)^-1, -t / (|z|^4 + |t|^2)).

    The octonionic quotient is taken as right division.  Maps the
    homogeneous norm r to 1/r; raises if any row is the identity.
    """
    z, t = np.asarray(z, dtype=float), np.asarray(t, dtype=float)
    w = -oc.from_im(t)  # |z|^2 - t
    w[..., 0] = (z * z).sum(axis=-1)
    r4 = (w * w).sum(axis=-1, keepdims=True)  # |z|^4 + |t|^2
    if (r4 == 0.0).any():
        raise ZeroDivisionError("inversion has a pole at the identity")
    return -oc.mul(z, oc.conj(w) / r4), -t / r4
