"""The 15-dimensional octonionic Heisenberg group.

Elements are pairs (z, t) with z an octonion and t purely imaginary,
with product (z, t)(z', t') = (z + z', t + t' + 2 Im(z conj(z'))).
The homogeneous dimension is Q = 8 + 2 * 7 = 22.

Array-level helpers operate on batches: z with shape (..., 8) and t
with shape (..., 7).
"""

from __future__ import annotations

import numpy as np

from . import octonion as oc
from .octonion import ImOctonion, Octonion

__all__ = [
    "Q",
    "GroupElement",
    "gmul",
    "ginv",
    "hnorm",
    "gdist",
    "dilate",
    "inversion",
    "gmul_zt",
    "hnorm_zt",
]

#: homogeneous dimension of the group under the dilation (dz, d^2 t)
Q = 22


class GroupElement:
    """Group element (z, t), z an Octonion and t an ImOctonion."""

    __slots__ = ("z", "t")

    def __init__(self, z: Octonion, t: ImOctonion):
        self.z = z
        self.t = t

    @classmethod
    def identity(cls):
        return cls(Octonion.zero(), ImOctonion.zero())

    @classmethod
    def from_arrays(cls, z, t):
        return cls(Octonion(np.asarray(z, dtype=float)), ImOctonion(np.asarray(t, dtype=float)))

    def __repr__(self):
        return f"GroupElement(z={self.z.c.tolist()}, t={self.t.v.tolist()})"


# ---------------------------------------------------------------------------
# array kernels

def gmul_zt(z1, t1, z2, t2):
    """Batched group product; z* are (..., 8), t* are (..., 7)."""
    z = np.asarray(z1) + np.asarray(z2)
    cross = oc.im(oc.mul(z1, oc.conj(z2)))
    t = np.asarray(t1) + np.asarray(t2) + 2.0 * cross
    return z, t


def hnorm_zt(z, t):
    """Batched homogeneous norm (|z|^4 + |t|^2)^(1/4)."""
    z2 = np.sum(np.asarray(z) ** 2, axis=-1)
    t2 = np.sum(np.asarray(t) ** 2, axis=-1)
    return (z2 ** 2 + t2) ** 0.25


# ---------------------------------------------------------------------------
# element-level operations

def gmul(u: GroupElement, v: GroupElement) -> GroupElement:
    z, t = gmul_zt(u.z.c, u.t.v, v.z.c, v.t.v)
    return GroupElement.from_arrays(z, t)


def ginv(u: GroupElement) -> GroupElement:
    return GroupElement(-u.z, -u.t)


def hnorm(u: GroupElement) -> float:
    return float(hnorm_zt(u.z.c, u.t.v))


def gdist(u: GroupElement, v: GroupElement) -> float:
    """Left-invariant distance |v^-1 u|."""
    return hnorm(gmul(ginv(v), u))


def dilate(delta: float, u: GroupElement) -> GroupElement:
    if not delta > 0:
        raise ValueError("dilation scale must be positive")
    return GroupElement(delta * u.z, (delta ** 2) * u.t)


def inversion(u: GroupElement) -> GroupElement:
    """Conformal inversion (z, t) -> (-z (|z|^2 - t)^-1, -t / (|z|^4 + |t|^2)).

    The octonionic quotient is taken as right division.  Maps the
    homogeneous norm r to 1/r; undefined at the identity.
    """
    if hnorm(u) == 0.0:
        raise ZeroDivisionError("inversion has a pole at the identity")
    z2 = u.z.norm() ** 2
    t2 = u.t.norm() ** 2
    w = Octonion.from_real(z2) - u.t.as_octonion()  # |z|^2 - t
    z_new = -(u.z * w.inv())
    t_new = (-1.0 / (z2 ** 2 + t2)) * u.t
    return GroupElement(z_new, t_new)
