"""Octonion arithmetic via the Cayley-Dickson doubling construction.

The multiplication convention is fixed by applying the doubling rule

    (a, b) (c, d) = (a c - conj(d) b,  d a + b conj(c))

twice, starting from the complex numbers.  The resulting signed basis
table is built once at import time; see ``basis_table_text()`` for a
human-readable dump of the e_i * e_j sign table.

All functions accept plain ndarrays whose last axis has length 8, so
bulk property checks can run vectorized.  The ``Octonion`` class is a
thin scalar wrapper around the same kernels.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "MULT_TABLE",
    "Octonion",
    "ImOctonion",
    "mul",
    "conj",
    "re",
    "im",
    "norm",
    "inv",
    "basis_table_text",
]


def _cd_mul(x, y):
    """Cayley-Dickson product of two coefficient vectors of length 2^m."""
    n = len(x)
    if n == 1:
        return np.array([x[0] * y[0]])
    h = n // 2
    a, b = x[:h], x[h:]
    c, d = y[:h], y[h:]
    return np.concatenate(
        [
            _cd_mul(a, c) - _cd_mul(_cd_conj(d), b),
            _cd_mul(d, a) + _cd_mul(b, _cd_conj(c)),
        ]
    )


def _cd_conj(x):
    out = -np.asarray(x, dtype=float).copy()
    out[0] = -out[0]
    return out


def _build_table():
    table = np.zeros((8, 8, 8))
    eye = np.eye(8)
    for i in range(8):
        for j in range(8):
            table[i, j] = _cd_mul(eye[i], eye[j])
    return table


#: MULT_TABLE[i, j, k] is the e_k coefficient of e_i * e_j (entries in {-1, 0, 1}).
MULT_TABLE = _build_table()


def basis_table_text():
    """Render the basis product table e_i * e_j as signed unit labels."""
    rows = []
    for i in range(8):
        cells = []
        for j in range(8):
            v = MULT_TABLE[i, j]
            k = int(np.flatnonzero(v)[0])
            sign = "-" if v[k] < 0 else "+"
            cells.append(f"{sign}e{k}")
        rows.append(" ".join(cells))
    return "\n".join(rows)


def mul(x, y):
    """Octonion product of arrays with shape (..., 8)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return np.einsum("...i,...j,ijk->...k", x, y, MULT_TABLE)


def conj(x):
    x = np.asarray(x, dtype=float)
    out = -x
    out[..., 0] = x[..., 0]
    return out


def re(x):
    return np.asarray(x, dtype=float)[..., 0]


def im(x):
    """Imaginary coefficients c1..c7, shape (..., 7)."""
    return np.asarray(x, dtype=float)[..., 1:]


def norm(x):
    return np.linalg.norm(np.asarray(x, dtype=float), axis=-1)


def inv(x):
    """Multiplicative inverse conj(x) / |x|^2; raises on zero."""
    x = np.asarray(x, dtype=float)
    n2 = np.sum(x * x, axis=-1)
    if np.any(n2 == 0.0):
        raise ZeroDivisionError("octonion inverse of a zero element")
    return conj(x) / n2[..., None]


def from_im(t):
    """Embed imaginary coefficients (..., 7) as octonions with zero real part."""
    t = np.asarray(t, dtype=float)
    out = np.zeros(t.shape[:-1] + (8,))
    out[..., 1:] = t
    return out


class Octonion:
    """A single octonion, stored as 8 real coefficients (e0 first)."""

    __slots__ = ("c",)

    def __init__(self, coeffs):
        c = np.asarray(coeffs, dtype=float)
        if c.shape != (8,):
            raise ValueError("octonion needs exactly 8 coefficients")
        self.c = c

    @classmethod
    def unit(cls, k=0):
        c = np.zeros(8)
        c[k] = 1.0
        return cls(c)

    @classmethod
    def zero(cls):
        return cls(np.zeros(8))

    @classmethod
    def from_real(cls, a):
        c = np.zeros(8)
        c[0] = a
        return cls(c)

    def __mul__(self, other):
        if isinstance(other, Octonion):
            return Octonion(mul(self.c, other.c))
        return Octonion(self.c * float(other))

    def __rmul__(self, other):
        return Octonion(self.c * float(other))

    def __add__(self, other):
        if isinstance(other, Octonion):
            return Octonion(self.c + other.c)
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, Octonion):
            return Octonion(self.c - other.c)
        return NotImplemented

    def __neg__(self):
        return Octonion(-self.c)

    def conj(self):
        return Octonion(conj(self.c))

    def re(self):
        return float(self.c[0])

    def im(self):
        return ImOctonion(self.c[1:])

    def norm(self):
        return float(np.linalg.norm(self.c))

    def inv(self):
        return Octonion(inv(self.c))

    def __repr__(self):
        return f"Octonion({self.c.tolist()})"


class ImOctonion:
    """A purely imaginary octonion, stored as the 7 coefficients c1..c7."""

    __slots__ = ("v",)

    def __init__(self, coeffs):
        v = np.asarray(coeffs, dtype=float)
        if v.shape != (7,):
            raise ValueError("imaginary octonion needs exactly 7 coefficients")
        self.v = v

    @classmethod
    def zero(cls):
        return cls(np.zeros(7))

    def as_octonion(self):
        return Octonion(from_im(self.v))

    def __add__(self, other):
        return ImOctonion(self.v + other.v)

    def __sub__(self, other):
        return ImOctonion(self.v - other.v)

    def __neg__(self):
        return ImOctonion(-self.v)

    def __mul__(self, s):
        return ImOctonion(self.v * float(s))

    __rmul__ = __mul__

    def norm(self):
        return float(np.linalg.norm(self.v))

    def __repr__(self):
        return f"ImOctonion({self.v.tolist()})"

