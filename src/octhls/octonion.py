"""Octonion arithmetic via the Cayley-Dickson doubling construction.

The multiplication convention is fixed by applying the doubling rule

    (a, b) (c, d) = (a c - conj(d) b,  d a + b conj(c))

twice, starting from the complex numbers.  The resulting signed basis
table is built once at import time, one broadcast doubling pass over
all 64 basis pairs; see ``basis_table_text()`` for a
human-readable dump of the e_i * e_j sign table.

All functions accept plain ndarrays whose last axis has length 8, so
bulk property checks can run vectorized.  ``mul`` is one (8, 64)
expansion of the right factor and one einsum contraction with the left,
in row blocks of at most ``_BLOCK``; it equals the full table
contraction to the last bit.  ``im_mul_conj``, the Im(x conj(y)) of
the group law, takes the same path with an (8, 56) expansion that folds
in the conjugation and drops the real column.  ``Octonion`` and
``ImOctonion`` are shape-checked coefficient records without
arithmetic.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "MULT_TABLE",
    "Octonion",
    "ImOctonion",
    "mul",
    "im_mul_conj",
    "conj",
    "basis_table_text",
]


def conj(x):
    x = np.asarray(x, dtype=float)
    out = -x
    out[..., 0] = x[..., 0]
    return out


def _cd_mul(x, y):
    """Cayley-Dickson products of stacks of coefficient vectors of length 2^m
    (the last axis); the leading axes broadcast."""
    n = x.shape[-1]
    if n == 1:
        return x * y
    h = n // 2
    a, b = x[..., :h], x[..., h:]
    c, d = y[..., :h], y[..., h:]
    return np.concatenate(
        [
            _cd_mul(a, c) - _cd_mul(conj(d), b),
            _cd_mul(d, a) + _cd_mul(b, conj(c)),
        ],
        axis=-1,
    )


def _build_table():
    """One doubling pass over all 64 basis pairs: row i of the left stack against row j of the right."""
    eye = np.eye(8)
    return _cd_mul(eye[:, None], eye[None, :])


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


#: _RIGHT[j, 8 i + k] = MULT_TABLE[i, j, k]: y @ _RIGHT lays out y @ MULT_TABLE[i] for every i
_RIGHT = MULT_TABLE.transpose(1, 0, 2).reshape(8, 64)
#: _RIGHT_CONJ_IM[j, 7 i + k - 1] = +-MULT_TABLE[i, j, k], k >= 1, signed as conj(e_j):
#: y @ _RIGHT_CONJ_IM lays out the imaginary part of conj(y) @ MULT_TABLE[i] for every i
_RIGHT_CONJ_IM = (conj(np.ones(8))[:, None] * _RIGHT).reshape(8, 8, 8)[:, :, 1:].reshape(8, 56)

#: rows per block of a batched product: a block's (B, 64) expansion is at most 4 MiB
#: (8,192 rows tied 16,384 as fastest in a 1,024-16,384 sweep on 10^5-row batches)
_BLOCK = 8192


def _mul_rows(x, y, right, out=None):
    """sum_i x_i (y @ right)[i], written into ``out`` when it is given.

    One (..., 8 w) expansion of y and one contraction over i, in order 0..7.
    """
    ys = y @ right
    ys = ys.reshape(ys.shape[:-1] + (8, right.shape[1] // 8))
    return np.einsum("...i,...ik->...k", x, ys, out=out)


def _blocked(x, y, right):
    """_mul_rows of arrays with shape (..., 8), in blocks of at most ``_BLOCK`` rows."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    shape = x.shape if x.shape == y.shape else np.broadcast_shapes(x.shape, y.shape)
    if math.prod(shape[:-1]) <= _BLOCK:
        return _mul_rows(x, y, right)
    out = np.empty(shape[:-1] + (right.shape[1] // 8,))
    # align the leading axes; a length-1 leading axis broadcasts to every block
    x = x.reshape((1,) * (len(shape) - x.ndim) + x.shape)
    y = y.reshape((1,) * (len(shape) - y.ndim) + y.shape)
    step = max(1, _BLOCK // math.prod(shape[1:-1]))
    for start in range(0, shape[0], step):
        rows = slice(start, start + step)
        _mul_rows(x if len(x) == 1 else x[rows], y if len(y) == 1 else y[rows], right, out[rows])
    return out


def mul(x, y):
    """Octonion product of arrays with shape (..., 8).

    Each row of y is expanded once into its 64 entries y @ MULT_TABLE[i],
    every one a single +-y_j, and contracted with x over i.  A broadcast
    shape of more than ``_BLOCK`` rows runs in blocks along its leading
    axis, each written into one output array, so the (..., 64) expansion
    never holds more than a block; blocking changes no bit.
    """
    return _blocked(x, y, _RIGHT)


def im_mul_conj(x, y):
    """Im(x conj(y)) of arrays with shape (..., 8), shape (..., 7).

    ``mul`` with the conjugation folded into the expansion of y and the
    real column dropped: equal to ``mul(x, conj(y))[..., 1:]`` to the last bit.
    """
    return _blocked(x, y, _RIGHT_CONJ_IM)


def from_im(t):
    """Embed imaginary coefficients (..., 7) as octonions with zero real part."""
    t = np.asarray(t, dtype=float)
    out = np.zeros(t.shape[:-1] + (8,))
    out[..., 1:] = t
    return out


class Octonion:
    """A single octonion as a record of 8 real coefficients ``c`` (e0 first)."""

    __slots__ = ("c",)

    def __init__(self, coeffs):
        c = np.asarray(coeffs, dtype=float)
        if c.shape != (8,):
            raise ValueError("octonion needs exactly 8 coefficients")
        self.c = c

    def __repr__(self):
        return f"Octonion({self.c.tolist()})"


class ImOctonion:
    """A purely imaginary octonion as a record of the 7 coefficients ``v`` (c1..c7)."""

    __slots__ = ("v",)

    def __init__(self, coeffs):
        v = np.asarray(coeffs, dtype=float)
        if v.shape != (7,):
            raise ValueError("imaginary octonion needs exactly 7 coefficients")
        self.v = v

    def __repr__(self):
        return f"ImOctonion({self.v.tolist()})"
