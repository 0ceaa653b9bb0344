"""Special functions for the bispherical spectral theory.

Provides Gegenbauer C_n^(3) and Jacobi P_k^(3, 3+m) polynomials, normalized
to 1 at x = 1 and returned for every degree 0..n from one pass of the
three-term recurrence (for Jacobi, one pass for one order m or for an array
of them), the theta factors of the whole bispherical basis, and the zonal
harmonics in polar angles (theta, phi).

Polar-angle convention: |zeta2| = cos(theta) with theta in [0, pi/2],
Re zeta2 = cos(theta) cos(phi) with phi in [0, pi].
"""

from __future__ import annotations

import functools
import operator

import numpy as np

__all__ = [
    "bispherical_basis",
    "gegenbauer3",
    "jacobi33",
    "zonal",
]


def _check_degree(name, n):
    """n as a Python int, checked to be an integer >= 0; the errors name it."""
    try:
        n = operator.index(n)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {n!r}") from None
    if n < 0:
        raise ValueError(f"{name} must be >= 0, got {n}")
    return n


def _check_index(j, k):
    """(j, k) as Python ints, checked to index a bispherical harmonic subspace: j >= k >= 0."""
    try:
        j, k = operator.index(j), operator.index(k)
    except TypeError:
        raise TypeError(f"indices (j, k) must be integers, got ({j!r}, {k!r})") from None
    if not (j >= k >= 0):
        raise ValueError(f"need j >= k >= 0, got ({j}, {k})")
    return j, k


def _check_orders(m):
    """The order m of jacobi33 as a Python int, from an integer >= 0, or its orders as a tuple
    of Python ints, from a 1-D integer array of them; the errors name m."""
    try:
        arr = np.asarray(m)
    except ValueError:  # a ragged sequence
        arr = None
    if arr is not None and arr.ndim == 0:
        return _check_degree("m", m)
    if arr is None or arr.ndim != 1 or arr.dtype.kind not in "iu":
        raise TypeError(f"m must be an integer or a 1-D array of integers, got {m!r}")
    if arr.size and arr.min() < 0:
        raise ValueError(f"m must be >= 0, got {arr.min()} in its array")
    return tuple(arr.tolist())


def _recurrence(x, p1, steps, scale):
    """Rows 0..n of the three-term recurrence p_i = (a_i x + b_i) p_{i-1} + c_i p_{i-2},
    started from p_0 = 1 and the given p_1, with row i multiplied by scale[i]: one
    (n + 1, *p1.shape) array, x a 1-D float array.  steps = (a, b, c) holds a_i, b_i and c_i
    for i = 2..n: for one set of coefficients each a sequence of floats and p1 of x's shape,
    for M sets at once each an (n - 1, M, 1) array and p1 (M, x.size), row i then the sets'
    rows side by side.  A step is written in place, in the order of operations of its
    formula, so each set's rows are those of a recurrence run for that set alone, to the
    last bit."""
    a, b, c = steps
    n = len(scale) - 1
    out = np.empty((n + 1, *p1.shape))
    out[0] = 1.0
    if n >= 1:
        out[1] = p1
    tmp = np.empty(p1.shape)
    for i in range(2, n + 1):
        row = out[i]
        np.multiply(a[i - 2], x, out=row)
        row += b[i - 2]
        row *= out[i - 1]
        row += np.multiply(c[i - 2], out[i - 2], out=tmp)
    out *= scale.reshape((n + 1,) + (1,) * p1.ndim)
    return out


def _scale(n, num, den):
    """num / den(i) for i = 0..n as an (n + 1,) array, den an exact Python-int product:
    (i+1)...(i+5) in float64 would round from i of about 1,600."""
    return np.array([num / den(i) for i in range(n + 1)])


@functools.lru_cache(maxsize=64)
def _gegenbauer_steps(n):
    """(steps, scale) of gegenbauer3's recurrence up to row n (see _recurrence), kept."""
    i = np.arange(2.0, n + 1.0)
    steps = ((2.0 * (i + 2.0) / i).tolist(), [0.0] * len(i), (-(i + 4.0) / i).tolist())
    return steps, _scale(n, 120.0, lambda i: (i + 1) * (i + 2) * (i + 3) * (i + 4) * (i + 5))


@functools.lru_cache(maxsize=16)
def _jacobi_steps(k, m):
    """(slope, steps, scale) of jacobi33's recurrence up to row k, for the order m (an int) or
    the orders m (a tuple): p_1 = 4 + slope (x - 1) / 2, and the rest as in _recurrence, the
    slope a float or an (M, 1) array like the steps.  Each coefficient is formed as a Python
    float would be, in the same operations.  The 16 most recently used are kept: a small
    table reuses one or two, while the 101 one-order calls of a jmax 100 table would keep
    about 0.4 MB, for coefficients that cost 2 % of its time."""
    a, b = 3.0, 3.0 + np.array(m, dtype=float)[..., None]
    n = np.arange(2.0, k + 1.0)[:, None, None]
    n2 = 2.0 * n
    t = n2 + a + b  # 2n + a + b
    c1 = n2 * (n + a + b) * (t - 2.0)
    c2 = (t - 1.0) * (a * a - b * b)
    c3 = (t - 1.0) * t * (t - 2.0)
    c4 = 2.0 * (n + a - 1.0) * (n + b - 1.0) * t
    slope, steps = a + b + 2.0, (c3 / c1, c2 / c1, -c4 / c1)
    if isinstance(m, int):
        slope, steps = float(slope[0]), tuple(s.ravel().tolist() for s in steps)
    return slope, steps, _scale(k, 6.0, lambda i: (i + 1) * (i + 2) * (i + 3))


def gegenbauer3(n, x):
    """Rows 0..n of (5! i! / (i+5)!) C_i^(3)(x), each equal to 1 at x = 1;
    shape (n + 1, *x.shape)."""
    n = _check_degree("n", n)
    x = np.asarray(x, dtype=float)
    xf = x.ravel()
    return _recurrence(xf, 6.0 * xf, *_gegenbauer_steps(n)).reshape((n + 1,) + x.shape)


def jacobi33(k, m, x):
    """Rows 0..k of (3! i! / (i+3)!) P_i^(3, 3+m)(x), each equal to 1 at x = 1;
    shape (k + 1, *x.shape).

    m may also be a 1-D array of integers >= 0: then one recurrence runs for every order,
    and the result, of shape (len(m), k + 1, *x.shape), is the calls at each order stacked,
    to the last bit (a view that swaps the axes of the recurrence's rows).
    """
    k = _check_degree("k", k)
    m = _check_orders(m)
    x = np.asarray(x, dtype=float)
    xf = x.ravel()
    slope, steps, scale = _jacobi_steps(k, m)
    out = _recurrence(xf, 4.0 + slope * (xf - 1.0) / 2.0, steps, scale)
    if isinstance(m, int):
        return out.reshape((k + 1,) + x.shape)
    return out.swapaxes(0, 1).reshape((len(m), k + 1) + x.shape)


# ---------------------------------------------------------------------------
# the bispherical basis and the zonal harmonics

#: doubles per block of orders m: bispherical_basis and the quadrature oracle take jacobi33's
#: rows for the orders of a block in one call, at most _BLOCK doubles, or one order's rows
#: where those are more (so a jmax 100 oracle table still holds one order's rows at a time);
#: 2^15 (256 KiB) tied 2^14 as fastest of 2^13..2^18 on oracle tables of jmax 6, 20 and 40
_BLOCK = 1 << 15


def _m_blocks(jmax, size):
    """The orders 0..jmax in blocks [m0, m1): the rows k <= jmax - m0 of the orders of a block
    at size points hold at most _BLOCK doubles, or the block is one order."""
    m0 = 0
    while m0 <= jmax:
        m1 = min(jmax + 1, m0 + max(1, _BLOCK // max(1, (jmax + 1 - m0) * size)))
        yield m0, m1
        m0 = m1


def bispherical_basis(jmax, theta):
    """The theta factors of every bispherical harmonic with j <= jmax.

    Returns (j, k, T): the index arrays of np.tril_indices(jmax + 1), j, then k, and
    T[p] = cos^m theta p_k(cos 2 theta), m = j[p] - k[p], over theta, of shape
    (pairs, *theta.shape).  The harmonic of pair p is T[p] times row m of
    gegenbauer3(jmax, cos phi).  One jacobi33 call per block of orders (_m_blocks) builds
    the rows k <= jmax - m of each m of the block, stored through the pairs of that m.
    """
    jmax = _check_degree("jmax", jmax)
    theta = np.asarray(theta, dtype=float)
    j, k = np.tril_indices(jmax + 1)
    order = np.argsort(j - k, kind="stable")  # the pairs m by m, k ascending within each m
    c, x = np.cos(theta), np.cos(2.0 * theta)
    T = np.empty((len(j), *theta.shape))
    start = 0
    for m0, m1 in _m_blocks(jmax, theta.size):
        P = jacobi33(jmax - m0, np.arange(m0, m1), x)
        for mm in range(m0, m1):
            stop = start + jmax + 1 - mm
            T[order[start:stop]] = c ** mm * P[mm - m0, :jmax + 1 - mm]
            start = stop
        del P  # else a block's rows live on while the next block's are built
    return j, k, T


def zonal(j, k, theta, phi):
    """Zonal harmonic of the (j, k) subspace, normalized to 1 at theta = phi = 0.

    Evaluates the product of the normalized Gegenbauer factor in phi and
    the normalized Jacobi factor in theta; accepts scalar or array angles.
    """
    j, k = _check_index(j, k)
    m = j - k
    val = gegenbauer3(m, np.cos(phi))[m] * np.cos(theta) ** m * jacobi33(k, m, np.cos(2.0 * theta))[k]
    return val if np.ndim(val) else float(val)
