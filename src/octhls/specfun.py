"""Special functions for the bispherical spectral theory.

Provides Gegenbauer C_n^(3) and Jacobi P_k^(3, 3+m) polynomials, normalized
to 1 at x = 1 and returned for every degree 0..n from one pass of the
three-term recurrence, the theta factors of the whole bispherical basis,
and the zonal harmonics in polar angles (theta, phi).

Polar-angle convention: |zeta2| = cos(theta) with theta in [0, pi/2],
Re zeta2 = cos(theta) cos(phi) with phi in [0, pi].
"""

from __future__ import annotations

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


def _recurrence(n, x, p1, step, scale):
    """Rows 0..n of the three-term recurrence p_i = (a_i x + b_i) p_{i-1} + c_i p_{i-2},
    started from p_0 = 1 and the given p_1, with row i multiplied by scale(i); one
    (n + 1, *x.shape) array, x a float ndarray.  A scale divides by an exact Python-int
    product: (i+1)...(i+5) in float64 would round from i of about 1,600."""
    out = np.empty((n + 1, *x.shape))
    out[0] = 1.0
    if n >= 1:
        out[1] = p1
    for i in range(2, n + 1):
        a, b, c = step(i)
        out[i] = (a * x + b) * out[i - 1] + c * out[i - 2]
    out *= np.array([scale(i) for i in range(n + 1)]).reshape((n + 1,) + (1,) * x.ndim)
    return out


def gegenbauer3(n, x):
    """Rows 0..n of (5! i! / (i+5)!) C_i^(3)(x), each equal to 1 at x = 1;
    shape (n + 1, *x.shape)."""
    n = _check_degree("n", n)
    x = np.asarray(x, dtype=float)
    return _recurrence(
        n, x, 6.0 * x,
        lambda i: (2.0 * (i + 2.0) / i, 0.0, -(i + 4.0) / i),
        lambda i: 120.0 / ((i + 1) * (i + 2) * (i + 3) * (i + 4) * (i + 5)),
    )


def jacobi33(k, m, x):
    """Rows 0..k of (3! i! / (i+3)!) P_i^(3, 3+m)(x), each equal to 1 at x = 1;
    shape (k + 1, *x.shape)."""
    k, m = _check_degree("k", k), _check_degree("m", m)
    a, b = 3.0, 3.0 + m
    x = np.asarray(x, dtype=float)

    def step(n):
        c1 = 2.0 * n * (n + a + b) * (2.0 * n + a + b - 2.0)
        c2 = (2.0 * n + a + b - 1.0) * (a * a - b * b)
        c3 = (2.0 * n + a + b - 1.0) * (2.0 * n + a + b) * (2.0 * n + a + b - 2.0)
        c4 = 2.0 * (n + a - 1.0) * (n + b - 1.0) * (2.0 * n + a + b)
        return c3 / c1, c2 / c1, -c4 / c1

    return _recurrence(
        k, x, (a + 1.0) + (a + b + 2.0) * (x - 1.0) / 2.0, step,
        lambda i: 6.0 / ((i + 1) * (i + 2) * (i + 3)),
    )


# ---------------------------------------------------------------------------
# the bispherical basis and the zonal harmonics


def bispherical_basis(jmax, theta):
    """The theta factors of every bispherical harmonic with j <= jmax.

    Returns (j, k, T): the index arrays of np.tril_indices(jmax + 1), j, then k,
    and T[p] = cos^m theta p_k(cos 2 theta), m = j[p] - k[p], over theta, of shape
    (pairs, *theta.shape).  The harmonic of pair p is T[p] times row m of
    gegenbauer3(jmax, cos phi).  One jacobi33 call per m builds the rows k <= jmax - m
    of block m, stored at once through the pairs of that m.
    """
    jmax = _check_degree("jmax", jmax)
    theta = np.asarray(theta, dtype=float)
    j, k = np.tril_indices(jmax + 1)
    c, x = np.cos(theta), np.cos(2.0 * theta)
    T = np.empty((len(j), *theta.shape))
    rows = np.argsort(j - k, kind="stable")  # the pairs m by m, k ascending within each m
    for mm in range(jmax + 1):
        block, rows = rows[:jmax + 1 - mm], rows[jmax + 1 - mm:]
        T[block] = c ** mm * jacobi33(jmax - mm, mm, x)
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
