"""The bilinear functional on the sphere: extremizers, spectral sums,
Euler-Lagrange residuals, second variation, center of mass, conformal
pullbacks, recentering, and the Log-Sobolev pair.

All heavy lifting happens on zonal-type functions: a function with
symmetry axis e (a unit vector in O^2) depends on a sphere point zeta
only through the octonion pairing w = zeta1 conj(e1) + zeta2 conj(e2),
i.e. through the angles theta = arccos|w|, phi = arg w = arctan2(|Im w|, Re w).
Such functions are stored as a 2-D profile H(theta, phi) plus the axis,
which turns every integral into a 2-D Gauss-Legendre sum under the
measure |S^7||S^6| sin^7(theta) cos^7(theta) sin^6(phi) dtheta dphi.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .cayley import NORTH_POLE, hermitian_pairing, sdist_arrays
from .constants import C_logsobolev, _check_open, sphere_measure
from . import Q
from .specfun import _check_degree, bispherical_basis, gegenbauer3
from .spectra import _FH_CONST, _eig_K1_arrays, _freeze, _logsob_gap, eig_K1

__all__ = [
    "AxisZonalFunction",
    "BisphericalFunction",
    "ExtremizerParams",
    "sample_sphere",
    "extremizer_eval",
    "extremizer_profile",
    "project_bispherical",
    "hls_spectral",
    "hls_tail_bound",
    "hls_quotient",
    "hls_mc",
    "el_residual",
    "second_variation",
    "center_mass",
    "center_mass_mc",
    "conformal_pullback",
    "recenter",
    "log_sobolev_pair",
]

# ---------------------------------------------------------------------------
# sampling and zonal angles


def sample_sphere(n, seed, stream=0):
    """n uniform points on the unit sphere of R^16, shape (n, 16).

    Counter-based generator keyed by (seed, stream) so that parallel
    sweeps are schedule-independent and reproducible.
    """
    rng = np.random.Generator(np.random.Philox(key=[int(seed), int(stream)]))
    g = rng.standard_normal((n, 16))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def _rows_times(points, matrix):
    """points (..., 16) @ matrix, one row at a time in one summation order.

    einsum runs its own loop, the same for any batch shape, so one point
    gives exactly its row of a batch; a BLAS product does not (a one-row
    product goes through a matrix-vector kernel that sums in another order).
    The matrix is laid out column-major so that each sum runs over contiguous memory.
    """
    return np.einsum("...i,ik->...k", np.asarray(points, dtype=float), np.asfortranarray(matrix))


def _axis_angles(points, axis):
    """Zonal angles (theta, phi) of sphere points relative to an axis.

    With the axis fixed the pairing is linear in the point: one (16, 8)
    matrix whose rows are signed copies of the axis coefficients.
    """
    w = _rows_times(points, hermitian_pairing(np.eye(16), axis))
    return _angles(w[..., 0], np.sqrt(np.einsum("...i,...i->...", w[..., 1:], w[..., 1:])))


def _angles(re, im):
    """Zonal angles (theta, phi) of a pairing with real part re and |Im w| = im; phi =
    arctan2(im, re) keeps the digits near 0 and pi that arccos(re / |w|) loses."""
    return np.arccos(np.clip(np.sqrt(re * re + im * im), 0.0, 1.0)), np.arctan2(im, re)


class AxisZonalFunction:
    """A sphere function with a symmetry axis, stored as profile H(theta, phi).

    The profile is a broadcasting function of the angles: on the quadrature grid
    it receives a (n_theta, 1) theta column and a (1, n_phi) phi row, at sphere
    points two arrays of the points' shape.  Its values are
    broadcast to the shape of theta and phi together, so a constant may be a scalar.
    """

    __slots__ = ("profile", "axis", "name")

    def __init__(self, profile, axis=None, name="zonal function"):
        self.profile = profile
        a = NORTH_POLE if axis is None else np.asarray(axis, dtype=float)
        n = np.linalg.norm(a)
        if not abs(n - 1.0) <= 1e-10:
            raise ValueError("axis must be a unit vector in R^16")
        self.axis = a / n
        self.name = name

    def __call__(self, points):
        """Evaluate at sphere points, a (..., 16) array."""
        theta, phi = _axis_angles(points, self.axis)
        return self.profile(theta, phi)

    def __repr__(self):
        return f"AxisZonalFunction({self.name})"


# ---------------------------------------------------------------------------
# quadrature grid and bispherical projection


@functools.cache
def _grid():
    """200-node Gauss-Legendre rules on [0, pi/2] x [0, pi] with the sphere measure.

    Returns (theta, wt, phi, wp): the full measure of a profile F is
    sum_i sum_q wt[i] wp[q] F[i, q].
    """
    x, w = leggauss(200)
    theta = 0.25 * math.pi * (x + 1.0)
    wt = 0.25 * math.pi * w * np.sin(theta) ** 7 * np.cos(theta) ** 7 * _FH_CONST
    phi = 0.5 * math.pi * (x + 1.0)
    wp = 0.5 * math.pi * w * np.sin(phi) ** 6
    return theta, wt, phi, wp


def _broadcast_values(values, shape):
    """Profile values as a read-only float view of the given shape: a profile may return
    any shape that broadcasts to it, a scalar included."""
    return np.broadcast_to(np.asarray(values, dtype=float), shape)


def _profile_values(f, theta, phi):
    """Values of f on the tensor grid theta x phi, a (len(theta), len(phi)) array.

    ``f`` is an AxisZonalFunction or a profile H(theta, phi).  The profile is called
    once, on the sparse grid: a (len(theta), 1) theta column and a (1, len(phi)) phi
    row, so a factor of one angle alone is computed on that angle's nodes only.  Its
    values are broadcast to the full grid, read-only; per element they are those of a
    call on the full meshgrid.
    """
    profile = f.profile if isinstance(f, AxisZonalFunction) else f
    if not callable(profile):
        raise TypeError("expected an AxisZonalFunction or a profile H(theta, phi)")
    TH, PH = np.meshgrid(theta, phi, indexing="ij", sparse=True)
    return _broadcast_values(profile(TH, PH), (len(theta), len(phi)))


def _grid_values(f):
    """Values of f on the quadrature grid: the one evaluation each input gets."""
    theta, _, phi, _ = _grid()
    return _profile_values(f, theta, phi)


def _integrate(values):
    """Sphere integral of grid values."""
    _, wt, _, wp = _grid()
    return float(np.dot(wt, (values * wp[None, :]).sum(axis=1)))


@dataclass(eq=False)
class BisphericalFunction:
    """Truncated coefficient table of a zonal-type function.

    Over every pair j <= jmax in the order of specfun.bispherical_basis,
    ``coeffs[p]`` is the signed coefficient of the normalized zonal harmonic
    of pair (j[p], k[p]) and ``norms2[p]`` the squared L^2 mass of the
    component; ``l2`` is the full squared L^2 norm, so ``l2 - sum(norms2)``
    is the truncation residual (Parseval defect).
    """

    jmax: int
    j: np.ndarray
    k: np.ndarray
    coeffs: np.ndarray
    norms2: np.ndarray
    l2: float

    def residual(self):
        return self.l2 - float(self.norms2.sum())


def project_bispherical(f, jmax=40):
    """Project a zonal-type function onto the (j, k) subspaces, j <= jmax.

    ``f`` is an AxisZonalFunction or a profile callable H(theta, phi).
    """
    return _project(_grid_values(f), jmax)


@functools.lru_cache(maxsize=4)
def _grid_basis(jmax):
    """bispherical_basis on the quadrature grid, C = gegenbauer3(jmax, cos phi) and the
    squared norms zn2 of the zonal harmonics on the grid, as (j, k, T, C, zn2): built
    once per jmax and shared read-only."""
    theta, wt, phi, wp = _grid()
    j, k, T = bispherical_basis(jmax, theta)
    C = gegenbauer3(jmax, np.cos(phi))
    zn2 = np.einsum("pi,pi,i->p", T, T, wt) * ((C * C) @ wp)[j - k]
    return tuple(map(_freeze, (j, k, T, C, zn2)))


def _project(F, jmax):
    """The projection of grid values F (see _grid_values)."""
    _, wt, _, wp = _grid()
    j, k, T, C, zn2 = _grid_basis(jmax)
    G = (F * wp[None, :]) @ C.T  # G[i, m] = sum_q wp[q] F[i, q] c_m(phi_q)
    inner = np.einsum("pi,i,ip->p", T, wt, G[:, j - k])
    c = inner / zn2
    return BisphericalFunction(
        jmax=jmax, j=j, k=k, coeffs=c, norms2=c * c * zn2, l2=_integrate(F * F)
    )


# ---------------------------------------------------------------------------
# extremizers


def _check_exponent(p):
    """p as a float; ValueError unless p is finite and > 1."""
    p = float(p)
    if not 1.0 < p < math.inf:
        raise ValueError(f"exponent p = {p} must be finite and > 1")
    return p


@dataclass
class ExtremizerParams:
    """Extremizer family |1 - xi . conj(zeta)|^(-(2Q - lambda)/2)."""

    xi: np.ndarray
    lam: float

    def __post_init__(self):
        self.xi = np.asarray(self.xi, dtype=float)
        if self.xi.shape != (16,):
            raise ValueError("xi must be a 16-vector")
        if not np.linalg.norm(self.xi) < 1.0:
            raise ValueError("extremizer parameter requires |xi| < 1")
        self.lam = _check_open("lambda", self.lam)


def extremizer_eval(params: ExtremizerParams, points):
    """Pointwise extremizer value at sphere points, a (..., 16) array."""
    # xi . conj(zeta) is linear in zeta: one (16, 8) matrix built from xi
    pair = _rows_times(points, hermitian_pairing(params.xi, np.eye(16)))
    pair[..., 0] -= 1.0
    # np.power, not **: a numpy scalar's ** calls a scalar pow that can differ from the array loop
    return np.power(np.linalg.norm(pair, axis=-1), -(2.0 * Q - params.lam) / 2.0)


def extremizer_profile(params: ExtremizerParams):
    """The same extremizer as an AxisZonalFunction along xi/|xi|.

    |1 - xi . conj(zeta)|^2 = 1 - 2 rho cos(theta) cos(phi) + rho^2 cos^2(theta)
    in the angles about the axis, with rho = |xi|.
    """
    rho = float(np.linalg.norm(params.xi))
    expo = -(2.0 * Q - params.lam) / 4.0
    axis = None if rho == 0.0 else params.xi / rho

    def profile(theta, phi):
        ct = np.cos(theta)
        return (1.0 - 2.0 * rho * ct * np.cos(phi) + rho * rho * ct * ct) ** expo

    return AxisZonalFunction(profile, axis=axis, name=f"extremizer rho={rho}")


# ---------------------------------------------------------------------------
# the bilinear functional


def hls_spectral(f: BisphericalFunction, lam):
    """Spectral value of the bilinear form with kernel d_S^(-lambda):
    sum over (j, k) of 2^(lambda/2) eig_K1(j, k, lambda/4) |f_{j,k}|^2."""
    lam = _check_open("lambda", lam)
    return 2.0 ** (lam / 2.0) * float(np.dot(_eig_K1_arrays(f.j, f.k, lam / 4.0), f.norms2))


def hls_tail_bound(f: BisphericalFunction, lam):
    """Bound on the spectral mass beyond the truncation: largest eigenvalue
    outside the table times the Parseval residual.  ``hls_quotient`` refuses
    a value whose bound exceeds 1e-10 of it."""
    lam = _check_open("lambda", lam)
    return 2.0 ** (lam / 2.0) * eig_K1(f.jmax + 1, 0, lam / 4.0) * max(f.residual(), 0.0)


def hls_quotient(f, lam, jmax=40):
    """The sharp-constant quotient I(f, f) / ||f||_p^2 for a zonal-type f.

    Raises ValueError when ``hls_tail_bound`` exceeds 1e-10 of the spectral
    value: f is too concentrated for jmax.  The quotient is conformally
    invariant, so the quotient of ``recenter(f, p)[1]`` is the same value.
    """
    lam = _check_open("lambda", lam)
    p = 2.0 * Q / (2.0 * Q - lam)
    F = _grid_values(f)
    proj = _project(F, jmax)
    value, tail = hls_spectral(proj, lam), hls_tail_bound(proj, lam)
    if tail > 1e-10 * value:
        raise ValueError(
            f"hls_quotient: tail bound {tail:.3e} exceeds 1e-10 of the spectral value "
            f"{value:.3e} at jmax {jmax}; recenter f first"
        )
    return value / _integrate(np.abs(F) ** p) ** (2.0 / p)


def hls_mc(f, g, lam, n, seed):
    """Monte Carlo estimate of the bilinear form int int f(z) g(e) d_S(z, e)^(-lam).

    Returns (estimate, stderr) from n >= 20 samples; the standard error comes
    from 20 batch means because the integrand is heavy-tailed near the diagonal.
    """
    lam, n, nb = _check_open("lambda", lam), _check_degree("n", n), 20
    if n < nb:  # a batch without a sample has no mean
        raise ValueError(f"need n >= {nb} Monte Carlo samples, got {n}")
    zp = sample_sphere(n, seed, stream=0)
    ep = sample_sphere(n, seed, stream=1)
    kern = sdist_arrays(zp, ep) ** (-lam)
    vals = np.asarray(f(zp), dtype=float) * np.asarray(g(ep), dtype=float) * kern
    vals *= sphere_measure() ** 2
    batches = np.array([b.mean() for b in np.array_split(vals, nb)])
    est = float(vals.mean())
    stderr = float(batches.std(ddof=1) / math.sqrt(nb))
    return est, stderr


@functools.lru_cache(maxsize=4)
def _check_basis(jmax):
    """el_residual's 10 x 10 check grid at jmax, read-only: (thetas, phis, j, k, T, C) with
    T of bispherical_basis(jmax, thetas) and C = gegenbauer3(jmax, cos phis)[j - k]."""
    thetas, phis = np.linspace(0.1, math.pi / 2 - 0.1, 10), np.linspace(0.1, math.pi - 0.1, 10)
    j, k, T = bispherical_basis(jmax, thetas)
    return tuple(map(_freeze, (thetas, phis, j, k, T, gegenbauer3(jmax, np.cos(phis))[j - k])))


#: el_residual refuses where the shells j >= jmax - 1 exceed _EL_TAIL of K h at a check point
#: (on the extremizer family at jmax 20-80 every value it reads is <= 2e-8), or where the
#: projection misses more than _EL_CUT of int h^2 (rounding: <= 1.9e-15 on what it reads)
_EL_TAIL, _EL_CUT = 2e-7, 1e-12


def el_residual(h, lam=None, jmax=40):
    """Coefficient of variation of (K * h)(zeta) / h(zeta)^(p-1) over a 10 x 10 angle grid.

    A small value certifies the Euler-Lagrange equation up to its free
    constant.  ``h`` may be ExtremizerParams (lambda taken from it) or a
    zonal-type function with ``lam`` supplied.

    Raises ValueError where jmax truncates h: where the shells j >= jmax - 1 reach more than
    _EL_TAIL of K h at a check point, or the projection misses more than _EL_CUT of int h^2.
    A function whose expansion ends at degree d is refused at jmax = d and d + 1 (unless its
    degree-d part is below _EL_TAIL of K h) and below d (unless the degrees above jmax hold
    at most _EL_CUT of int h^2); from jmax = d + 2 on its last shells hold rounding only.
    """
    if isinstance(h, ExtremizerParams):
        lam = h.lam
        h = extremizer_profile(h)
    if lam is None:
        raise ValueError("lam is required for a plain function input")
    lam = _check_open("lambda", lam)
    p = 2.0 * Q / (2.0 * Q - lam)
    proj = project_bispherical(h, jmax)
    scale = 2.0 ** (lam / 2.0)
    thetas, phis, j, k, T, C = _check_basis(jmax)
    a = proj.coeffs * (scale * _eig_K1_arrays(j, k, lam / 4.0))
    conv = (T.T * a) @ C
    top = slice(-(2 * jmax + 1), None)  # the shells j >= jmax - 1, last in tril order
    tail = float(np.max(np.abs((T[top].T * a[top]) @ C[top]) / np.abs(conv)))
    if not tail <= _EL_TAIL:
        raise ValueError(f"el_residual: the shells j >= {max(jmax - 1, 0)} reach {tail:.3e} of K h "
                         f"at a check point, above {_EL_TAIL:.0e}, at jmax {jmax}; recenter h first")
    if not abs(proj.residual()) <= _EL_CUT * proj.l2:
        raise ValueError(f"el_residual: jmax {jmax} misses {abs(proj.residual()) / proj.l2:.3e} of "
                         f"int h^2, above {_EL_CUT:.0e}; raise jmax")
    ratio = conv / _profile_values(h, thetas, phis) ** (p - 1.0)
    return float(ratio.std() / abs(ratio.mean()))


def second_variation(h, phi_fn, lam, jmax=40):
    """Quadratic form I_K(phi, phi) int h^p - (p - 1) I_K(h, h) int h^(p-2) phi^2.

    Nonpositive at extremizers for admissible phi; requires the
    orthogonality constraint int h^(p-1) phi = 0.
    """
    lam = _check_open("lambda", lam)
    p = 2.0 * Q / (2.0 * Q - lam)
    H = _grid_values(h)
    P = _grid_values(phi_fn)
    constraint = _integrate(H ** (p - 1.0) * P)
    scale_c = math.sqrt(max(_integrate(H ** (2.0 * p - 2.0)) * _integrate(P * P), 1e-300))
    if abs(constraint) > 1e-6 * scale_c:
        raise ValueError("test direction violates int h^(p-1) phi = 0")
    ikh = hls_spectral(_project(H, jmax), lam)
    ikp = hls_spectral(_project(P, jmax), lam)
    return ikp * _integrate(H ** p) - (p - 1.0) * ikh * _integrate(H ** (p - 2.0) * P * P)


# ---------------------------------------------------------------------------
# center of mass and recentering


def center_mass(h, p):
    """The 16-vector int zeta h(zeta)^p dzeta for a zonal-type h.

    For an axis-zonal function only the axis component survives (the
    stabilizer of the axis averages the transverse components to zero),
    so the integral reduces to the scalar int cos(theta) cos(phi) h^p.
    """
    p = _check_exponent(p)
    axis = h.axis if isinstance(h, AxisZonalFunction) else NORTH_POLE
    return _axis_moment(_grid_values(h) ** p) * axis


def _axis_moment(Fp):
    """The axis component int cos(theta) cos(phi) F^p, from the powered grid values Fp."""
    theta, wt, phi, wp = _grid()
    return float(np.dot(wt * np.cos(theta), (Fp * (wp * np.cos(phi))[None, :]).sum(axis=1)))


def center_mass_mc(h, p, n, seed):
    """Monte Carlo oracle for the full 16-component center of mass, from n >= 1 samples."""
    p, n = _check_exponent(p), _check_degree("n", n)
    if n < 1:
        raise ValueError(f"need n >= 1 Monte Carlo samples, got {n}")
    pts = sample_sphere(n, seed, stream=7)
    vals = _broadcast_values(h(pts), (n,)) ** p
    return sphere_measure() * (pts * vals[:, None]).mean(axis=0)


#: recenter's bound on the axis component of the center of mass, and its step limit
_RECENTER_TOL, _RECENTER_MAX_ITER = 1e-8, 200


def conformal_pullback(h, delta, p):
    """Pullback |J_{gamma^-1}|^(1/p) h(gamma^-1 zeta) along the axis of h.

    gamma^-1 = C . delta^-1 . C^-1 conjugates a group dilation by the
    boundary transform.  In the axis frame it keeps the complex line of
    the pairing w and acts there as the disk automorphism
    w -> (w + c) / (1 + c w), c = (delta^2 - 1) / (delta^2 + 1), with
    |J| = (sqrt(1 - c^2) / |1 + c w|)^Q.  A bare profile takes the north axis.
    """
    delta = float(delta)
    if not 0.0 < delta < math.inf:
        raise ValueError(f"dilation scale must be positive and finite, got {delta}")
    p = _check_exponent(p)
    if not isinstance(h, AxisZonalFunction):
        h = AxisZonalFunction(h)
    d2 = delta * delta
    c = (d2 - 1.0) / (d2 + 1.0)
    one_c2 = 4.0 * d2 / (d2 + 1.0) ** 2  # 1 - c^2 without the cancellation

    def profile(theta, phi):
        ct = np.cos(theta)
        a, b = ct * np.cos(phi), ct * np.sin(phi)  # w = a + i b
        den = (1.0 + c * a) ** 2 + (c * b) ** 2  # |1 + c w|^2
        re, im = ((a + c) * (1.0 + c * a) + c * b * b) / den, one_c2 * b / den
        return (one_c2 / den) ** (Q / (2.0 * p)) * h.profile(*_angles(re, im))

    return AxisZonalFunction(profile, axis=h.axis, name=f"pullback(delta={delta}) of {h.name}")


def recenter(h, p):
    """Find the conformal pullback of h with zero center of mass.

    ``h`` is a zonal-type function, finite and >= 0 with nonzero mass (else
    ValueError names the defect).  On the pullback's disk parameter
    c = (delta^2 - 1) / (delta^2 + 1), the normalized axis moment
    |S| int cos(theta) cos(phi) g^p / int g^p runs from +|S| at c -> -1 to
    -|S| at c -> 1 (all of the mass at one pole); an Anderson-Bjorck regula falsi
    finds its zero strictly inside.  Returns (delta, g) with int g^p = |S|;
    raises RuntimeError with the final residual on non-convergence.
    """
    p, measure = _check_exponent(p), sphere_measure()

    def trial(delta):
        # the pullback, its mass int g^p and its normalized axis moment
        g = conformal_pullback(h, delta, p)
        G = _grid_values(g)
        Gp = np.abs(G) ** p
        mass = _integrate(Gp)
        if delta == 1.0:  # the first trial, c = 0, holds h's own grid values
            if not np.isfinite(G).all():
                raise ValueError("recenter needs finite values of h")
            if G.min() < 0.0:
                raise ValueError(f"recenter needs h >= 0; h takes {G.min():.3e}")
            if mass == 0.0:
                raise ValueError("recenter needs h with nonzero mass; int h^p is 0")
        return g, mass, measure * _axis_moment(Gp) / mass

    a, fa, b, fb = -1.0, measure, 1.0, -measure
    c, last = 0.0, 0.0
    for _ in range(_RECENTER_MAX_ITER):
        delta = math.sqrt((1.0 + c) / (1.0 - c))
        g, mass, m = trial(delta)
        if abs(m) < _RECENTER_TOL:
            s = (measure / mass) ** (1.0 / p)
            return delta, AxisZonalFunction(lambda th, ph: s * g.profile(th, ph), axis=g.axis)
        # the trial replaces the end of its sign; an end that two trials in a row leave
        # in place has its moment scaled by Anderson-Bjorck's 1 - m / last (1/2 where <= 0)
        w = (max(1.0 - m / last, 0.0) or 0.5) if m * last > 0.0 else 1.0
        if m > 0.0:
            a, fa, fb = c, m, fb * w
        else:
            b, fb, fa = c, m, fa * w
        c, last = a + (b - a) * fa / (fa - fb), m
        if not a < c < b:  # the bracket is down to rounding
            break
    raise RuntimeError(f"recenter did not converge; residual {m:.3e}")


# ---------------------------------------------------------------------------
# Log-Sobolev


def log_sobolev_pair(f, jmax=40):
    """(LHS, RHS) of the endpoint inequality for a zonal-type f >= 0
    normalized by int f^2 = |S|.

    LHS is the spectral d_S^(-Q) energy sum 2 gap_{j,k} |f_{j,k}|^2; RHS
    is C_logsobolev() int f^2 log f^2.
    """
    F = _grid_values(f)
    if np.any(F < 0.0):
        raise ValueError("log-Sobolev input must be nonnegative")
    proj = _project(F, jmax)
    if abs(proj.l2 - sphere_measure()) > 1e-8 * sphere_measure():
        raise ValueError("input must be normalized to int f^2 = |S|")
    lhs = 2.0 * float(np.dot(_logsob_gap(proj.j, proj.k), proj.norms2))
    with np.errstate(divide="ignore", invalid="ignore"):
        integrand = np.where(F > 0.0, F * F * np.log(F * F), 0.0)
    rhs = C_logsobolev() * _integrate(integrand)
    return lhs, rhs
