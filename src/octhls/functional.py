"""The bilinear functional on the sphere: extremizers, spectral sums,
Euler-Lagrange residuals, second variation, center of mass, conformal
pullbacks, recentering, and the Log-Sobolev pair.

All heavy lifting happens on zonal-type functions: a function with
symmetry axis e (a unit vector in O^2) depends on a sphere point zeta
only through the octonion pairing w = zeta1 conj(e1) + zeta2 conj(e2),
i.e. through the angles theta = arccos|w|, phi = arccos(Re w / |w|).
Such functions are stored as a 2-D profile H(theta, phi) plus the axis,
which turns every integral into a 2-D Gauss-Legendre sum under the
measure |S^7||S^6| sin^7(theta) cos^7(theta) sin^6(phi) dtheta dphi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .cayley import hermitian_pairing, sdist_arrays
from .constants import C_logsobolev, sphere_measure
from .nilgroup import Q
from .specfun import gegenbauer3_normalized, jacobi33_normalized
from .spectra import _FH_CONST, eig_K1, logsob_gap

__all__ = [
    "AxisZonalFunction",
    "BisphericalFunction",
    "ExtremizerParams",
    "ConformalParams",
    "NORTH_AXIS",
    "minimal_rotation",
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

#: the north pole of the zonal frame: e0 of the zeta2 slot
NORTH_AXIS = np.zeros(16)
NORTH_AXIS[8] = 1.0


# ---------------------------------------------------------------------------
# sampling and rotations


def sample_sphere(n, seed, stream=0):
    """n uniform points on the unit sphere of R^16, shape (n, 16).

    Counter-based generator keyed by (seed, stream) so that parallel
    sweeps are schedule-independent and reproducible.
    """
    rng = np.random.Generator(np.random.Philox(key=[int(seed), int(stream)]))
    g = rng.standard_normal((n, 16))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def minimal_rotation(src, dst):
    """The 16x16 rotation acting in the plane span{src, dst}, identity elsewhere."""
    a = np.asarray(src, dtype=float)
    a = a / np.linalg.norm(a)
    b = np.asarray(dst, dtype=float)
    b = b / np.linalg.norm(b)
    c = float(a @ b)
    if c > 1.0 - 1e-14:
        return np.eye(16)
    if c < -1.0 + 1e-14:
        raise ValueError("antipodal axes: the minimal rotation is not unique")
    u = b - c * a
    u = u / np.linalg.norm(u)
    s = math.sqrt(max(0.0, 1.0 - c * c))
    R = np.eye(16)
    # column convention: R @ src = dst
    for p, q, m in (
        (a, a, c - 1.0),
        (a, u, s),
        (u, a, -s),
        (u, u, c - 1.0),
    ):
        R += m * np.outer(q, p)
    return R


def _axis_angles(points, axis):
    """Zonal angles (theta, phi) of sphere points relative to an axis."""
    w = hermitian_pairing(points, axis)
    r = np.linalg.norm(w, axis=-1)
    theta = np.arccos(np.clip(r, 0.0, 1.0))
    cphi = np.where(r > 0.0, w[..., 0] / np.where(r > 0.0, r, 1.0), 1.0)
    phi = np.arccos(np.clip(cphi, -1.0, 1.0))
    return theta, phi


class AxisZonalFunction:
    """A sphere function with a symmetry axis, stored as profile H(theta, phi)."""

    __slots__ = ("profile", "axis", "name")

    def __init__(self, profile, axis=None, name="zonal function"):
        self.profile = profile
        a = NORTH_AXIS if axis is None else np.asarray(axis, dtype=float)
        n = np.linalg.norm(a)
        if abs(n - 1.0) > 1e-10:
            raise ValueError("axis must be a unit vector in R^16")
        self.axis = a / n
        self.name = name

    def __call__(self, points):
        """Evaluate at sphere points given as a (..., 16) array or SpherePoint."""
        v = points.as_vector() if hasattr(points, "as_vector") else points
        theta, phi = _axis_angles(v, self.axis)
        return self.profile(theta, phi)

    def __repr__(self):
        return f"AxisZonalFunction({self.name})"


# ---------------------------------------------------------------------------
# quadrature grid and bispherical projection

_GRIDS = {}


def _grid(n_theta=200, n_phi=200):
    """Gauss-Legendre nodes/weights on [0, pi/2] x [0, pi] with the sphere measure.

    Returns (theta, wt, phi, wp): the full measure of a profile F is
    sum_i sum_q wt[i] wp[q] F[i, q].
    """
    key = (int(n_theta), int(n_phi))
    if key not in _GRIDS:
        x, w = leggauss(key[0])
        theta = 0.25 * math.pi * (x + 1.0)
        wt = (
            0.25 * math.pi * w * np.sin(theta) ** 7 * np.cos(theta) ** 7 * _FH_CONST
        )
        x, w = leggauss(key[1])
        phi = 0.5 * math.pi * (x + 1.0)
        wp = 0.5 * math.pi * w * np.sin(phi) ** 6
        _GRIDS[key] = (theta, wt, phi, wp)
    return _GRIDS[key]


def _profile_values(f, theta, phi):
    """Profile values of f on the tensor grid, as an (n_theta, n_phi) array."""
    TH, PH = np.meshgrid(theta, phi, indexing="ij")
    if isinstance(f, AxisZonalFunction):
        return np.asarray(f.profile(TH, PH), dtype=float) * np.ones_like(TH)
    if callable(f):
        try:
            vals = f(TH, PH)
            return np.asarray(vals, dtype=float) * np.ones_like(TH)
        except TypeError:
            pass
        # a pointwise sphere function: check it really is zonal about the
        # north axis by comparing two point families with the same angles
        th_s = np.linspace(0.3, 1.2, 4)
        ph_s = np.linspace(0.4, 2.6, 4)
        for t in th_s:
            for p in ph_s:
                za = _angles_to_point(t, p, hidden=0)
                zb = _angles_to_point(t, p, hidden=1)
                if abs(f(za) - f(zb)) > 1e-9 * (abs(f(za)) + 1.0):
                    raise ValueError("input function is not zonal about the north axis")
        out = np.empty_like(TH)
        for i in range(TH.shape[0]):
            for q in range(TH.shape[1]):
                out[i, q] = f(_angles_to_point(TH[i, q], PH[i, q], hidden=0))
        return out
    raise TypeError("expected an AxisZonalFunction or a callable")


def _angles_to_point(theta, phi, hidden=0):
    """A representative sphere point with the given north-axis angles.

    ``hidden`` selects different coordinates in the directions the
    angles do not constrain.
    """
    v = np.zeros(16)
    i1 = 1 if hidden == 0 else 3  # zeta1 direction
    i2 = 9 if hidden == 0 else 12  # imaginary zeta2 direction
    v[i1] = math.sin(theta)
    v[8] = math.cos(theta) * math.cos(phi)
    v[i2] = math.cos(theta) * math.sin(phi)
    return v


def _zonal_factors(j, k, theta, phi):
    """Separable factors (t_vec over theta, c_vec over phi) of the zonal harmonic."""
    m = j - k
    tvec = np.cos(theta) ** m * jacobi33_normalized(k, m, np.cos(2.0 * theta))
    cvec = gegenbauer3_normalized(m, np.cos(phi))
    return tvec, cvec


@dataclass
class BisphericalFunction:
    """Truncated coefficient table of a zonal-type function.

    ``coeffs[(j, k)]`` is the signed coefficient of the normalized zonal
    harmonic, ``norms2[(j, k)]`` the squared L^2 mass of the component;
    ``l2`` the full squared L^2 norm, so ``l2 - sum(norms2)`` is the
    truncation residual (Parseval defect).
    """

    jmax: int
    coeffs: dict
    norms2: dict
    znorm2: dict
    l2: float

    def residual(self):
        return self.l2 - sum(self.norms2.values())

    def indices(self):
        return sorted(self.coeffs)


def project_bispherical(f, jmax=40, n_theta=200, n_phi=200):
    """Project a zonal-type function onto the (j, k) subspaces, j <= jmax.

    Accepts an AxisZonalFunction, a profile callable H(theta, phi), or a
    pointwise sphere function (which must be zonal about the north axis;
    anything else raises).
    """
    theta, wt, phi, wp = _grid(n_theta, n_phi)
    F = _profile_values(f, theta, phi)
    coeffs, norms2, znorm2 = {}, {}, {}
    Fp = F * wp[None, :]  # phi-weighted values
    for j in range(jmax + 1):
        for k in range(j + 1):
            tvec, cvec = _zonal_factors(j, k, theta, phi)
            zn2 = float(np.dot(wt, tvec * tvec) * np.dot(wp, cvec * cvec))
            inner = float(np.dot(wt * tvec, Fp @ cvec))
            c = inner / zn2
            coeffs[(j, k)] = c
            norms2[(j, k)] = c * c * zn2
            znorm2[(j, k)] = zn2
    l2 = _integrate(F * F, n_theta, n_phi)
    return BisphericalFunction(jmax=jmax, coeffs=coeffs, norms2=norms2, znorm2=znorm2, l2=l2)


def _integrate(values, n_theta=200, n_phi=200):
    theta, wt, phi, wp = _grid(n_theta, n_phi)
    return float(np.dot(wt, (values * wp[None, :]).sum(axis=1)))


def _profile_integral(f, transform=None, n_theta=200, n_phi=200):
    """Integral of transform(F) over the sphere for a zonal-type f."""
    theta, wt, phi, wp = _grid(n_theta, n_phi)
    F = _profile_values(f, theta, phi)
    return _integrate(F if transform is None else transform(F), n_theta, n_phi)


# ---------------------------------------------------------------------------
# extremizers


@dataclass
class ExtremizerParams:
    """Extremizer family |1 - xi . conj(zeta)|^(-(2Q - lambda)/2)."""

    xi: np.ndarray
    lam: float

    def __post_init__(self):
        self.xi = np.asarray(self.xi, dtype=float)
        if self.xi.shape != (16,):
            raise ValueError("xi must be a 16-vector")
        if np.linalg.norm(self.xi) >= 1.0:
            raise ValueError("extremizer parameter requires |xi| < 1")
        if not (0.0 < self.lam < Q):
            raise ValueError(f"lambda = {self.lam} outside (0, {Q})")


def extremizer_eval(params: ExtremizerParams, zeta):
    """Pointwise extremizer value at sphere points ((..., 16) array or SpherePoint)."""
    v = zeta.as_vector() if hasattr(zeta, "as_vector") else zeta
    pair = hermitian_pairing(params.xi, v)
    pair[..., 0] -= 1.0
    dist = np.linalg.norm(pair, axis=-1)
    out = dist ** (-(2.0 * Q - params.lam) / 2.0)
    return float(out) if np.ndim(out) == 0 else out


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
    lam = float(lam)
    if not (0.0 < lam < Q):
        raise ValueError(f"lambda = {lam} outside (0, {Q})")
    scale = 2.0 ** (lam / 2.0)
    return scale * sum(
        eig_K1(j, k, lam / 4.0) * n2 for (j, k), n2 in f.norms2.items()
    )


def hls_tail_bound(f: BisphericalFunction, lam):
    """Bound on the spectral mass beyond the truncation: largest eigenvalue
    outside the table times the Parseval residual."""
    lam = float(lam)
    return 2.0 ** (lam / 2.0) * eig_K1(f.jmax + 1, 0, lam / 4.0) * max(f.residual(), 0.0)


def hls_quotient(f, lam, jmax=40):
    """The sharp-constant quotient I(f, f) / ||f||_p^2 for a zonal-type f."""
    lam = float(lam)
    p = 2.0 * Q / (2.0 * Q - lam)
    proj = project_bispherical(f, jmax)
    pnorm2 = _profile_integral(f, lambda F: np.abs(F) ** p) ** (2.0 / p)
    return hls_spectral(proj, lam) / pnorm2


def hls_mc(f, g, lam, n, seed):
    """Monte Carlo estimate of the bilinear form int int f(z) g(e) d_S(z, e)^(-lam).

    Returns (estimate, stderr); the standard error comes from batch means
    because the integrand is heavy-tailed near the diagonal.
    """
    lam = float(lam)
    if not lam < Q:
        raise ValueError("kernel not integrable for lambda >= Q")
    n = int(n)
    zp = sample_sphere(n, seed, stream=0)
    ep = sample_sphere(n, seed, stream=1)
    kern = sdist_arrays(zp, ep) ** (-lam)
    vals = np.asarray(f(zp), dtype=float) * np.asarray(g(ep), dtype=float) * kern
    vals *= sphere_measure() ** 2
    nb = 20
    batches = np.array([b.mean() for b in np.array_split(vals, nb)])
    est = float(vals.mean())
    stderr = float(batches.std(ddof=1) / math.sqrt(nb))
    return est, stderr


def el_residual(h, lam=None, jmax=40, n_points=100):
    """Coefficient of variation of (K * h)(zeta) / h(zeta)^(p-1) over sample points.

    A small value certifies the Euler-Lagrange equation up to its free
    constant.  ``h`` may be ExtremizerParams (lambda taken from it) or a
    zonal-type function with ``lam`` supplied.
    """
    if isinstance(h, ExtremizerParams):
        lam = h.lam
        h = extremizer_profile(h)
    if lam is None:
        raise ValueError("lam is required for a plain function input")
    lam = float(lam)
    p = 2.0 * Q / (2.0 * Q - lam)
    proj = project_bispherical(h, jmax)
    scale = 2.0 ** (lam / 2.0)
    eigs = {
        (j, k): scale * eig_K1(j, k, lam / 4.0) for (j, k) in proj.indices()
    }
    ns = max(2, int(math.sqrt(n_points)))
    thetas = np.linspace(0.1, math.pi / 2 - 0.1, ns)
    phis = np.linspace(0.1, math.pi - 0.1, ns)
    TH, PH = np.meshgrid(thetas, phis, indexing="ij")
    conv = np.zeros_like(TH)
    for (j, k), c in proj.coeffs.items():
        tvec, cvec = _zonal_factors(j, k, TH.ravel(), PH.ravel())
        conv += (c * eigs[(j, k)]) * (tvec * cvec).reshape(TH.shape)
    hv = np.asarray(
        h.profile(TH, PH) if isinstance(h, AxisZonalFunction) else h(TH, PH), dtype=float
    ) * np.ones_like(TH)
    ratio = conv / hv ** (p - 1.0)
    return float(ratio.std() / abs(ratio.mean()))


def second_variation(h, phi_fn, lam, jmax=40):
    """Quadratic form I_K(phi, phi) int h^p - (p - 1) I_K(h, h) int h^(p-2) phi^2.

    Nonpositive at extremizers for admissible phi; requires the
    orthogonality constraint int h^(p-1) phi = 0.
    """
    lam = float(lam)
    p = 2.0 * Q / (2.0 * Q - lam)
    theta, wt, phi, wp = _grid()
    H = _profile_values(h, theta, phi)
    P = _profile_values(phi_fn, theta, phi)
    constraint = _integrate(H ** (p - 1.0) * P)
    scale_c = math.sqrt(max(_integrate(H ** (2.0 * p - 2.0)) * _integrate(P * P), 1e-300))
    if abs(constraint) > 1e-6 * scale_c:
        raise ValueError("test direction violates int h^(p-1) phi = 0")
    ph = project_bispherical(h, jmax)
    pp = project_bispherical(phi_fn, jmax)
    ikh = hls_spectral(ph, lam)
    ikp = hls_spectral(pp, lam)
    return ikp * _integrate(H ** p) - (p - 1.0) * ikh * _integrate(H ** (p - 2.0) * P * P)


# ---------------------------------------------------------------------------
# center of mass and recentering


def center_mass(h, p, n_theta=200, n_phi=200):
    """The 16-vector int zeta h(zeta)^p dzeta for a zonal-type h.

    For an axis-zonal function only the axis component survives (the
    stabilizer of the axis averages the transverse components to zero),
    so the integral reduces to the scalar int cos(theta) cos(phi) h^p.
    """
    axis = h.axis if isinstance(h, AxisZonalFunction) else NORTH_AXIS
    theta, wt, phi, wp = _grid(n_theta, n_phi)
    F = _profile_values(h, theta, phi)
    comp = float(
        np.dot(wt * np.cos(theta), ((F ** p) * (wp * np.cos(phi))[None, :]).sum(axis=1))
    )
    return comp * axis


def center_mass_mc(h, p, n, seed):
    """Monte Carlo oracle for the full 16-component center of mass."""
    pts = sample_sphere(n, seed, stream=7)
    vals = np.asarray(h(pts), dtype=float) ** p
    return sphere_measure() * (pts * vals[:, None]).mean(axis=0)


@dataclass
class ConformalParams:
    """Conformal map: rotate xi to the pole, conjugate a group dilation by
    the boundary transform, i.e. gamma = C . delta . C^-1 . A_xi."""

    delta: float
    xi: np.ndarray

    def __post_init__(self):
        self.delta = float(self.delta)
        if not self.delta > 0:
            raise ValueError("dilation scale must be positive")
        self.xi = np.asarray(self.xi, dtype=float)
        if abs(np.linalg.norm(self.xi) - 1.0) > 1e-10:
            raise ValueError("rotation target xi must be a unit vector")


def _angles_to_radii(theta, phi):
    """Group-side radii (|z|^2, |t|^2) of the point with north-axis angles."""
    ct, cp = np.cos(theta), np.cos(phi)
    st2 = np.sin(theta) ** 2
    B = 1.0 + 2.0 * ct * cp + ct * ct
    if np.any(B < 1e-280):
        raise ZeroDivisionError("conformal map evaluated at its excluded point")
    R2 = st2 / B
    s2 = (1.0 - 2.0 * ct * cp + ct * ct) / B - st2 * st2 / (B * B)
    return R2, np.maximum(s2, 0.0)


def _radii_to_angles(R2, s2):
    """Inverse of _angles_to_radii."""
    W = (1.0 + R2) ** 2 + s2
    ct = np.sqrt(np.clip(((1.0 - R2) ** 2 + s2) / W, 0.0, 1.0))
    re = (1.0 - R2 * R2 - s2) / W
    safe = np.where(ct > 0.0, ct, 1.0)
    cp = np.clip(re / safe, -1.0, 1.0)
    return np.arccos(ct), np.arccos(cp)


def conformal_pullback(h, params: ConformalParams, p):
    """Pullback |J_{gamma^-1}|^(1/p) h(gamma^-1 zeta) along the axis of h.

    Supported when the rotation target coincides with the axis of h (or
    h is axis-free, e.g. constant); the composition then preserves the
    zonal frame and acts on profiles through the group-side radii.
    """
    if not isinstance(h, AxisZonalFunction):
        h = AxisZonalFunction(h, axis=params.xi)
    if abs(float(h.axis @ params.xi) - 1.0) > 1e-10:
        raise ValueError("pullback supported only along the symmetry axis of h")
    delta = params.delta

    def profile(theta, phi):
        R2, s2 = _angles_to_radii(theta, phi)
        R2v, s2v = R2 / delta ** 2, s2 / delta ** 4
        th2, ph2 = _radii_to_angles(R2v, s2v)
        Wu = (1.0 + R2) ** 2 + s2
        Wv = (1.0 + R2v) ** 2 + s2v
        jac = delta ** (-Q) * (Wu / Wv) ** (Q / 2)
        return jac ** (1.0 / p) * h.profile(th2, ph2)

    name = f"pullback(delta={delta}) of {h.name}"
    return AxisZonalFunction(profile, axis=h.axis, name=name)


def recenter(h, p, tol=1e-8, max_iter=200):
    """Find the conformal pullback of h with zero center of mass.

    ``h`` must be a positive zonal-type function; it is normalized to
    int h^p = |S| internally (the zero-center condition is invariant
    under positive scaling).  Returns (ConformalParams, recentered
    function).  Raises with the final residual on non-convergence.
    """
    if not isinstance(h, AxisZonalFunction):
        h = AxisZonalFunction(h)
    axis = h.axis
    mass = _profile_integral(h, lambda F: np.abs(F) ** p)
    scale = (sphere_measure() / mass) ** (1.0 / p)
    base = AxisZonalFunction(
        lambda th, ph, _h=h.profile, _s=scale: _s * _h(th, ph), axis=axis, name=h.name
    )

    def centered(logd):
        delta = math.exp(logd)
        g = conformal_pullback(base, ConformalParams(delta, axis), p)
        m = _profile_integral(g, lambda F: np.abs(F) ** p)
        gn = AxisZonalFunction(
            lambda th, ph, _g=g.profile, _s=(sphere_measure() / m) ** (1.0 / p): _s
            * _g(th, ph),
            axis=axis,
        )
        resid = float(center_mass(gn, p) @ axis)
        return resid, gn, delta

    x0, x1 = 0.0, 0.25
    f0, g0, d0 = centered(x0)
    if abs(f0) < tol:
        return ConformalParams(1.0, axis), g0
    f1, g1, d1 = centered(x1)
    it = 0
    while abs(f1) >= tol and it < max_iter:
        if f1 == f0:
            raise RuntimeError(f"recenter stalled; residual {f1:.3e}")
        step = -f1 * (x1 - x0) / (f1 - f0)
        # damped update with a residual-norm line search
        for _ in range(60):
            f2, g2, d2 = centered(x1 + step)
            if abs(f2) < abs(f1):
                break
            step *= 0.5
        x0, f0 = x1, f1
        x1, f1, g1, d1 = x1 + step, f2, g2, d2
        it += 1
    if abs(f1) >= tol:
        raise RuntimeError(f"recenter did not converge; residual {f1:.3e}")
    return ConformalParams(d1, axis), g1


# ---------------------------------------------------------------------------
# Log-Sobolev


def log_sobolev_pair(f, jmax=40):
    """(LHS, RHS) of the endpoint inequality for a zonal-type f >= 0
    normalized by int f^2 = |S|.

    LHS is the spectral d_S^(-Q) energy sum 2 gap_{j,k} |f_{j,k}|^2; RHS
    is C_logsobolev() int f^2 log f^2.
    """
    theta, wt, phi, wp = _grid()
    F = _profile_values(f, theta, phi)
    if np.any(F < 0.0):
        raise ValueError("log-Sobolev input must be nonnegative")
    l2 = _integrate(F * F)
    if abs(l2 - sphere_measure()) > 1e-8 * sphere_measure():
        raise ValueError("input must be normalized to int f^2 = |S|")
    proj = project_bispherical(f, jmax)
    lhs = 2.0 * sum(
        logsob_gap(j, k) * n2 for (j, k), n2 in proj.norms2.items() if (j, k) != (0, 0)
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        integrand = np.where(F > 0.0, F * F * np.log(F * F), 0.0)
    rhs = C_logsobolev() * _integrate(integrand)
    return lhs, rhs
