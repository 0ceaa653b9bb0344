"""Acceptance gate: the twelve oracle-equivalence and identity criteria.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in captured
output on failure), criteria 3 and 9-12 a detail line before it, and asserts the
stated tolerance.  Criteria 3, 4, 7, 8, 11 and 12 compute through the functions
behind ``octhls verify``, each at its own size and bound.
"""

import math

import numpy as np
import pytest

from octhls import _checks, cli, constants, functional as fn, nilgroup as ng, spectra
from octhls import octonion as oc
from octhls.cayley import NORTH_POLE
from octhls.nilgroup import Q
from octhls.specfun import zonal

SPHERE = constants.sphere_measure()


def _report(num, name, worst, tol, ok):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num:2d} {name}: worst {worst:.3e} (tol {tol:.0e})")
    assert ok, f"criterion {num} {name}: worst residual {worst} exceeds {tol}"


# ---------------------------------------------------------------------------


def test_criterion_01_octonion_algebra():
    rng = np.random.default_rng(101)
    n = 100000
    x = rng.standard_normal((n, 8))
    y = rng.standard_normal((n, 8))
    a = rng.standard_normal((n, 8))
    scale = 1.0 / np.linalg.norm(x, axis=1) / np.linalg.norm(y, axis=1)
    comp = np.abs(
        np.linalg.norm(oc.mul(x, y), axis=1) * scale - 1.0
    )
    moufang = np.linalg.norm(
        oc.mul(oc.mul(a, oc.mul(x, y)), a) - oc.mul(oc.mul(a, x), oc.mul(y, a)), axis=1
    ) * scale / np.linalg.norm(a, axis=1) ** 2
    alt_l = np.linalg.norm(
        oc.mul(x, oc.mul(x, y)) - oc.mul(oc.mul(x, x), y), axis=1
    ) * scale / np.linalg.norm(x, axis=1)
    alt_r = np.linalg.norm(
        oc.mul(oc.mul(y, x), x) - oc.mul(y, oc.mul(x, x)), axis=1
    ) * scale / np.linalg.norm(x, axis=1)
    worst = max(comp.max(), moufang.max(), alt_l.max(), alt_r.max())
    _report(1, "octonion algebra", worst, 1e-12, worst < 1e-12)


def test_criterion_02_group_axioms_and_metric():
    rng = np.random.default_rng(102)
    n = 10000
    z = rng.standard_normal((3, n, 8))
    t = rng.standard_normal((3, n, 7))
    # associativity, scale-relative
    z12, t12 = ng.gmul_zt(z[0], t[0], z[1], t[1])
    za, ta = ng.gmul_zt(z12, t12, z[2], t[2])
    z23, t23 = ng.gmul_zt(z[1], t[1], z[2], t[2])
    zb, tb = ng.gmul_zt(z[0], t[0], z23, t23)
    sc = 1.0 + np.abs(ta).max(axis=1)
    assoc = max(
        np.abs(za - zb).max(),
        (np.abs(ta - tb).max(axis=1) / sc).max(),
    )
    # inverse: components of u * u^-1 vanish
    zi, ti = ng.gmul_zt(z[0], t[0], -z[0], -t[0])
    sc = 1.0 + np.abs(t[0]).max(axis=1)
    inv = max(np.abs(zi).max(), (np.abs(ti).max(axis=1) / sc).max())
    # left-invariance of the distance
    zvu, tvu = ng.gmul_zt(-z[1], -t[1], z[0], t[0])
    d0 = ng.hnorm_zt(zvu, tvu)
    zw0, tw0 = ng.gmul_zt(z[2], t[2], z[0], t[0])
    zw1, tw1 = ng.gmul_zt(z[2], t[2], z[1], t[1])
    zr, tr = ng.gmul_zt(-zw1, -tw1, zw0, tw0)
    d1 = ng.hnorm_zt(zr, tr)
    linv = np.abs(d0 - d1).max() / max(d0.max(), 1.0)
    # dilation homogeneity
    delta = 3.7
    hom = np.abs(
        ng.hnorm_zt(delta * z[0], delta ** 2 * t[0]) - delta * ng.hnorm_zt(z[0], t[0])
    ).max() / (delta * ng.hnorm_zt(z[0], t[0])).max()
    worst = max(assoc, inv, linv, hom)
    _report(2, "group axioms and metric", worst, 1e-12, worst < 1e-12)


def test_criterion_03_cayley_identities():
    rng = np.random.default_rng(103)
    n = 10000
    z = rng.standard_normal((n, 8))
    t = rng.standard_normal((n, 7))
    # the distance relation on 5000 disjoint pairs: the first half against the second
    rt, jac, dr = _checks.cayley_identities(z, t, slice(0, 5000), slice(5000, None))
    print(f"          round trip {rt:.3e}, jacobian {jac:.3e}, distance relation {dr:.3e}")
    ok = rt < 1e-11 and jac < 1e-10 and dr < 1e-10
    # the distance relation measures 3.3e-16: a second, tighter bound
    ok = ok and dr < 1e-12
    _report(3, "Cayley identities", max(rt, jac, dr), 1e-10, ok)


def test_criterion_04_eigenvalue_oracle_equivalence():
    worst = 0.0
    # below alpha = 1 too: the worst cell, K1's (6, 6) at alpha = -0.5, reads 3.2e-7;
    # alpha = -0.9 misses (6, 6) of each kernel, the float64 floor (ROADMAP item 5)
    for alpha in (-0.5, 0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 2.5, 3.0, 3.25, 3.5, 4.0, 4.75, 5.0,
                  5.2, 5.25, 5.3, 5.45, 5.49):
        for kind in ("K1", "K2"):
            for j, k, cf, _, err in cli._oracle_cells(kind, alpha, 6):
                if cf != 0.0:
                    worst = max(worst, err)
                else:
                    assert err < 1e-8, (kind, j, k, alpha)
    _report(4, "eigenvalue oracle equivalence", worst, 1e-6, worst < 1e-6)


def test_criterion_05_ratio_identity():
    worst = 0.0
    for alpha in (3.5, 4.0, 5.0):
        for j in range(51):
            for k in range(min(j, 50) + 1):
                direct_num = spectra.eig_K1(j, k, alpha - 1.0)
                direct_den = spectra.eig_K1(j, k, alpha)
                ratio = spectra.eig_K1_ratio(j, k, alpha)
                if direct_num == 0.0:
                    assert ratio == 0.0, (j, k, alpha)
                else:
                    direct = direct_num / direct_den
                    worst = max(worst, abs(ratio - direct) / abs(direct))
    _report(5, "eigenvalue ratio identity", worst, 1e-12, worst < 1e-12)


def test_criterion_06_bilinear_margin():
    worst = math.inf
    for alpha in (3.0, 3.25, 3.5, 4.0, 4.5, 5.0, 5.25, 5.45):
        for j in range(201):
            for k in range(j + 1):
                worst = min(worst, spectra.bilinear_margin(j, k, alpha))
    nonneg = worst >= -1e-12
    # the margin is a product: its minimum is the exact zero at (0, 0)
    exact = worst == 0.0
    # zero exactly at (0,0) for alpha > 3
    only_origin = abs(spectra.bilinear_margin(0, 0, 4.0)) < 1e-12 and all(
        spectra.bilinear_margin(j, k, 4.0) > 1e-10
        for j in range(6)
        for k in range(j + 1)
        if (j, k) != (0, 0)
    )
    # zero set {(0,0)} union {k >= 2} at alpha = 3
    zero_set = all(
        (abs(spectra.bilinear_margin(j, k, 3.0)) < 1e-10)
        == ((j, k) == (0, 0) or k >= 2)
        for j in range(8)
        for k in range(j + 1)
    )
    exact_zero_set = all(
        (spectra.bilinear_margin(j, k, 3.0) == 0.0) == ((j, k) == (0, 0) or k >= 2)
        for j in range(8)
        for k in range(j + 1)
    )
    violated = spectra.bilinear_margin(2, 2, 2.5) < -1e-6
    ok = nonneg and exact and only_origin and zero_set and exact_zero_set and violated
    _report(6, "bilinear eigenvalue margin", worst, -1e-12, ok)


def test_criterion_07_sharp_constant_spectral_identity():
    worst = 0.0
    for lam in (12.0, 14.0, 16.0, 20.0):
        ref = constants.C_hls_sphere(lam)
        worst = max(worst, abs(cli._spectral_constant(lam) - ref) / ref)
    ok = worst < 1e-12
    qworst = 0.0
    for lam in (12.0, 16.0):
        q = fn.hls_quotient(_checks.ONE, lam, jmax=2)
        qworst = max(qworst, abs(q - constants.C_hls_sphere(lam)) / constants.C_hls_sphere(lam))
    ok = ok and qworst < 1e-10
    _report(7, "sharp-constant spectral identity", max(worst, qworst), 1e-10, ok)


def test_criterion_08_intertwining_consistency():
    worst = _checks.intertwining_error(6)
    ok = worst < 1e-10
    # measured 6.0e-15: a second, tighter bound
    ok = ok and worst < 1e-12
    _report(8, "intertwining consistency", worst, 1e-10, ok)


def test_criterion_09_extremality():
    lam = 16.0
    ref = constants.C_hls_sphere(lam)
    params = fn.ExtremizerParams(xi=0.3 * NORTH_POLE, lam=lam)
    q = fn.hls_quotient(fn.extremizer_profile(params), lam, jmax=40)
    ext_err = abs(q - ref) / ref
    rng = np.random.default_rng(109)
    below = True
    margin = math.inf
    for _ in range(50):
        modes = [(j, k) for j in range(1, 5) for k in range(j + 1)]
        coeffs = 0.04 * rng.standard_normal(len(modes))

        def profile(th, ph, _c=coeffs, _m=modes):
            out = np.ones_like(np.asarray(th, dtype=float))
            for c, (j, k) in zip(_c, _m):
                out = out + c * zonal(j, k, th, ph)
            return out

        qp = fn.hls_quotient(fn.AxisZonalFunction(profile), lam, jmax=12)
        below = below and qp < ref
        margin = min(margin, ref - qp)
    ok = ext_err < 1e-4 and below
    # measured 2.8e-15: a second, tighter bound catches a regression the first hides
    ok = ok and ext_err < 1e-13
    print(f"          extremizer rel err {ext_err:.3e}, min gap of perturbations {margin:.3e}")
    _report(9, "extremality of the quotient", ext_err, 1e-4, ok)


def test_criterion_10_euler_lagrange_residual():
    res_ext = max(
        fn.el_residual(fn.ExtremizerParams(xi=s * NORTH_POLE, lam=lam))
        for s, lam in ((0.0, 12.0), (0.3, 16.0), (0.45, 14.0))
    )
    control = fn.AxisZonalFunction(lambda th, ph: 1.0 + 0.5 * zonal(1, 0, th, ph))
    res_ctl = fn.el_residual(control, lam=16.0)
    ok = res_ext < 1e-4 and res_ctl > 1e-2
    # measured 5.0e-9, the truncation at jmax = 40
    ok = ok and res_ext < 2e-8
    print(f"          extremizer residual {res_ext:.3e}, control residual {res_ctl:.3e}")
    _report(10, "Euler-Lagrange residual", res_ext, 1e-4, ok)


def test_criterion_11_recentering():
    rng = np.random.default_rng(111)
    worst_cm, worst_const = 0.0, 0.0
    for rho, lam in ((0.3, 16.0), (0.5, 14.0)):
        axis = rng.standard_normal(16)
        axis /= np.linalg.norm(axis)
        p = 2.0 * Q / (2.0 * Q - lam)
        h = fn.extremizer_profile(fn.ExtremizerParams(xi=rho * axis, lam=lam))
        gn, cm = _checks.recenter_residual(h, p)
        worst_cm = max(worst_cm, cm)
        th = np.linspace(0.05, math.pi / 2 - 0.05, 8)
        ph = np.linspace(0.05, math.pi - 0.05, 8)
        TH, PH = np.meshgrid(th, ph)
        vals = gn.profile(TH, PH)
        worst_const = max(worst_const, float(np.std(vals) / np.mean(vals)))
    ok = worst_cm < 1e-8 and worst_const < 1e-4
    print(f"          center mass {worst_cm:.3e}, constancy {worst_const:.3e}")
    _report(11, "recentering", worst_cm, 1e-8, ok)


def test_criterion_12_log_sobolev():
    lhs0, rhs0 = fn.log_sobolev_pair(_checks.ONE, jmax=4)
    at_constant = max(abs(lhs0), abs(rhs0)) < 1e-10
    # near-equality at a small-parameter member of the endpoint family
    s = 0.2
    raw = fn.AxisZonalFunction(
        lambda th, ph: (1.0 - 2.0 * s * np.cos(th) * np.cos(ph) + s * s * np.cos(th) ** 2)
        ** (-Q / 4.0)
    )
    l2 = fn.project_bispherical(raw, jmax=0).l2
    scl = math.sqrt(SPHERE / l2)
    f = fn.AxisZonalFunction(lambda th, ph: scl * raw.profile(th, ph))
    lhs, rhs = fn.log_sobolev_pair(f, jmax=40)
    defect = abs(lhs - rhs) / lhs
    # strict inequality away from the family
    raw2 = fn.AxisZonalFunction(lambda th, ph: 1.0 + 0.4 * zonal(2, 1, th, ph))
    l2b = fn.project_bispherical(raw2, jmax=0).l2
    sclb = math.sqrt(SPHERE / l2b)
    g = fn.AxisZonalFunction(lambda th, ph: sclb * raw2.profile(th, ph))
    lhs2, rhs2 = fn.log_sobolev_pair(g, jmax=10)
    strict = lhs2 > rhs2 + 1e-3 * lhs2
    # gap formula against the numerical limit
    gap_err = max(
        abs(spectra.logsob_gap(j, k) - spectra.logsob_gap_limit(j, k))
        / spectra.logsob_gap(j, k)
        for j, k in ((1, 0), (2, 1), (3, 3))
    )
    ok = at_constant and defect <= 1e-3 and strict and gap_err < 1e-6
    # measured 1.9e-14
    ok = ok and defect <= 1e-12
    print(
        f"          equality defect {defect:.3e}, gap-limit err {gap_err:.3e}, "
        f"strict margin {(lhs2 - rhs2) / lhs2:.3e}"
    )
    _report(12, "log-Sobolev endpoint", defect, 1e-3, ok)
