"""sphere: the sphere-side calculus of octhls.functional and the spectral closed forms.

* ``hls_quotient`` of extremizers with rho in {0.3, 0.6} and lambda in
  {12, 16, 20} at jmax 40 equals the sharp constant (mpmath), rel 1e-4;
* on one off-centre extremizer (rho 0.3, lambda 16): the Euler-Lagrange
  residual is below 1e-4, the second variation in an admissible
  direction is <= 0, and ``recenter`` leaves a centre of mass below 1e-8;
* ``log_sobolev_pair`` vanishes (1e-10) at the constant and has
  LHS >= RHS on a normalized non-constant profile;
* the ``bilinear_margin`` scan over j <= 200: margin >= -1e-12 for
  alpha in {3, 4, 5} and < -1e-6 somewhere at alpha = 2.5;
* the intertwining grid: c_d 2^((Q-d)/2) lambda_jk((Q-d)/4) I_d(j, k) = 1
  to 1e-10 for d in {2, 4, 8}, j <= 6;
* the spectral identity C_hls_sphere(lambda) = 2^(lambda/2) lambda_00(lambda/4)
  |S|^((lambda-Q)/Q) to 1e-12, with C_hls_sphere against mpmath.

The seed draws the extremizer axes and the coefficients of the test
profiles; the modes, parameters and grid sizes are fixed, so every seed
asks for the same amount of work.
"""

from __future__ import annotations

import functools
import math

import numpy as np

import reference as ref
from workloads import Op, below, first, p_of, sphere_grid, unit_vector, within

Q = 22
QUOTIENTS = [(rho, lam) for rho in (0.3, 0.6) for lam in (12.0, 16.0, 20.0)]
OFF_CENTRE = (0.3, 16.0)
MARGIN_ALPHAS = (2.5, 3.0, 4.0, 5.0)
MARGIN_JMAX = 200
INTERTWINING = [(d, j, k) for d in (2.0, 4.0, 8.0) for j in range(7) for k in range(j + 1)]
IDENTITY_LAMBDAS = (12.0, 16.0, 20.0)
#: modes of the second-variation direction and of the log-Sobolev profile
VARIATION_MODES = ((2, 0), (2, 1), (3, 1), (4, 2))
LOGSOB_MODE = (2, 1)


def _zonal_sum(coeffs, modes):
    from octhls.specfun import zonal

    def profile(th, ph):
        out = np.zeros(np.broadcast(th, ph).shape)
        for c, (j, k) in zip(coeffs, modes):
            out = out + c * zonal(j, k, th, ph)
        return out

    return profile


def make_inputs(seed):
    from octhls import functional as fn

    rng = np.random.default_rng([seed, 2])
    TH, PH, W = sphere_grid()
    quotients = [
        (lam, fn.extremizer_profile(fn.ExtremizerParams(xi=rho * unit_vector(rng), lam=lam)))
        for rho, lam in QUOTIENTS
    ]
    rho, lam = OFF_CENTRE
    off = fn.ExtremizerParams(xi=rho * unit_vector(rng), lam=lam)
    h = fn.extremizer_profile(off)
    # a direction phi with int h^(p-1) phi = 0: zonal modes minus their h^(p-1) mean
    psi = _zonal_sum(rng.uniform(0.5, 1.0, len(VARIATION_MODES)), VARIATION_MODES)
    hp1 = h.profile(TH, PH) ** (p_of(lam) - 1.0)
    shift = float(np.sum(W * hp1 * psi(TH, PH)) / np.sum(W * hp1))
    # a positive profile 1 + c Z_jk normalized to int f^2 = |S|
    bump = _zonal_sum([1.0, rng.uniform(0.2, 0.4)], [(0, 0), LOGSOB_MODE])
    scale = math.sqrt(ref.sphere_measure() / float(np.sum(W * bump(TH, PH) ** 2)))
    return {
        "quotients": quotients,
        "off_centre": off,
        "h": h,
        "direction": lambda th, ph: psi(th, ph) - shift,
        "constant": fn.AxisZonalFunction(lambda th, ph: np.ones_like(th)),
        "profile": fn.AxisZonalFunction(lambda th, ph: scale * bump(th, ph)),
    }


@functools.cache
def references():
    lams = {lam for _, lam in QUOTIENTS} | set(IDENTITY_LAMBDAS)
    return {"C_hls_sphere": {lam: ref.C_hls_sphere(lam) for lam in sorted(lams)}}


def _margin_min(alpha):
    from octhls import spectra

    return min(
        spectra.bilinear_margin(j, k, alpha)
        for j in range(MARGIN_JMAX + 1)
        for k in range(j + 1)
    )


def _intertwining_defect():
    from octhls import spectra

    return max(
        abs(spectra.c_d(d) * 2.0 ** ((Q - d) / 2.0) * spectra.eig_K1(j, k, (Q - d) / 4.0)
            * spectra.intertwining_spectrum(d, j, k) - 1.0)
        for d, j, k in INTERTWINING
    )


def _identity():
    from octhls import constants, spectra

    return [
        (lam, constants.C_hls_sphere(lam),
         2.0 ** (lam / 2.0) * spectra.eig_K1(0, 0, lam / 4.0)
         * constants.sphere_measure() ** ((lam - Q) / Q))
        for lam in IDENTITY_LAMBDAS
    ]


def operations(inputs, refs, trace_dir=None):
    from octhls import functional as fn

    c_hls = refs["C_hls_sphere"]
    ops = []
    for (rho, _), (lam, h) in zip(QUOTIENTS, inputs["quotients"]):
        ops.append(Op(
            f"hls_quotient rho={rho} lam={lam:g}",
            lambda h=h, lam=lam: fn.hls_quotient(h, lam, jmax=40),
            lambda q, lam=lam: within("quotient", q, c_hls[lam], 1e-4),
        ))
    lam = OFF_CENTRE[1]
    p = p_of(lam)
    h = inputs["h"]

    def recentre():
        _, g = fn.recenter(h, p)
        return float(np.linalg.norm(fn.center_mass(g, p)))

    ops += [
        Op("el_residual", lambda: fn.el_residual(inputs["off_centre"]),
           lambda r: below("EL residual", r, 1e-4)),
        Op("second_variation", lambda: fn.second_variation(h, inputs["direction"], lam),
           lambda v: None if v <= 0.0 else f"second variation {v:.3e} > 0"),
        Op("recenter", recentre, lambda r: below("centre of mass", r, 1e-8)),
        Op("log_sobolev constant", lambda: fn.log_sobolev_pair(inputs["constant"], jmax=4),
           lambda lr: below("|LHS| + |RHS|", abs(lr[0]) + abs(lr[1]), 1e-10)),
        Op("log_sobolev profile", lambda: fn.log_sobolev_pair(inputs["profile"], jmax=40),
           lambda lr: None if lr[0] >= lr[1] else f"LHS {lr[0]:.6e} < RHS {lr[1]:.6e}"),
        Op("intertwining grid", _intertwining_defect,
           lambda worst: below("intertwining defect", worst, 1e-10)),
        Op("spectral identity", _identity, lambda rows: first(*(
            within(f"C_hls_sphere({lam:g})", cs, c_hls[lam], 1e-12)
            or within(f"spectral identity({lam:g})", spectral, cs, 1e-12)
            for lam, cs, spectral in rows
        ))),
    ]
    for alpha in MARGIN_ALPHAS:
        if alpha >= 3.0:
            check = lambda m: None if m >= -1e-12 else f"min margin {m:.3e} < -1e-12"  # noqa: E731
        else:
            check = lambda m: None if m < -1e-6 else f"min margin {m:.3e} >= -1e-6"  # noqa: E731
        ops.append(Op(f"margin alpha={alpha:g}", lambda a=alpha: _margin_min(a), check))
    return ops
