"""Extremizers of the sharp inequality: the conformal family, the
Euler-Lagrange equation, recentering (out to |xi| = 0.99), and the
endpoint inequality.

Run:  python3 demos/extremizers.py
"""

import math

import numpy as np

from octhls import constants, functional as fn, spectra
from octhls.cayley import NORTH_POLE
from octhls.nilgroup import Q
from octhls.specfun import zonal

SPHERE = constants.sphere_measure()


def main():
    lam = 16.0
    ref = constants.C_hls_sphere(lam)
    print(f"sharp constant at lambda = {lam:.0f}: {ref:.8e}\n")

    params = fn.ExtremizerParams(xi=0.3 * NORTH_POLE, lam=lam)
    h = fn.extremizer_profile(params)
    print("quotient of the conformal extremizer (|xi| = 0.3):")
    print("  ", fn.hls_quotient(h, lam, jmax=40))
    pert = fn.AxisZonalFunction(lambda th, ph: 1.0 + 0.3 * zonal(2, 0, th, ph))
    print("quotient of a perturbed competitor (strictly below):")
    print("  ", fn.hls_quotient(pert, lam, jmax=10))

    print("\nEuler-Lagrange residual (coefficient of variation of (K*h)/h^(p-1)):")
    print("   extremizer:", fn.el_residual(params))
    print("   control   :", fn.el_residual(pert, lam=lam))

    print("\nsecond variation at the centered extremizer (must be <= 0):")
    for j, k in ((1, 0), (2, 1)):
        phi = fn.AxisZonalFunction(lambda th, ph, j=j, k=k: zonal(j, k, th, ph))
        one = fn.AxisZonalFunction(lambda th, ph: np.ones_like(th))
        print(f"   direction ({j},{k}):", fn.second_variation(one, phi, lam, jmax=8))

    print("\nrecentering an off-center extremizer (zero center-of-mass):")
    p = 2.0 * Q / (2.0 * Q - lam)
    delta, gn = fn.recenter(h, p)
    print("   dilation parameter :", delta)
    print("   |center of mass|   :", np.linalg.norm(fn.center_mass(gn, p)))
    th = np.linspace(0.1, math.pi / 2 - 0.1, 5)
    ph = np.linspace(0.1, math.pi - 0.1, 5)
    TH, PH = np.meshgrid(th, ph)
    vals = gn.profile(TH, PH)
    print("   constancy (std/mean):", np.std(vals) / np.mean(vals))

    print("\nthe concentrated end of the family (|xi| = 0.99):")
    rho = 0.99
    far = fn.extremizer_profile(fn.ExtremizerParams(xi=rho * NORTH_POLE, lam=lam))
    try:
        fn.hls_quotient(far, lam, jmax=40)
    except ValueError as err:  # a jmax 40 projection cannot hold it
        print("   quotient refused   :", err)
    delta, gfar = fn.recenter(far, p)
    print(f"   dilation parameter : {delta:.10f}   sqrt((1+rho)/(1-rho)) = "
          f"{math.sqrt((1.0 + rho) / (1.0 - rho)):.10f}")
    print(f"   recentered quotient: {fn.hls_quotient(gfar, lam, jmax=40):.14e}   C = {ref:.14e}")

    print("\nendpoint inequality (energy vs entropy):")
    s = 0.2
    raw = fn.AxisZonalFunction(
        lambda th, ph: (1.0 - 2.0 * s * np.cos(th) * np.cos(ph) + s * s * np.cos(th) ** 2)
        ** (-Q / 4.0)
    )
    l2 = fn.project_bispherical(raw, jmax=0).l2
    scl = math.sqrt(SPHERE / l2)
    f = fn.AxisZonalFunction(lambda th, ph: scl * raw.profile(th, ph))
    lhs, rhs = fn.log_sobolev_pair(f, jmax=40)
    print(f"   equality family : lhs {lhs:.8e}  rhs {rhs:.8e}")
    raw2 = fn.AxisZonalFunction(lambda th, ph: 1.0 + 0.4 * zonal(2, 1, th, ph))
    scl2 = math.sqrt(SPHERE / fn.project_bispherical(raw2, jmax=0).l2)
    g = fn.AxisZonalFunction(lambda th, ph: scl2 * raw2.profile(th, ph))
    lhs2, rhs2 = fn.log_sobolev_pair(g, jmax=10)
    print(f"   generic function: lhs {lhs2:.8e}  rhs {rhs2:.8e}  (strict)")
    print("   eigenvalue gap (1,0):", spectra.logsob_gap(1, 0))


if __name__ == "__main__":
    main()
