"""The residuals that ``octhls verify`` and the acceptance criteria share, each at the size
its caller picks and held to that caller's bound.  No other subcommand imports this module;
it calls the layers through their module attributes."""

import math

import numpy as np

from . import Q, cayley, constants, functional, nilgroup, spectra

#: the constant function 1
ONE = functional.AxisZonalFunction(lambda th, ph: np.ones_like(th))


def cayley_identities(z, t, a, b):
    """(round trip, Jacobian duality, distance relation): the largest residuals of the Cayley
    transform at the group points (z, t), the last on the pairs (a[i], b[i]) of two slices."""
    zeta = cayley.cayley_zt(z, t)
    zb, tb = cayley.cayley_inv_arrays(zeta)
    jg = cayley.jac_cayley_zt(z, t)
    dist = nilgroup.hnorm_zt(*nilgroup.gmul_zt(-z[b], -t[b], z[a], t[a]))
    rhs = 2.0 ** (7.0 / Q - 1.0) * (jg[a] * jg[b]) ** (1.0 / (2.0 * Q)) * dist
    return (float(max(np.abs(zb - z).max(), np.abs(tb - t).max())),
            float(np.max(np.abs(jg - cayley.jac_cayley_sphere_arrays(zeta)) / jg)),
            float(np.max(np.abs(cayley.sdist_arrays(zeta[a], zeta[b]) - rhs))))


def intertwining_error(jmax):
    """Largest |c_d 2^((Q-d)/2) lambda_jk(K1^((Q-d)/4)) A_d(j, k) - 1| over d in {2, 4, 8}
    and k <= j <= jmax."""
    worst = 0.0
    for d in (2.0, 4.0, 8.0):
        scale = spectra.c_d(d) * 2.0 ** ((Q - d) / 2.0)
        for j in range(jmax + 1):
            for k in range(j + 1):
                v = scale * spectra.eig_K1(j, k, (Q - d) / 4.0) * spectra.intertwining_spectrum(d, j, k)
                worst = max(worst, abs(v - 1.0))
    return worst


def oracle_error(kind, alpha, jmax):
    """Largest error of the kind's quadrature oracle against its closed form at alpha,
    over the cells k <= j <= jmax (relative, or absolute where the closed form is 0)."""
    return max(err for *_, err in spectra._oracle_cells(kind, alpha, jmax))


def margin_four_term_error(alpha, jmax):
    """Largest |margin - (lambda(K1) + lambda(K2) - lambda(K1^(alpha-1))
    - 2a/(11-a) lambda(K1))| over the sum of the four term sizes, on the margin_table cells
    j <= jmax (which builds those cells only, where bilinear_margin builds a whole block)."""
    worst = 0.0
    for block in spectra.margin_table(alpha, jmax):
        for j, k, margin in zip(*(a.tolist() for a in block)):
            lam1 = spectra.eig_K1(j, k, alpha)
            terms = (lam1, spectra.eig_K2(j, k, alpha), -spectra.eig_K1(j, k, alpha - 1.0),
                     -(2.0 * alpha / (11.0 - alpha)) * lam1)
            total = 0.0 + terms[0] + terms[1] + terms[2] + terms[3]
            scale = sum(map(abs, terms))
            # where all four terms vanish (cells at alpha = 1 and 3) the product must be 0.0
            err = abs(margin - total) / scale if scale else 0.0 if margin == 0.0 else math.inf
            worst = max(worst, err)
    return worst


def log_sobolev_defect(s, jmax):
    """|LHS - RHS| / LHS of functional.log_sobolev_pair at jmax on the endpoint extremizer
    (1 - 2s cos th cos ph + s^2 cos^2 th)^(-Q/4), scaled to the L2 norm of the constant 1."""
    raw = functional.AxisZonalFunction(
        lambda th, ph: (1.0 - 2.0 * s * np.cos(th) * np.cos(ph) + s * s * np.cos(th) ** 2) ** (-Q / 4.0))
    scale = math.sqrt(constants.sphere_measure() / functional.project_bispherical(raw, jmax=0).l2)
    lhs, rhs = functional.log_sobolev_pair(
        functional.AxisZonalFunction(lambda th, ph: scale * raw.profile(th, ph)), jmax=jmax)
    return abs(lhs - rhs) / lhs


def recenter_residual(h, p):
    """(g, |C(g)|): h recentered at exponent p, and the norm of its center of mass."""
    _, g = functional.recenter(h, p)
    return g, float(np.linalg.norm(functional.center_mass(g, p)))
