"""geometry: octonions, the group, the boundary transform and Monte Carlo.

Batches of ``ROWS`` random rows, drawn from the seed:

* octonion laws: norm multiplicativity, Moufang, left and right
  alternativity, scale-relative, to 1e-12;
* group law: associativity, inverse, left-invariance of the distance
  and ``hnorm_zt`` homogeneity, to 1e-12;
* distance exchange identity: ``sdist_arrays`` on Cayley images equals
  2^(7/Q-1) (J(u) J(v))^(1/2Q) |v^-1 u|, with the group distance from
  ``gmul_zt``/``hnorm_zt``, to 1e-10 (the batched Cayley transform is
  written here with ``octonion.mul``, as in the acceptance test);
* ``hls_mc`` at lambda = 6 with ``MC_SAMPLES`` samples for f = g = 1
  lies within ``MC_SIGMAS`` batch standard errors of
  |S| 2^(lambda/2) lambda_00(lambda/4) (mpmath);
* ``center_mass_mc`` of an off-centre extremizer lies within
  ``MC_SIGMAS`` standard errors of ``center_mass`` (the error bound
  is sqrt(|S| int h^2p / n), computed here by quadrature);
* the scalar ``cayley``/``cayley_inv`` round trip (1e-11) and
  ``jac_cayley``/``jac_cayley_sphere`` duality (1e-10) over
  ``SCALAR_POINTS`` points.
"""

from __future__ import annotations

import functools
import math

import numpy as np

import reference as ref
from workloads import Op, below, first, p_of, sphere_grid, unit_vector

Q = 22
ROWS = 100_000
MC_LAMBDA, MC_SAMPLES, MC_SIGMAS = 6.0, 100_000, 5.0
CM_RHO, CM_LAMBDA = 0.3, 16.0
SCALAR_POINTS = 2000


def make_inputs(seed):
    from octhls import functional as fn

    rng = np.random.default_rng([seed, 3])
    n = ROWS
    h = fn.extremizer_profile(fn.ExtremizerParams(xi=CM_RHO * unit_vector(rng), lam=CM_LAMBDA))
    TH, PH, W = sphere_grid()
    p = p_of(CM_LAMBDA)
    cm_sigma = math.sqrt(ref.sphere_measure() * float(np.sum(W * h.profile(TH, PH) ** (2 * p))) / n)
    return {
        "xya": rng.standard_normal((3, n, 8)),
        "z": rng.standard_normal((3, n, 8)),
        "t": rng.standard_normal((3, n, 7)),
        "delta": float(rng.uniform(0.5, 4.0)),
        "pair_z": rng.standard_normal((2, n, 8)),
        "pair_t": rng.standard_normal((2, n, 7)),
        "mc_seed": int(rng.integers(2 ** 31)),
        "one": fn.AxisZonalFunction(lambda th, ph: np.ones_like(th)),
        "h": h,
        "cm_sigma": cm_sigma,
        "scalar_z": rng.standard_normal((SCALAR_POINTS, 8)),
        "scalar_t": rng.standard_normal((SCALAR_POINTS, 7)),
    }


@functools.cache
def references():
    return {"hls_one": ref.hls_constant_pair(MC_LAMBDA)}


def _octonion_laws(x, y, a):
    from octhls import octonion as oc

    xy = oc.mul(x, y)
    return {
        "xy": xy,
        "a(xy)a": oc.mul(oc.mul(a, xy), a),
        "(ax)(ya)": oc.mul(oc.mul(a, x), oc.mul(y, a)),
        "x(xy)": oc.mul(x, xy),
        "(xx)y": oc.mul(oc.mul(x, x), y),
        "(yx)x": oc.mul(oc.mul(y, x), x),
        "y(xx)": oc.mul(y, oc.mul(x, x)),
    }


def _check_laws(x, y, a):
    nx, ny, na = (np.linalg.norm(v, axis=1) for v in (x, y, a))
    scale = 1.0 / (nx * ny)

    def check(r):
        def dev(u, v, s):
            return float((np.linalg.norm(r[u] - r[v], axis=1) * s).max())

        comp = float(np.abs(np.linalg.norm(r["xy"], axis=1) * scale - 1.0).max())
        return first(
            below("norm multiplicativity", comp, 1e-12),
            below("Moufang", dev("a(xy)a", "(ax)(ya)", scale / na ** 2), 1e-12),
            below("left alternativity", dev("x(xy)", "(xx)y", scale / nx), 1e-12),
            below("right alternativity", dev("(yx)x", "y(xx)", scale / nx), 1e-12),
        )

    return check


def _group_law(z, t, delta):
    from octhls import nilgroup as ng

    z12, t12 = ng.gmul_zt(z[0], t[0], z[1], t[1])
    z23, t23 = ng.gmul_zt(z[1], t[1], z[2], t[2])
    zw0, tw0 = ng.gmul_zt(z[2], t[2], z[0], t[0])
    zw1, tw1 = ng.gmul_zt(z[2], t[2], z[1], t[1])
    return {
        "(uv)w": ng.gmul_zt(z12, t12, z[2], t[2]),
        "u(vw)": ng.gmul_zt(z[0], t[0], z23, t23),
        "u u^-1": ng.gmul_zt(z[0], t[0], -z[0], -t[0]),
        "d(u,v)": ng.hnorm_zt(*ng.gmul_zt(-z[1], -t[1], z[0], t[0])),
        "d(wu,wv)": ng.hnorm_zt(*ng.gmul_zt(-zw1, -tw1, zw0, tw0)),
        "|u|": ng.hnorm_zt(z[0], t[0]),
        "|delta u|": ng.hnorm_zt(delta * z[0], delta ** 2 * t[0]),
    }


def _check_group(t, delta):
    def check(r):
        (za, ta), (zb, tb) = r["(uv)w"], r["u(vw)"]
        sc = 1.0 + np.abs(ta).max(axis=1)
        assoc = max(np.abs(za - zb).max(), (np.abs(ta - tb).max(axis=1) / sc).max())
        zi, ti = r["u u^-1"]
        inv = max(np.abs(zi).max(), (np.abs(ti).max(axis=1) / (1.0 + np.abs(t[0]).max(axis=1))).max())
        d0, d1 = r["d(u,v)"], r["d(wu,wv)"]
        linv = np.abs(d0 - d1).max() / max(d0.max(), 1.0)
        hom = np.abs(r["|delta u|"] - delta * r["|u|"]).max() / (delta * r["|u|"]).max()
        return first(
            below("associativity", float(assoc), 1e-12),
            below("inverse", float(inv), 1e-12),
            below("left invariance", float(linv), 1e-12),
            below("homogeneity", float(hom), 1e-12),
        )

    return check


def _cayley_images(z, t):
    """Batched boundary transform C(z, t) = (w^-1 (2z), w^-1 (1 - |z|^2 + t)), w = 1 + |z|^2 - t."""
    from octhls import octonion as oc

    z2 = np.sum(z * z, axis=-1, keepdims=True)
    w = np.concatenate([1.0 + z2, -t], axis=-1)
    winv = oc.conj(w) / np.sum(w * w, axis=-1, keepdims=True)
    nu = np.concatenate([1.0 - z2, t], axis=-1)
    return np.concatenate([oc.mul(winv, 2.0 * z), oc.mul(winv, nu)], axis=-1)


def _exchange(z, t):
    from octhls import cayley
    from octhls import nilgroup as ng

    ds = cayley.sdist_arrays(_cayley_images(z[0], t[0]), _cayley_images(z[1], t[1]))
    dg = ng.hnorm_zt(*ng.gmul_zt(-z[1], -t[1], z[0], t[0]))
    return ds, dg


def _check_exchange(z, t):
    w = (1.0 + np.sum(z * z, axis=-1)) ** 2 + np.sum(t * t, axis=-1)
    jac = 2.0 ** (Q - 7) * w ** (-Q / 2.0)
    factor = 2.0 ** (7.0 / Q - 1.0) * (jac[0] * jac[1]) ** (1.0 / (2 * Q))

    def check(r):
        ds, dg = r
        return below("exchange identity", float(np.abs(ds - factor * dg).max()), 1e-10)

    return check


def _scalar_round_trip(zs, ts):
    from octhls import cayley, nilgroup

    rt = np.empty(len(zs))
    jac = np.empty(len(zs))
    for i in range(len(zs)):
        u = nilgroup.GroupElement.from_arrays(zs[i], ts[i])
        zeta = cayley.cayley(u)
        back = cayley.cayley_inv(zeta)
        rt[i] = max(np.abs(back.z.c - u.z.c).max(), np.abs(back.t.v - u.t.v).max())
        jg = cayley.jac_cayley(u)
        jac[i] = abs(jg - cayley.jac_cayley_sphere(zeta)) / jg
    return rt, jac


def operations(inputs, refs, trace_dir=None):
    from octhls import functional as fn

    x, y, a = inputs["xya"]
    z, t, delta = inputs["z"], inputs["t"], inputs["delta"]
    pz, pt = inputs["pair_z"], inputs["pair_t"]
    h, p = inputs["h"], p_of(CM_LAMBDA)

    def mc_check(r):
        est, err = r
        off = abs(est - refs["hls_one"]) / err
        return None if off <= MC_SIGMAS else f"hls_mc {off:.2f} standard errors off"

    def cm_check(r):
        mc, quad = r
        off = float(np.linalg.norm(mc - quad)) / inputs["cm_sigma"]
        return None if off <= MC_SIGMAS else f"centre of mass {off:.2f} standard errors off"

    return [
        Op("octonion laws", lambda: _octonion_laws(x, y, a), _check_laws(x, y, a)),
        Op("group law", lambda: _group_law(z, t, delta), _check_group(t, delta)),
        Op("exchange identity", lambda: _exchange(pz, pt), _check_exchange(pz, pt)),
        Op("hls_mc", lambda: fn.hls_mc(inputs["one"], inputs["one"], MC_LAMBDA, MC_SAMPLES,
                                       inputs["mc_seed"]), mc_check),
        Op("center_mass_mc", lambda: (fn.center_mass_mc(h, p, ROWS, inputs["mc_seed"]),
                                      fn.center_mass(h, p)), cm_check),
        Op("scalar round trip", lambda: _scalar_round_trip(inputs["scalar_z"], inputs["scalar_t"]),
           lambda r: first(below("round trip", float(r[0].max()), 1e-11),
                           below("Jacobian duality", float(r[1].max()), 1e-10))),
    ]
