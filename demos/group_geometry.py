"""Walk through the geometry layer: octonions, the nilpotent group, and
the boundary transform to the sphere.

Run:  python3 demos/group_geometry.py
"""

import numpy as np

from octhls import cayley, nilgroup as ng
from octhls import octonion as oc
from octhls.nilgroup import Q
from octhls.octonion import basis_table_text

rng = np.random.default_rng(0)


def gdist(zu, tu, zv, tv):
    """Left-invariant group distance |v^-1 u|."""
    return ng.hnorm_zt(*ng.gmul_zt(-zv, -tv, zu, tu))


def main():
    print("octonion basis products (row times column):")
    print(basis_table_text())

    x, y = rng.standard_normal((2, 8))
    print("\ncomposition law |xy| - |x||y| =", end=" ")
    print(np.linalg.norm(oc.mul(x, y)) - np.linalg.norm(x) * np.linalg.norm(y))
    z = rng.standard_normal(8)
    assoc = oc.mul(oc.mul(x, y), z) - oc.mul(x, oc.mul(y, z))
    print("associator norm for three generic octonions:", np.linalg.norm(assoc))
    print("(nonzero: the algebra is alternative, not associative)")

    print(f"\nhomogeneous dimension Q = {Q}")
    # three group elements u, v, w as rows: z (3, 8), t (3, 7)
    zs, ts = rng.standard_normal((3, 8)), rng.standard_normal((3, 7))
    (zu, zv, zw), (tu, tv, tw) = zs, ts
    print("d(u, v)                  =", gdist(zu, tu, zv, tv))
    print("d(wu, wv) (left transl.) =", gdist(*ng.gmul_zt(zw, tw, zu, tu), *ng.gmul_zt(zw, tw, zv, tv)))
    delta = 2.0
    print(
        "homogeneity |delta.u| / (delta |u|) =",
        ng.hnorm_zt(delta * zu, delta ** 2 * tu) / (delta * ng.hnorm_zt(zu, tu)),
    )
    zi, ti = ng.inversion_zt(zu, tu)
    print("inversion |u*| |u|        =", ng.hnorm_zt(zi, ti) * ng.hnorm_zt(zu, tu))

    print("\nboundary transform to the unit sphere of R^16 (all three rows at once):")
    zeta = cayley.cayley_zt(zs, ts)
    print("|zeta|^2 =", np.sum(zeta * zeta, axis=1))
    zb, tb = cayley.cayley_inv_arrays(zeta)
    print("round-trip residual =", max(np.abs(zb - zs).max(), np.abs(tb - ts).max()))
    print("Jacobian, group side :", cayley.jac_cayley_zt(zs, ts))
    print("Jacobian, sphere side:", cayley.jac_cayley_sphere_arrays(zeta))

    jac = cayley.jac_cayley_zt(zs, ts)
    lhs = cayley.sdist_arrays(zeta[0], zeta[1])
    rhs = 2.0 ** (7.0 / Q - 1.0) * (jac[0] * jac[1]) ** (1.0 / (2 * Q)) * gdist(zu, tu, zv, tv)
    print("\nexchange of distances:")
    print("  sphere distance          =", lhs)
    print("  weighted group distance  =", rhs)
    print("  residual                 =", abs(lhs - rhs))
    print(
        "(the sphere distance keeps the quotient phases bracketed; with the\n"
        " plain term-by-term pairing the identity fails at the 1e-2 level\n"
        " because octonion multiplication is not associative)"
    )


if __name__ == "__main__":
    main()
