"""Cayley transform, Jacobians, sphere distance, function correspondence."""

import math

import numpy as np
import pytest

from octhls import cayley as cy
from octhls import nilgroup as ng
from octhls.nilgroup import GroupElement, Q
from octhls.octonion import ImOctonion, Octonion


def rand_elt(rng):
    return GroupElement.from_arrays(rng.standard_normal(8), rng.standard_normal(7))


def W(u):
    return (1.0 + u.z.norm() ** 2) ** 2 + u.t.norm() ** 2


def test_origin_to_north_pole():
    z = cy.cayley(GroupElement.identity())
    assert np.allclose(z.as_vector(), cy.NORTH_POLE.as_vector(), atol=1e-15)
    u = cy.cayley_inv(cy.NORTH_POLE)
    assert ng.hnorm(u) < 1e-15


def test_unit_norm_invariant():
    rng = np.random.default_rng(0)
    for _ in range(50):
        z = cy.cayley(rand_elt(rng))
        assert abs(z.zeta1.norm() ** 2 + z.zeta2.norm() ** 2 - 1.0) < 1e-12


def test_sphere_point_validation():
    with pytest.raises(ValueError):
        cy.SpherePoint(Octonion.unit(0), Octonion.unit(0))


def test_round_trip_both_ways():
    rng = np.random.default_rng(1)
    for _ in range(50):
        u = rand_elt(rng)
        ub = cy.cayley_inv(cy.cayley(u))
        assert np.max(np.abs(ub.z.c - u.z.c)) < 1e-11
        assert np.max(np.abs(ub.t.v - u.t.v)) < 1e-11
        zeta = cy.cayley(u)
        zb = cy.cayley(cy.cayley_inv(zeta))
        assert np.max(np.abs(zb.as_vector() - zeta.as_vector())) < 1e-12


def test_south_pole_is_infinity():
    with pytest.raises(ZeroDivisionError):
        cy.cayley_inv(cy.SOUTH_POLE)


def test_jacobian_value_at_origin():
    assert abs(cy.jac_cayley(GroupElement.identity()) - 2.0 ** 15) < 1e-9


def test_jacobian_two_forms_agree():
    rng = np.random.default_rng(2)
    for _ in range(50):
        u = rand_elt(rng)
        jg = cy.jac_cayley(u)
        js = cy.jac_cayley_sphere(cy.cayley(u))
        assert abs(jg - js) / jg < 1e-10


def test_jacobian_decay_rate():
    rng = np.random.default_rng(3)
    u = rand_elt(rng)
    vals = []
    for delta in (10.0, 100.0, 1000.0):
        vals.append(cy.jac_cayley(ng.dilate(delta, u)) * delta ** (2 * Q))
    # ratio of consecutive values tends to 1 as the dilation grows
    assert abs(vals[0] / vals[1] - 1.0) < 2e-2
    assert abs(vals[1] / vals[2] - 1.0) < 2e-4


def test_sdist_basic():
    rng = np.random.default_rng(4)
    z = cy.cayley(rand_elt(rng))
    assert cy.sdist(z, z) < 1e-7  # limited by sqrt of a cancelled difference
    assert abs(cy.sdist(cy.NORTH_POLE, cy.SOUTH_POLE) - 1.0) < 1e-14
    e = cy.cayley(rand_elt(rng))
    assert abs(cy.sdist(z, e) - cy.sdist(e, z)) < 1e-14


def test_distance_relation():
    rng = np.random.default_rng(5)
    for _ in range(100):
        u, v = rand_elt(rng), rand_elt(rng)
        lhs = cy.sdist(cy.cayley(u), cy.cayley(v))
        rhs = (
            2.0 ** (7.0 / Q - 1.0)
            * (cy.jac_cayley(u) * cy.jac_cayley(v)) ** (1.0 / (2.0 * Q))
            * ng.gdist(u, v)
        )
        assert abs(lhs - rhs) < 1e-12


def test_distance_relation_explicit_weights():
    rng = np.random.default_rng(6)
    for _ in range(50):
        u, v = rand_elt(rng), rand_elt(rng)
        lhs = cy.sdist(cy.cayley(u), cy.cayley(v))
        rhs = ng.gdist(u, v) / (W(u) * W(v)) ** 0.25
        assert abs(lhs - rhs) < 1e-12


def test_sdist_zonal_slice_matches_plain_pairing():
    # with one argument at the north pole the phase correction is trivial
    rng = np.random.default_rng(7)
    zv = cy.cayley_zt(rng.standard_normal((20, 8)), rng.standard_normal((20, 7)))
    w = cy.hermitian_pairing(zv, cy.NORTH_POLE.as_vector())
    w[:, 0] -= 1.0
    plain = np.sqrt(np.linalg.norm(w, axis=1) / 2.0)
    assert np.max(np.abs(cy.sdist_arrays(zv, cy.NORTH_POLE.as_vector()) - plain)) < 1e-14


def test_sdist_arrays_matches_scalar():
    rng = np.random.default_rng(8)
    pts = [cy.cayley(rand_elt(rng)) for _ in range(40)]
    left = pts[:20] + [cy.NORTH_POLE, cy.SOUTH_POLE, cy.SOUTH_POLE, pts[0], cy.SOUTH_POLE]
    right = pts[20:] + [cy.SOUTH_POLE, cy.NORTH_POLE, cy.SOUTH_POLE, cy.SOUTH_POLE, pts[1]]
    batch = cy.sdist_arrays(
        np.array([p.as_vector() for p in left]), np.array([p.as_vector() for p in right])
    )
    for i in range(len(left)):
        assert abs(batch[i] - cy.sdist(left[i], right[i])) < 1e-13
    # pole pairs: N/S and S/N at distance 1, S/S at 0, and the continuous limit
    assert batch[20] == batch[21] == 1.0
    assert batch[22] == 0.0
    for i, p in ((23, pts[0]), (24, pts[1])):
        limit = math.sqrt(np.linalg.norm(p.as_vector()[8:] + np.eye(8)[0]) / 2.0)
        assert abs(batch[i] - limit) < 1e-15


def test_scalar_views_are_kernel_rows():
    rng = np.random.default_rng(14)
    z, t = rng.standard_normal((30, 8)), rng.standard_normal((30, 7))
    v = np.vstack([cy.cayley_zt(z, t), cy.NORTH_POLE.as_vector(), cy.SOUTH_POLE.as_vector()])
    zb, tb = cy.cayley_inv_arrays(v[:-1])
    jg = cy.jac_cayley_zt(z, t)
    js = cy.jac_cayley_sphere_arrays(v)
    ds = cy.sdist_arrays(v, v[::-1])
    points = [cy.SpherePoint.from_vector(row) for row in v]
    for i in range(len(v)):
        if i < len(z):
            u = GroupElement.from_arrays(z[i], t[i])
            assert np.array_equal(cy.cayley(u).as_vector(), v[i])
            assert cy.jac_cayley(u) == jg[i]
        if i < len(v) - 1:
            ub = cy.cayley_inv(points[i])
            assert np.array_equal(ub.z.c, zb[i]) and np.array_equal(ub.t.v, tb[i])
        assert cy.jac_cayley_sphere(points[i]) == js[i]
        assert cy.sdist(points[i], points[-1 - i]) == ds[i]
    with pytest.raises(ZeroDivisionError):
        cy.cayley_inv_arrays(v)


def test_triangle_ratio_recorded_not_asserted():
    # descriptive: record the worst triangle ratio without asserting a bound
    rng = np.random.default_rng(9)
    pts = [cy.cayley(rand_elt(rng)) for _ in range(12)]
    ratios = []
    for a in range(10):
        d_ab = cy.sdist(pts[a], pts[a + 1])
        d_ac = cy.sdist(pts[a], pts[a + 2])
        d_cb = cy.sdist(pts[a + 2], pts[a + 1])
        ratios.append(d_ab / (d_ac + d_cb))
    assert all(np.isfinite(ratios))


def test_lift_preserves_lp_norm_mc():
    lam = 16.0
    p = 2.0 * Q / (2.0 * Q - lam)

    def f(u):
        return ((1.0 + u.z.norm() ** 2) ** 2 + u.t.norm() ** 2) ** (-(2 * Q - lam) / 4.0)

    ftilde = cy.lift_function(f, p)
    # group-side L^p norm by MC against a gaussian envelope would be noisy;
    # instead use change of variables: int |f|^p du = int |ftilde|^p dzeta,
    # checked by evaluating ftilde at lifted points and comparing pointwise
    # with the quotient rule f(u) = ftilde(C u) jac^{1/p}
    rng = np.random.default_rng(10)
    for _ in range(20):
        u = rand_elt(rng)
        assert abs(f(u) - ftilde(cy.cayley(u)) * cy.jac_cayley(u) ** (1.0 / p)) < 1e-12


def test_lift_lower_are_inverse():
    p = 2.2
    rng = np.random.default_rng(11)

    def f(u):
        return 1.0 / (1.0 + ng.hnorm(u) ** 4)

    g = cy.lower_function(cy.lift_function(f, p), p)
    for _ in range(10):
        u = rand_elt(rng)
        assert abs(g(u) - f(u)) < 1e-12


def test_lift_infinite_p_is_composition():
    def f(u):
        return ng.hnorm(u)

    ftilde = cy.lift_function(f, math.inf)
    rng = np.random.default_rng(12)
    u = rand_elt(rng)
    assert abs(ftilde(cy.cayley(u)) - ng.hnorm(u)) < 1e-11


def test_extremizer_correspondence():
    # lifting the constant 1 on the sphere gives the group profile
    # W(u)^{-(2Q - lam)/4} up to the constant 2^{(Q-7)/p}
    lam = 16.0
    p = 2.0 * Q / (2.0 * Q - lam)
    one = cy.lower_function(lambda zeta: 1.0, p)
    rng = np.random.default_rng(13)
    vals = []
    for _ in range(10):
        u = rand_elt(rng)
        vals.append(one(u) / W(u) ** (-(2 * Q - lam) / 4.0))
    assert np.std(vals) / np.mean(vals) < 1e-12


def test_invalid_exponent():
    with pytest.raises(ValueError):
        cy.lift_function(lambda u: 1.0, 1.0)
    with pytest.raises(ValueError):
        cy.lower_function(lambda z: 1.0, 0.5)
