"""Cayley transform, Jacobians, sphere distance, function correspondence."""

import math

import numpy as np
import pytest

from octhls import cayley as cy
from octhls import nilgroup as ng
from octhls.nilgroup import GroupElement, Q


def rand_zt(rng, n):
    return rng.standard_normal((n, 8)), rng.standard_normal((n, 7))


def W(z, t):
    return (1.0 + np.sum(z * z, axis=-1)) ** 2 + np.sum(t * t, axis=-1)


def gdist(zu, tu, zv, tv):
    return ng.hnorm_zt(*ng.gmul_zt(-zv, -tv, zu, tu))


def test_origin_to_north_pole():
    v = cy.cayley_zt(np.zeros(8), np.zeros(7))
    assert np.allclose(v, cy.NORTH_POLE, atol=1e-15)
    assert ng.hnorm_zt(*cy.cayley_inv_arrays(cy.NORTH_POLE)) < 1e-15


def test_unit_norm_invariant():
    rng = np.random.default_rng(0)
    v = cy.cayley_zt(*rand_zt(rng, 50))
    assert np.max(np.abs(np.sum(v * v, axis=1) - 1.0)) < 1e-12


def test_round_trip_both_ways():
    rng = np.random.default_rng(1)
    z, t = rand_zt(rng, 50)
    zeta = cy.cayley_zt(z, t)
    zb, tb = cy.cayley_inv_arrays(zeta)
    assert np.max(np.abs(zb - z)) < 1e-11
    assert np.max(np.abs(tb - t)) < 1e-11
    assert np.max(np.abs(cy.cayley_zt(zb, tb) - zeta)) < 1e-12


def test_south_pole_is_infinity():
    with pytest.raises(ZeroDivisionError):
        cy.cayley_inv_arrays(cy.SOUTH_POLE)
    with pytest.raises(ZeroDivisionError):
        cy.cayley_inv(cy.SOUTH_POLE)


def test_poles_are_read_only():
    with pytest.raises(ValueError):
        cy.NORTH_POLE[8] = 2.0


def test_jacobian_value_at_origin():
    assert abs(cy.jac_cayley_zt(np.zeros(8), np.zeros(7)) - 2.0 ** 15) < 1e-9


def test_jacobian_two_forms_agree():
    rng = np.random.default_rng(2)
    z, t = rand_zt(rng, 50)
    jg = cy.jac_cayley_zt(z, t)
    js = cy.jac_cayley_sphere_arrays(cy.cayley_zt(z, t))
    assert np.max(np.abs(jg - js) / jg) < 1e-10


def test_jacobian_decay_rate():
    rng = np.random.default_rng(3)
    z, t = rand_zt(rng, 1)
    vals = [
        cy.jac_cayley_zt(delta * z, delta ** 2 * t)[0] * delta ** (2 * Q)
        for delta in (10.0, 100.0, 1000.0)
    ]
    # ratio of consecutive values tends to 1 as the dilation grows
    assert abs(vals[0] / vals[1] - 1.0) < 2e-2
    assert abs(vals[1] / vals[2] - 1.0) < 2e-4


def test_sdist_basic():
    rng = np.random.default_rng(4)
    z = cy.cayley_zt(*rand_zt(rng, 1))[0]
    assert cy.sdist_arrays(z, z) < 1e-7  # limited by sqrt of a cancelled difference
    assert abs(cy.sdist_arrays(cy.NORTH_POLE, cy.SOUTH_POLE) - 1.0) < 1e-14
    e = cy.cayley_zt(*rand_zt(rng, 1))[0]
    assert abs(cy.sdist_arrays(z, e) - cy.sdist_arrays(e, z)) < 1e-14


def test_distance_relation():
    rng = np.random.default_rng(5)
    (zu, tu), (zv, tv) = rand_zt(rng, 100), rand_zt(rng, 100)
    lhs = cy.sdist_arrays(cy.cayley_zt(zu, tu), cy.cayley_zt(zv, tv))
    rhs = (
        2.0 ** (7.0 / Q - 1.0)
        * (cy.jac_cayley_zt(zu, tu) * cy.jac_cayley_zt(zv, tv)) ** (1.0 / (2.0 * Q))
        * gdist(zu, tu, zv, tv)
    )
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_distance_relation_explicit_weights():
    rng = np.random.default_rng(6)
    (zu, tu), (zv, tv) = rand_zt(rng, 50), rand_zt(rng, 50)
    lhs = cy.sdist_arrays(cy.cayley_zt(zu, tu), cy.cayley_zt(zv, tv))
    rhs = gdist(zu, tu, zv, tv) / (W(zu, tu) * W(zv, tv)) ** 0.25
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_sdist_zonal_slice_matches_plain_pairing():
    # with one argument at the north pole the phase correction is trivial
    rng = np.random.default_rng(7)
    zv = cy.cayley_zt(rng.standard_normal((20, 8)), rng.standard_normal((20, 7)))
    w = cy.hermitian_pairing(zv, cy.NORTH_POLE)
    w[:, 0] -= 1.0
    plain = np.sqrt(np.linalg.norm(w, axis=1) / 2.0)
    assert np.max(np.abs(cy.sdist_arrays(zv, cy.NORTH_POLE) - plain)) < 1e-14


def test_sdist_arrays_matches_scalar():
    # every row of a batch agrees with the same pair evaluated as single (16,) points
    rng = np.random.default_rng(8)
    pts = cy.cayley_zt(*rand_zt(rng, 40))
    left = np.vstack([pts[:20], cy.NORTH_POLE, cy.SOUTH_POLE, cy.SOUTH_POLE, pts[0], cy.SOUTH_POLE])
    right = np.vstack([pts[20:], cy.SOUTH_POLE, cy.NORTH_POLE, cy.SOUTH_POLE, cy.SOUTH_POLE, pts[1]])
    batch = cy.sdist_arrays(left, right)
    for i in range(len(left)):
        assert abs(batch[i] - cy.sdist_arrays(left[i], right[i])) < 1e-13
    # pole pairs: N/S and S/N at distance 1, S/S at 0, and the continuous limit
    assert batch[20] == batch[21] == 1.0
    assert batch[22] == 0.0
    for i, p in ((23, pts[0]), (24, pts[1])):
        limit = math.sqrt(np.linalg.norm(p[8:] + np.eye(8)[0]) / 2.0)
        assert abs(batch[i] - limit) < 1e-15


def test_scalar_views_are_kernel_rows():
    rng = np.random.default_rng(14)
    z, t = rng.standard_normal((30, 8)), rng.standard_normal((30, 7))
    v = np.vstack([cy.cayley_zt(z, t), cy.NORTH_POLE, cy.SOUTH_POLE])
    zb, tb = cy.cayley_inv_arrays(v[:-1])
    jg = cy.jac_cayley_zt(z, t)
    js = cy.jac_cayley_sphere_arrays(v)
    for i in range(len(v)):
        if i < len(z):
            u = GroupElement.from_arrays(z[i], t[i])
            assert np.array_equal(cy.cayley(u), v[i])
            assert cy.jac_cayley(u) == jg[i]
        if i < len(v) - 1:
            ub = cy.cayley_inv(v[i])
            assert np.array_equal(ub.z.c, zb[i]) and np.array_equal(ub.t.v, tb[i])
        assert cy.jac_cayley_sphere(v[i]) == js[i]
    with pytest.raises(ZeroDivisionError):
        cy.cayley_inv_arrays(v)


def test_one_row_calls_are_batch_rows():
    # a one-row group product or sphere distance is exactly that row of a batch,
    # the poles included
    rng = np.random.default_rng(15)
    z1, t1 = rand_zt(rng, 50)
    z2, t2 = rand_zt(rng, 50)
    zb, tb = ng.gmul_zt(z1, t1, z2, t2)
    u = np.vstack([cy.cayley_zt(*rand_zt(rng, 48)), cy.NORTH_POLE, cy.SOUTH_POLE])
    w = u[::-1]
    db = cy.sdist_arrays(u, w)
    for i in range(50):
        z, t = ng.gmul_zt(z1[i], t1[i], z2[i], t2[i])
        assert np.array_equal(z, zb[i]) and np.array_equal(t, tb[i])
        assert cy.sdist_arrays(u[i], w[i]) == db[i]


def test_triangle_ratio_recorded_not_asserted():
    # descriptive: record the worst triangle ratio without asserting a bound
    rng = np.random.default_rng(9)
    pts = cy.cayley_zt(*rand_zt(rng, 12))
    a, b, c = pts[:10], pts[1:11], pts[2:12]
    ratios = cy.sdist_arrays(a, b) / (cy.sdist_arrays(a, c) + cy.sdist_arrays(c, b))
    assert np.all(np.isfinite(ratios))


def test_lift_preserves_lp_norm_mc():
    lam = 16.0
    p = 2.0 * Q / (2.0 * Q - lam)

    def f(z, t):
        return W(z, t) ** (-(2 * Q - lam) / 4.0)

    ftilde = cy.lift_function(f, p)
    # group-side L^p norm by MC against a gaussian envelope would be noisy;
    # instead use change of variables: int |f|^p du = int |ftilde|^p dzeta,
    # checked by evaluating ftilde at lifted points and comparing pointwise
    # with the quotient rule f(u) = ftilde(C u) jac^{1/p}
    rng = np.random.default_rng(10)
    z, t = rand_zt(rng, 20)
    lowered = ftilde(cy.cayley_zt(z, t)) * cy.jac_cayley_zt(z, t) ** (1.0 / p)
    assert np.max(np.abs(f(z, t) - lowered)) < 1e-12


def test_lift_lower_are_inverse():
    p = 2.2
    rng = np.random.default_rng(11)

    def f(z, t):
        return 1.0 / (1.0 + ng.hnorm_zt(z, t) ** 4)

    g = cy.lower_function(cy.lift_function(f, p), p)
    z, t = rand_zt(rng, 10)
    assert np.max(np.abs(g(z, t) - f(z, t))) < 1e-12


def test_lift_infinite_p_is_composition():
    ftilde = cy.lift_function(ng.hnorm_zt, math.inf)
    rng = np.random.default_rng(12)
    z, t = rand_zt(rng, 10)
    assert np.max(np.abs(ftilde(cy.cayley_zt(z, t)) - ng.hnorm_zt(z, t))) < 1e-11


def test_extremizer_correspondence():
    # lifting the constant 1 on the sphere gives the group profile
    # W(u)^{-(2Q - lam)/4} up to the constant 2^{(Q-7)/p}
    lam = 16.0
    p = 2.0 * Q / (2.0 * Q - lam)
    one = cy.lower_function(lambda v: np.ones(v.shape[:-1]), p)
    rng = np.random.default_rng(13)
    z, t = rand_zt(rng, 10)
    vals = one(z, t) / W(z, t) ** (-(2 * Q - lam) / 4.0)
    assert np.std(vals) / np.mean(vals) < 1e-12


def test_invalid_exponent():
    with pytest.raises(ValueError):
        cy.lift_function(lambda z, t: 1.0, 1.0)
    with pytest.raises(ValueError):
        cy.lower_function(lambda v: 1.0, 0.5)
