"""Cayley transform, Jacobians, sphere distance, the extremizer correspondence."""

import math

import mpmath as mp
import numpy as np
import pytest

from octhls import cayley as cy
from octhls import nilgroup as ng
from octhls import octonion as oc
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


def test_extremizer_correspondence():
    # the constant 1 on the sphere, lowered to the group as f(u) = 1(C u) |J_C(u)|^(1/p),
    # is the group extremizer W(u)^(-(2Q - lam)/4) up to the constant 2^((Q-7)/p)
    lam = 16.0
    p = 2.0 * Q / (2.0 * Q - lam)
    rng = np.random.default_rng(13)
    z, t = rand_zt(rng, 10)
    on_sphere = np.ones(cy.cayley_zt(z, t).shape[:-1])
    lowered = on_sphere * cy.jac_cayley_zt(z, t) ** (1.0 / p)
    vals = lowered / W(z, t) ** (-(2 * Q - lam) / 4.0)
    assert np.std(vals) / np.mean(vals) < 1e-12
    assert abs(np.mean(vals) / 2.0 ** ((Q - 7) / p) - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# reference forms: every octonion product written out, as the kernels read
# before their complex-line parts were folded into closed forms


def _one_plus(x, sign=1.0):
    out = sign * x
    out[..., 0] += 1.0
    return out


def ref_sdist(zv, ev):
    """The bracketed definition with the unit phases a, b: seven products."""
    oz, oe = _one_plus(zv[..., 8:]), _one_plus(ev[..., 8:])
    nz, ne = np.linalg.norm(oz, axis=-1)[..., None], np.linalg.norm(oe, axis=-1)[..., None]
    a = oc.conj(oz) / np.where(nz < cy._POLE_EPS, 1.0, nz)
    b = oe / np.where(ne < cy._POLE_EPS, 1.0, ne)
    pair = oc.mul(oc.mul(a, zv[..., :8]), oc.mul(oc.conj(ev[..., :8]), b)) + oc.mul(
        oc.mul(a, zv[..., 8:]), oc.mul(oc.conj(ev[..., 8:]), b)
    )
    d = np.sqrt(np.linalg.norm(oc.mul(a, b) - pair, axis=-1) / 2.0)
    lo, hi = np.minimum(nz, ne)[..., 0], np.maximum(nz, ne)[..., 0]
    return np.where(lo < cy._POLE_EPS, np.sqrt(hi / 2.0), d)


def ref_cayley_zt(z, t):
    """(w^-1 (2z), w^-1 (1 - |z|^2 + t)) with w = 1 + |z|^2 - t: two products."""
    tt = oc.from_im(t)
    z2 = (z * z).sum(axis=-1)
    w = -tt
    w[..., 0] = 1.0 + z2
    winv = oc.conj(w) / (w * w).sum(axis=-1)[..., None]
    tt[..., 0] = 1.0 - z2
    return np.concatenate([oc.mul(winv, 2.0 * z), oc.mul(winv, tt)], axis=-1)


def ref_cayley_inv(v):
    """((1 + zeta2)^-1 zeta1, -Im((1 + zeta2)^-1 (1 - zeta2))): two products."""
    op = _one_plus(v[..., 8:])
    q = oc.conj(op) / (op * op).sum(axis=-1)[..., None]
    return oc.mul(q, v[..., :8]), -oc.mul(q, _one_plus(v[..., 8:], -1.0))[..., 1:]


def _pair_sets(seed, n):
    """Random pairs; pairs near the south pole (group points dilated by 10^3); pairs
    1e-4 apart on the sphere."""
    rng = np.random.default_rng(seed)
    u = cy.cayley_zt(*rand_zt(rng, n))
    v = cy.cayley_zt(*rand_zt(rng, n))
    z, t = rand_zt(rng, n)
    south = cy.cayley_zt(1e3 * z, 1e6 * t)
    near = u + 1e-4 * rng.standard_normal((n, 16)) / 4.0
    near /= np.linalg.norm(near, axis=-1, keepdims=True)
    return {"random": (u, v), "south": (south, v), "near": (u, near)}


# worst |kernel - reference| / reference over five seeds of 2,000 pairs: random 5.8e-16,
# south 2.3e-15, near 3.4e-12 (both forms round at about 1e-12 there, see the 40-digit test)
_SDIST_VS_REF = {"random": 2e-15, "south": 1e-14, "near": 1e-11}


@pytest.mark.parametrize("seed", [31, 32, 33])
def test_sdist_matches_seven_product_form(seed):
    for name, (u, v) in _pair_sets(seed, 2000).items():
        ref = ref_sdist(u, v)
        assert np.max(np.abs(cy.sdist_arrays(u, v) - ref) / ref) < _SDIST_VS_REF[name], name


def test_cayley_maps_match_two_product_forms():
    rng = np.random.default_rng(34)
    z, t = rand_zt(rng, 2000)
    scale = np.exp(rng.uniform(-3.0, 3.0, (2000, 1)))
    z, t = scale * z, scale ** 2 * t
    v = cy.cayley_zt(z, t)
    # measured worst over three seeds: 5.6e-16; z is the same product (0.0), t 4.2e-16 of 1 + |t|
    assert np.max(np.abs(v - ref_cayley_zt(z, t))) < 2e-15
    zb, tb = cy.cayley_inv_arrays(v)
    zr, tr = ref_cayley_inv(v)
    assert np.max(np.abs(zb - zr) / (1.0 + np.abs(zr))) < 2e-15
    assert np.max(np.abs(tb - tr) / (1.0 + np.abs(tr))) < 2e-15


# 40-digit references: the same definitions over mpf, with the product from MULT_TABLE

_TERMS = [(i, j, k, int(oc.MULT_TABLE[i, j, k])) for i, j, k in zip(*np.nonzero(oc.MULT_TABLE))]


def _mp_mul(x, y):
    out = [mp.mpf(0)] * 8
    for i, j, k, sign in _TERMS:
        out[k] += sign * x[i] * y[j]
    return out


def _mp_conj(x):
    return [x[0]] + [-c for c in x[1:]]


def _mp_sdist(zeta, eta):
    zeta, eta = [mp.mpf(float(c)) for c in zeta], [mp.mpf(float(c)) for c in eta]
    p, q = [1 + zeta[8]] + zeta[9:], [1 + eta[8]] + eta[9:]
    a = [c / mp.sqrt(mp.fsum(x * x for x in p)) for c in _mp_conj(p)]
    b = [c / mp.sqrt(mp.fsum(x * x for x in q)) for c in q]
    ab = _mp_mul(a, b)
    for lo, hi in ((0, 8), (8, 16)):
        term = _mp_mul(_mp_mul(a, zeta[lo:hi]), _mp_mul(_mp_conj(eta[lo:hi]), b))
        ab = [x - y for x, y in zip(ab, term)]
    return mp.sqrt(mp.sqrt(mp.fsum(x * x for x in ab)) / 2)


def _mp_cayley(z, t):
    z, t = [mp.mpf(float(c)) for c in z], [mp.mpf(float(c)) for c in t]
    z2 = mp.fsum(c * c for c in z)
    w2 = (1 + z2) ** 2 + mp.fsum(c * c for c in t)
    winv = [(1 + z2) / w2] + [c / w2 for c in t]
    return _mp_mul(winv, [2 * c for c in z]) + _mp_mul(winv, [1 - z2] + t)


def test_sdist_40_digit_reference():
    # worst relative error over 30 pairs each, two seeds (the seven-product form in brackets):
    # random 2.3e-16 (3.0e-16), 1e-4 apart 8.9e-13 (1.0e-12), near the south pole 2.0e-16 (9.3e-16)
    with mp.workdps(40):
        for name, bound in (("random", 1e-15), ("near", 3e-12), ("south", 1e-15)):
            u, v = _pair_sets(35, 30)[name]
            ref = [_mp_sdist(a, b) for a, b in zip(u, v)]
            err = max(abs(g - r) / r for g, r in zip(cy.sdist_arrays(u, v), ref))
            assert err < bound, name


def test_cayley_40_digit_reference():
    # worst absolute error over 30 points, two seeds: 1.9e-16 (two-product form 2.3e-16)
    rng = np.random.default_rng(36)
    z, t = rand_zt(rng, 30)
    got = cy.cayley_zt(z, t)
    with mp.workdps(40):
        err = max(abs(g - r) for row, a, b in zip(got, z, t) for g, r in zip(row, _mp_cayley(a, b)))
    assert err < 1e-15


def test_kernel_product_counts(monkeypatch):
    # three octonion products per distance, one per Cayley map: the others live in a complex line
    calls = []
    mul = oc.mul
    monkeypatch.setattr(oc, "mul", lambda x, y: calls.append(1) or mul(x, y))
    rng = np.random.default_rng(37)
    v = cy.cayley_zt(*rand_zt(rng, 5))
    assert len(calls) == 1
    cy.cayley_inv_arrays(v)
    assert len(calls) == 2
    cy.sdist_arrays(v, v[::-1])
    assert len(calls) == 5
