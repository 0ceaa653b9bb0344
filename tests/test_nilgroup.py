"""Group law, homogeneous norm, distance, dilations, inversion."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from octhls import nilgroup as ng
from octhls import octonion as oc
from octhls.nilgroup import Q


def rand_zt(rng, n):
    return rng.standard_normal((n, 8)), rng.standard_normal((n, 7))


def rand_dilated_zt(seed, n):
    """n rows of (z, t) dilated by scales spread over 10^-2 .. 10^2: z ~ d, t ~ d^2."""
    rng = np.random.default_rng(seed)
    z, t = rand_zt(rng, n)
    d = 10.0 ** rng.uniform(-2.0, 2.0, (n, 1))
    return d * z, d * d * t


def rownorm(x):
    return np.linalg.norm(x, axis=-1)


#: batch sizes past the octonion product's row block, so its blocked path runs
BLOCKED_BATCHES = st.integers(oc._BLOCK + 1, 3 * oc._BLOCK)


def gdist(zu, tu, zv, tv):
    """Left-invariant distance |v^-1 u|."""
    return ng.hnorm_zt(*ng.gmul_zt(-zv, -tv, zu, tu))


def test_homogeneous_dimension():
    assert Q == 22


def test_identity_and_inverse():
    rng = np.random.default_rng(0)
    z, t = rand_zt(rng, 20)
    e, f = np.zeros(8), np.zeros(7)
    for w_z, w_t in (ng.gmul_zt(z, t, e, f), ng.gmul_zt(e, f, z, t)):
        assert np.max(np.abs(w_z - z)) < 1e-14
        assert np.max(np.abs(w_t - t)) < 1e-14
    # the distance is a fourth root, so cancellation roundoff in the
    # cross term surfaces at the 1e-8 scale even for equal arguments
    assert np.max(gdist(z, t, z, t)) < 1e-7
    assert np.max(ng.hnorm_zt(*ng.gmul_zt(z, t, -z, -t))) < 1e-7
    assert np.max(ng.hnorm_zt(*ng.gmul_zt(-z, -t, z, t))) < 1e-7


def test_associativity():
    # the group is associative even though octonion multiplication is not:
    # the cross term only involves Im(z zbar'), bilinear in two elements
    rng = np.random.default_rng(1)
    z, t = rng.standard_normal((3, 50, 8)), rng.standard_normal((3, 50, 7))
    a = ng.gmul_zt(*ng.gmul_zt(z[0], t[0], z[1], t[1]), z[2], t[2])
    b = ng.gmul_zt(z[0], t[0], *ng.gmul_zt(z[1], t[1], z[2], t[2]))
    assert np.max(np.abs(a[0] - b[0])) < 1e-12
    assert np.max(np.abs(a[1] - b[1])) < 1e-12


def test_hnorm_examples():
    assert abs(ng.hnorm_zt(np.zeros(8), np.r_[3.0, np.zeros(6)]) - np.sqrt(3.0)) < 1e-14
    assert abs(ng.hnorm_zt(np.r_[2.0, np.zeros(7)], np.zeros(7)) - 2.0) < 1e-14


def test_gdist_closed_form():
    rng = np.random.default_rng(2)
    zu, tu = rand_zt(rng, 30)
    zv, tv = rand_zt(rng, 30)
    cross = tu - tv + 2.0 * oc.mul(zu, oc.conj(zv))[..., 1:]
    closed = (np.sum((zu - zv) ** 2, axis=1) ** 2 + np.sum(cross ** 2, axis=1)) ** 0.25
    assert np.max(np.abs(gdist(zu, tu, zv, tv) - closed)) < 1e-12
    assert np.max(np.abs(gdist(zu, tu, zv, tv) - gdist(zv, tv, zu, tu))) < 1e-12


def test_left_invariance():
    rng = np.random.default_rng(3)
    (zu, tu), (zv, tv), (zw, tw) = (rand_zt(rng, 30) for _ in range(3))
    d0 = gdist(zu, tu, zv, tv)
    d1 = gdist(*ng.gmul_zt(zw, tw, zu, tu), *ng.gmul_zt(zw, tw, zv, tv))
    assert np.all(np.abs(d0 - d1) < 1e-11 * np.maximum(1.0, d0))


def test_dilation_homogeneity():
    rng = np.random.default_rng(4)
    for delta in (0.25, 1.0, 7.5):
        z, t = rand_zt(rng, 10)
        r = ng.hnorm_zt(z, t)
        assert np.all(
            np.abs(ng.hnorm_zt(delta * z, delta ** 2 * t) - delta * r) < 1e-12 * np.maximum(1.0, r)
        )


def test_dilation_is_automorphism():
    rng = np.random.default_rng(5)
    delta = 2.5
    (zu, tu), (zv, tv) = rand_zt(rng, 10), rand_zt(rng, 10)
    za, ta = ng.gmul_zt(zu, tu, zv, tv)
    zb, tb = ng.gmul_zt(delta * zu, delta ** 2 * tu, delta * zv, delta ** 2 * tv)
    assert np.max(np.abs(delta * za - zb)) < 1e-12
    assert np.max(np.abs(delta ** 2 * ta - tb)) < 1e-12


def test_inversion_norm_reciprocal():
    rng = np.random.default_rng(7)
    z, t = rand_zt(rng, 20)
    assert np.max(np.abs(ng.hnorm_zt(*ng.inversion_zt(z, t)) * ng.hnorm_zt(z, t) - 1.0)) < 1e-11


def test_inversion_involution():
    rng = np.random.default_rng(8)
    z, t = rand_zt(rng, 20)
    zw, tw = ng.inversion_zt(*ng.inversion_zt(z, t))
    assert np.max(np.abs(zw - z)) < 1e-10
    assert np.max(np.abs(tw - t)) < 1e-10


def test_inversion_is_right_division():
    # z' = -z (|z|^2 - t)^-1, so z' (|z|^2 - t) = -z by the inverse property
    rng = np.random.default_rng(10)
    z, t = rand_zt(rng, 200)
    zi, ti = ng.inversion_zt(z, t)
    w = -oc.from_im(t)
    w[:, 0] = np.sum(z * z, axis=1)
    assert np.max(np.abs(oc.mul(zi, w) + z)) < 1e-12 * np.max(np.abs(z))
    r4 = np.sum(z * z, axis=1) ** 2 + np.sum(t * t, axis=1)
    assert np.max(np.abs(ti * r4[:, None] + t)) < 1e-12 * np.max(np.abs(t))
    # one row and a batch give the same numbers
    z0, t0 = ng.inversion_zt(z[0], t[0])
    assert np.array_equal(z0, zi[0]) and np.array_equal(t0, ti[0])


def test_inversion_pole_at_identity():
    z, t = np.zeros((3, 8)), np.zeros((3, 7))
    z[0, 2] = 1.0
    with pytest.raises(ZeroDivisionError):
        ng.inversion_zt(z, t)
    with pytest.raises(ZeroDivisionError):
        ng.inversion_zt(np.zeros(8), np.zeros(7))


# ---------------------------------------------------------------------------
# the group laws on batches of more than one octonion row block; each
# residual is relative to the scale of its terms


@settings(max_examples=10, deadline=None, derandomize=True)
@given(n=BLOCKED_BATCHES, seed=st.integers(0, 2 ** 32 - 1))
def test_group_product_associative_with_inverse(n, seed):
    (z0, t0), (z1, t1), (z2, t2) = (rand_dilated_zt([seed, i], n) for i in range(3))
    za, ta = ng.gmul_zt(*ng.gmul_zt(z0, t0, z1, t1), z2, t2)
    zb, tb = ng.gmul_zt(z0, t0, *ng.gmul_zt(z1, t1, z2, t2))
    lz = rownorm(z0) + rownorm(z1) + rownorm(z2)
    lt = rownorm(t0) + rownorm(t1) + rownorm(t2) + 2.0 * (
        rownorm(z0) * rownorm(z1) + rownorm(z0) * rownorm(z2) + rownorm(z1) * rownorm(z2)
    )
    assert (rownorm(za - zb) / lz).max() < 1e-12
    assert (rownorm(ta - tb) / lt).max() < 1e-12
    # (-z, -t) is a two-sided inverse: z cancels exactly, t to the scale |z|^2 + |t|
    for zi, ti in (ng.gmul_zt(z0, t0, -z0, -t0), ng.gmul_zt(-z0, -t0, z0, t0)):
        assert not zi.any()
        assert (rownorm(ti) / (rownorm(z0) ** 2 + rownorm(t0))).max() < 1e-12


@settings(max_examples=10, deadline=None, derandomize=True)
@given(n=BLOCKED_BATCHES, seed=st.integers(0, 2 ** 32 - 1))
def test_distance_left_invariant(n, seed):
    (zu, tu), (zv, tv), (zw, tw) = (rand_zt(np.random.default_rng([seed, i]), n) for i in range(3))
    d0 = gdist(zu, tu, zv, tv)
    d1 = gdist(*ng.gmul_zt(zw, tw, zu, tu), *ng.gmul_zt(zw, tw, zv, tv))
    assert (np.abs(d1 - d0) / np.maximum(1.0, d0)).max() < 1e-11


@settings(max_examples=10, deadline=None, derandomize=True)
@given(
    n=BLOCKED_BATCHES,
    seed=st.integers(0, 2 ** 32 - 1),
    delta=st.floats(1e-3, 1e3, allow_nan=False, allow_infinity=False),
)
def test_norm_homogeneous_under_dilation(n, seed, delta):
    z, t = rand_dilated_zt(seed, n)
    r = ng.hnorm_zt(z, t)
    assert (np.abs(ng.hnorm_zt(delta * z, delta ** 2 * t) / (delta * r) - 1.0)).max() < 1e-12


@settings(max_examples=10, deadline=None, derandomize=True)
@given(n=BLOCKED_BATCHES, seed=st.integers(0, 2 ** 32 - 1))
def test_inversion_maps_norm_to_reciprocal(n, seed):
    z, t = rand_dilated_zt(seed, n)
    r = ng.hnorm_zt(z, t)
    assert (np.abs(ng.hnorm_zt(*ng.inversion_zt(z, t)) * r - 1.0)).max() < 1e-12
