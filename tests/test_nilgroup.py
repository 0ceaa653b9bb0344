"""Group law, homogeneous norm, distance, dilations, inversion."""

import numpy as np
import pytest

from octhls import nilgroup as ng
from octhls.nilgroup import GroupElement, Q
from octhls.octonion import ImOctonion, Octonion


def rand_elt(rng):
    return GroupElement.from_arrays(rng.standard_normal(8), rng.standard_normal(7))


def test_homogeneous_dimension():
    assert Q == 22


def test_identity_and_inverse():
    rng = np.random.default_rng(0)
    e = GroupElement.identity()
    for _ in range(20):
        u = rand_elt(rng)
        for w in (ng.gmul(u, e), ng.gmul(e, u)):
            assert np.max(np.abs(w.z.c - u.z.c)) < 1e-14
            assert np.max(np.abs(w.t.v - u.t.v)) < 1e-14
        # the distance is a fourth root, so cancellation roundoff in the
        # cross term surfaces at the 1e-8 scale even for equal arguments
        assert ng.gdist(u, u) < 1e-7
        assert ng.hnorm(ng.gmul(u, ng.ginv(u))) < 1e-7
        assert ng.hnorm(ng.gmul(ng.ginv(u), u)) < 1e-7


def test_associativity():
    # the group is associative even though octonion multiplication is not:
    # the cross term only involves Im(z zbar'), bilinear in two elements
    rng = np.random.default_rng(1)
    for _ in range(50):
        u, v, w = (rand_elt(rng) for _ in range(3))
        a = ng.gmul(ng.gmul(u, v), w)
        b = ng.gmul(u, ng.gmul(v, w))
        assert np.max(np.abs(a.z.c - b.z.c)) < 1e-12
        assert np.max(np.abs(a.t.v - b.t.v)) < 1e-12


def test_hnorm_examples():
    t = ImOctonion(np.r_[3.0, np.zeros(6)])
    assert abs(ng.hnorm(GroupElement(Octonion.zero(), t)) - np.sqrt(3.0)) < 1e-14
    z = Octonion(np.r_[2.0, np.zeros(7)])
    assert abs(ng.hnorm(GroupElement(z, ImOctonion.zero())) - 2.0) < 1e-14


def test_gdist_closed_form():
    rng = np.random.default_rng(2)
    for _ in range(30):
        u, v = rand_elt(rng), rand_elt(rng)
        tv = u.t.v - v.t.v + 2.0 * (u.z * v.z.conj()).im().v
        closed = ((u.z - v.z).norm() ** 4 + float(tv @ tv)) ** 0.25
        assert abs(ng.gdist(u, v) - closed) < 1e-12
        assert abs(ng.gdist(u, v) - ng.gdist(v, u)) < 1e-12


def test_left_invariance():
    rng = np.random.default_rng(3)
    for _ in range(30):
        u, v, w = (rand_elt(rng) for _ in range(3))
        d0 = ng.gdist(u, v)
        d1 = ng.gdist(ng.gmul(w, u), ng.gmul(w, v))
        assert abs(d0 - d1) < 1e-11 * max(1.0, d0)


def test_dilation_homogeneity():
    rng = np.random.default_rng(4)
    for delta in (0.25, 1.0, 7.5):
        for _ in range(10):
            u = rand_elt(rng)
            assert abs(ng.hnorm(ng.dilate(delta, u)) - delta * ng.hnorm(u)) < 1e-12 * max(
                1.0, ng.hnorm(u)
            )


def test_dilation_is_automorphism():
    rng = np.random.default_rng(5)
    delta = 2.5
    for _ in range(10):
        u, v = rand_elt(rng), rand_elt(rng)
        a = ng.dilate(delta, ng.gmul(u, v))
        b = ng.gmul(ng.dilate(delta, u), ng.dilate(delta, v))
        assert np.max(np.abs(a.z.c - b.z.c)) < 1e-12
        assert np.max(np.abs(a.t.v - b.t.v)) < 1e-12


def test_inversion_norm_reciprocal():
    rng = np.random.default_rng(7)
    for _ in range(20):
        u = rand_elt(rng)
        s = ng.inversion(u)
        assert abs(ng.hnorm(s) * ng.hnorm(u) - 1.0) < 1e-11


def test_inversion_involution():
    rng = np.random.default_rng(8)
    for _ in range(20):
        u = rand_elt(rng)
        w = ng.inversion(ng.inversion(u))
        assert np.max(np.abs(w.z.c - u.z.c)) < 1e-10
        assert np.max(np.abs(w.t.v - u.t.v)) < 1e-10


def test_batched_matches_scalar():
    rng = np.random.default_rng(9)
    z1, z2 = rng.standard_normal((2, 40, 8))
    t1, t2 = rng.standard_normal((2, 40, 7))
    zb, tb = ng.gmul_zt(z1, t1, z2, t2)
    nb = ng.hnorm_zt(z1, t1)
    for i in range(40):
        u = GroupElement.from_arrays(z1[i], t1[i])
        v = GroupElement.from_arrays(z2[i], t2[i])
        w = ng.gmul(u, v)
        assert np.allclose(zb[i], w.z.c, atol=1e-13)
        assert np.allclose(tb[i], w.t.v, atol=1e-13)
        assert abs(nb[i] - ng.hnorm(u)) < 1e-13
