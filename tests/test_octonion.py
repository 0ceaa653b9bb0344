"""Octonion algebra: multiplication table, norms, Moufang/alternative laws."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from octhls import octonion as oc
from octhls.octonion import ImOctonion, Octonion


def rand(n, seed=0):
    return np.random.default_rng(seed).standard_normal((n, 8))


def test_table_shape_and_unit():
    assert oc.MULT_TABLE.shape == (8, 8, 8)
    e0 = np.eye(8)[0]
    x = rand(5)[0]
    assert np.allclose(oc.mul(e0, x), x)
    assert np.allclose(oc.mul(x, e0), x)


def _cd_mul_pair(x, y):
    """The Cayley-Dickson product of two coefficient vectors, one pair at a time."""
    n = len(x)
    if n == 1:
        return np.array([x[0] * y[0]])
    h = n // 2
    a, b, c, d = x[:h], x[h:], y[:h], y[h:]
    return np.concatenate(
        [_cd_mul_pair(a, c) - _cd_mul_pair(_cd_conj_pair(d), b),
         _cd_mul_pair(d, a) + _cd_mul_pair(b, _cd_conj_pair(c))]
    )


def _cd_conj_pair(x):
    out = -np.asarray(x, dtype=float).copy()
    out[0] = -out[0]
    return out


def test_table_is_the_per_pair_recursion():
    eye = np.eye(8)
    want = np.array([[_cd_mul_pair(eye[i], eye[j]) for j in range(8)] for i in range(8)])
    # to the bit, the sign of every zero included
    assert oc.MULT_TABLE.dtype == want.dtype
    assert oc.MULT_TABLE.tobytes() == want.tobytes()


def test_imaginary_units_square_to_minus_one():
    for k in range(1, 8):
        ek = np.eye(8)[k]
        sq = oc.mul(ek, ek)
        assert np.allclose(sq, -np.eye(8)[0])


def test_table_antisymmetry_of_imaginary_products():
    for a in range(1, 8):
        for b in range(1, 8):
            if a == b:
                continue
            assert np.allclose(
                oc.mul(np.eye(8)[a], np.eye(8)[b]), -oc.mul(np.eye(8)[b], np.eye(8)[a])
            )


def test_composition_law():
    x, y = rand(300, 1), rand(300, 2)
    lhs = np.linalg.norm(oc.mul(x, y), axis=-1)
    rhs = np.linalg.norm(x, axis=-1) * np.linalg.norm(y, axis=-1)
    assert np.max(np.abs(lhs - rhs)) < 1e-12 * np.max(rhs)


def test_conjugation_antiautomorphism():
    x, y = rand(200, 3), rand(200, 4)
    assert np.allclose(oc.conj(oc.mul(x, y)), oc.mul(oc.conj(y), oc.conj(x)), atol=1e-12)


def test_norm_via_conjugate():
    x = rand(100, 5)
    prod = oc.mul(x, oc.conj(x))
    assert np.allclose(prod[..., 1:], 0.0, atol=1e-12)
    assert np.allclose(prod[..., 0], np.linalg.norm(x, axis=-1) ** 2)


def test_inverse():
    x = rand(100, 6)
    one = np.zeros(8)
    one[0] = 1.0
    inv = oc.conj(x) / np.sum(x * x, axis=-1)[..., None]
    assert np.allclose(oc.mul(x, inv), one, atol=1e-12)
    assert np.allclose(oc.mul(inv, x), one, atol=1e-12)


def test_alternative_laws():
    x, y = rand(300, 7), rand(300, 8)
    assert np.allclose(oc.mul(oc.mul(x, x), y), oc.mul(x, oc.mul(x, y)), atol=1e-10)
    assert np.allclose(oc.mul(oc.mul(y, x), x), oc.mul(y, oc.mul(x, x)), atol=1e-10)


def test_moufang_identity():
    # a (x y) a = (a x)(y a)
    a, x, y = rand(200, 9), rand(200, 10), rand(200, 11)
    lhs = oc.mul(oc.mul(a, oc.mul(x, y)), a)
    rhs = oc.mul(oc.mul(a, x), oc.mul(y, a))
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_nonassociative_generic():
    rng = np.random.default_rng(12)
    x, y, z = rng.standard_normal((3, 8))
    assert np.max(np.abs(oc.mul(oc.mul(x, y), z) - oc.mul(x, oc.mul(y, z)))) > 1e-3


def test_quaternion_subalgebra_associative():
    rng = np.random.default_rng(13)
    x, y, z = rng.standard_normal((3, 8))
    x[4:] = y[4:] = z[4:] = 0.0
    assert np.allclose(oc.mul(oc.mul(x, y), z), oc.mul(x, oc.mul(y, z)), atol=1e-13)


def _product_layouts():
    """Factor pairs across mul's blocks and layouts.

    Block boundaries: 2 blocks and one row, a length-1 leading axis against
    many blocks, blocks of broadcast pairs and of triples, and one row.
    Layouts across 2 blocks and one row: the strided column views of an
    (n, 16) array that the Cayley kernels pass, a Fortran-ordered batch, an
    integer batch (with zeros); and an empty batch.
    """
    x, y = rand(100_000, 15), rand(100_000, 16)
    n = 2 * oc._BLOCK + 1
    v = np.hstack([x[:n], y[:n]])
    ints = np.random.default_rng(17).integers(-9, 10, (2, n, 8))
    return (
        (x, y), (x[0], y), (x, y[0]), (x[0], y[0]), (x[:5, None], y[None, :7]),
        (x[:n], y[:n]), (x[:1], y),
        (x[:n, None], y[None, :3]), (x[:3 * n].reshape(n, 3, 8), y[:3]),
        (x[:1], y[:1]),
        (v[:, 8:], v[::-1, :8]), (v[::-1, :8], v[:, 8:]),
        (np.asfortranarray(x[:n]), y[:n]), (x[:n], np.asfortranarray(y[:n])),
        (ints[0], ints[1]), (ints[0], y[:n]), (x[:0], y[:0]),
    )


def test_mul_matches_table_contraction():
    # the full contraction sum_ij x_i y_j MULT_TABLE[i, j, k], on a batch and
    # on every broadcast shape: equal to the last bit; the empty batch's
    # product has shape (0, 8)
    def contraction(a, b):
        return np.einsum("...i,...j,ijk->...k", a, b, oc.MULT_TABLE)

    for a, b in _product_layouts():
        assert np.array_equal(oc.mul(a, b), contraction(a, b))


def test_im_mul_conj_matches_mul():
    # the folded expansion gives Im(x conj(y)) of mul and conj bit for bit, the
    # sign of every zero included, on each layout mul is checked on
    for a, b in _product_layouts():
        got, want = oc.im_mul_conj(a, b), oc.mul(a, oc.conj(b))[..., 1:]
        assert got.shape == want.shape == np.broadcast_shapes(np.shape(a), np.shape(b))[:-1] + (7,)
        assert got.tobytes() == want.tobytes()


def test_from_im():
    t = np.arange(1.0, 8.0)
    o = oc.from_im(t)
    assert o[0] == 0.0
    assert np.array_equal(o[1:], t)


def test_records_check_shape():
    assert np.array_equal(Octonion(np.arange(8.0)).c, np.arange(8.0))
    assert np.array_equal(ImOctonion(np.arange(7.0)).v, np.arange(7.0))
    with pytest.raises(ValueError):
        Octonion(np.zeros(7))
    with pytest.raises(ValueError):
        ImOctonion(np.zeros(8))


def test_basis_table_text():
    text = oc.basis_table_text()
    assert "e1" in text and len(text.splitlines()) >= 8



@settings(max_examples=25, deadline=None, derandomize=True)
@given(n=st.integers(1, 3 * oc._BLOCK), seed=st.integers(0, 2 ** 32 - 1))
def test_algebra_laws_on_blocked_batches(n, seed):
    # criterion 01's laws and 1e-12 bound, each residual relative to the
    # scale of its terms, at batch sizes on both sides of the block boundaries
    x, y, a = np.random.default_rng(seed).standard_normal((3, n, 8))
    def norm(v):
        return np.linalg.norm(v, axis=-1)

    nx, ny, na = norm(x), norm(y), norm(a)
    xy = oc.mul(x, y)
    laws = {
        "norm": np.abs(norm(xy) / (nx * ny) - 1.0),
        "moufang": norm(oc.mul(oc.mul(a, xy), a) - oc.mul(oc.mul(a, x), oc.mul(y, a)))
        / (nx * ny * na * na),
        "left": norm(oc.mul(x, xy) - oc.mul(oc.mul(x, x), y)) / (nx * nx * ny),
        "right": norm(oc.mul(oc.mul(y, x), x) - oc.mul(y, oc.mul(x, x))) / (nx * nx * ny),
    }
    for law, res in laws.items():
        assert res.max() < 1e-12, law
