"""Special functions: Gegenbauer/Jacobi recurrences, zonal harmonics."""

import math
import weakref
from fractions import Fraction

import numpy as np
import pytest
from scipy import special as sp

from octhls import specfun as sf

# ---------------------------------------------------------------------------
# the sine-sum form of the zonal harmonics: an independent second form, the
# oracle for sf.zonal below

# seam between direct evaluation of the sine-sum form and its Taylor fallback;
# below the seam the sin^5 quotient cancels catastrophically, so the seam sits
# where both branches are accurate (direct ~1e-11, Taylor converged for the
# frequencies m+5 <= ~45 exercised by the cross-checks)
_PHI_SMALL = 5e-2


def _sine_sum_coeffs(m):
    """Exact coefficients c_r of the bracket sum_r c_r sin(n_r phi), n_r = m+1, m+3, m+5."""
    c1 = Fraction(1, 4 * (m + 3)) - Fraction(1, 2 * (m + 2)) + Fraction(1, 4 * (m + 1))
    c3 = Fraction(1, m + 3) - Fraction(1, 2 * (m + 2)) - Fraction(1, 2 * (m + 4))
    c5 = Fraction(1, 4 * (m + 3)) - Fraction(1, 2 * (m + 4)) + Fraction(1, 4 * (m + 5))
    return {m + 1: c1, m + 3: c3, m + 5: c5}


def _sine_sum_moments(m, imax=9):
    """Exact odd moments M_i = sum_r c_r n_r^(2i+1); M_0 = M_1 = 0 identically."""
    coeffs = _sine_sum_coeffs(m)
    return [sum(c * Fraction(n) ** (2 * i + 1) for n, c in coeffs.items()) for i in range(imax + 1)]


def _sine_ratio(m, phi):
    """The quotient [bracket]/sin^5(phi), with a Taylor fallback near phi = 0."""
    phi = np.asarray(phi, dtype=float)
    out = np.empty_like(phi)
    small = np.abs(phi) < _PHI_SMALL
    if np.any(~small):
        p = phi[~small]
        s = np.zeros_like(p)
        for n, c in _sine_sum_coeffs(m).items():
            s += float(c) * np.sin(n * p)
        out[~small] = s / np.sin(p) ** 5
    if np.any(small):
        p = phi[small]
        moments = _sine_sum_moments(m)
        num = np.zeros_like(p)
        for i in range(2, len(moments)):
            num += (-1.0) ** i * float(moments[i]) / math.factorial(2 * i + 1) * p ** (2 * i + 1)
        sin5 = np.where(p == 0.0, 1.0, np.sin(np.where(p == 0.0, 1.0, p)) ** 5)
        ratio = np.where(p == 0.0, float(moments[2]) / math.factorial(5), num / sin5)
        out[small] = ratio
    return out


def zonal_sine_form(j, k, theta, phi):
    """The sine-sum form of the zonal harmonic, calibrated to match sf.zonal.

    The overall constant is fixed once by matching the hypergeometric
    product form at theta = phi = 0.
    """
    m = j - k
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    # at phi = 0 the ratio tends to M_2/5!, so kappa * ratio(0) = 1
    kappa = math.factorial(5) / float(_sine_sum_moments(m)[2])
    return kappa * _sine_ratio(m, phi) * np.cos(theta) ** m * sf.jacobi33(k, m, np.cos(2.0 * theta))[k]


def test_bispherical_index_validation():
    assert sf._check_index(3, 1) == (3, 1)
    assert sf._check_index(np.int64(3), np.int32(1)) == (3, 1)
    assert all(type(i) is int for i in sf._check_index(np.int64(3), np.int32(1)))
    with pytest.raises(ValueError):
        sf._check_index(1, 3)
    with pytest.raises(ValueError):
        sf._check_index(-1, 0)
    with pytest.raises(TypeError, match=r"indices \(j, k\) must be integers, got \(2\.5, 1\)"):
        sf._check_index(2.5, 1)
    with pytest.raises(TypeError, match="must be integers"):
        sf._check_index(3, np.float64(1.0))


def test_bispherical_basis_layout_and_zonal_product():
    # T[p] times row m of gegenbauer3 is the zonal harmonic of pair p
    theta = np.linspace(0.0, math.pi / 2, 9)
    phi = np.linspace(0.0, math.pi, 11)
    jmax = 12
    j, k, T = sf.bispherical_basis(jmax, theta)
    tj, tk = np.tril_indices(jmax + 1)
    assert np.array_equal(j, tj) and np.array_equal(k, tk)
    assert T.shape == (len(j), theta.size)
    C = sf.gegenbauer3(jmax, np.cos(phi))
    th, ph = np.meshgrid(theta, phi, indexing="ij")
    for p, (jj, kk) in enumerate(zip(j.tolist(), k.tolist())):
        harmonic = np.multiply.outer(T[p], C[jj - kk])
        assert np.max(np.abs(harmonic - sf.zonal(jj, kk, th, ph))) <= 1e-15, (jj, kk)
    # any theta shape: T[:, ...] follows it
    _, _, T2 = sf.bispherical_basis(3, theta.reshape(3, 3))
    assert T2.shape == (10, 3, 3)
    assert np.array_equal(T2.reshape(10, 9), sf.bispherical_basis(3, theta)[2])


@pytest.mark.parametrize("jmax, error, match", [
    (-1, ValueError, "jmax must be >= 0, got -1"),
    (2.5, TypeError, "jmax must be an integer, got 2.5"),
    (np.float64(3.0), TypeError, "jmax must be an integer"),
    ("3", TypeError, "jmax must be an integer"),
])
def test_bispherical_basis_checks_jmax(jmax, error, match):
    with pytest.raises(error, match=match):
        sf.bispherical_basis(jmax, np.linspace(0.0, 1.0, 4))


@pytest.mark.parametrize("call, error, match", [
    (lambda x: sf.gegenbauer3(-1, x), ValueError, "n must be >= 0, got -1"),
    (lambda x: sf.gegenbauer3(2.0, x), TypeError, "n must be an integer, got 2.0"),
    (lambda x: sf.gegenbauer3(np.float64(3.0), x), TypeError, "n must be an integer"),
    (lambda x: sf.jacobi33(2.9, 0, x), TypeError, "k must be an integer, got 2.9"),
    (lambda x: sf.jacobi33(-3, 0, x), ValueError, "k must be >= 0, got -3"),
    (lambda x: sf.jacobi33(2, 1.5, x), TypeError, "m must be an integer, got 1.5"),
    (lambda x: sf.jacobi33(2, -1, x), ValueError, "m must be >= 0, got -1"),
], ids=["n<0", "n=2.0", "n=float64", "k=2.9", "k<0", "m=1.5", "m<0"])
def test_degrees_are_checked(call, error, match):
    # a degree that is not an integer >= 0 is an error that names it, not a truncated table
    with pytest.raises(error, match=match):
        call(np.linspace(-1.0, 1.0, 5))


@pytest.mark.parametrize("m", [
    np.array([1.5, 2.0]), np.array([[0, 1]]), np.array([True, False]), [1, [2]], np.array([0, 3, -2]),
], ids=["float", "2-D", "bool", "ragged", "negative"])
def test_jacobi33_checks_an_array_of_orders(m):
    # jacobi33 takes one order: a list or an array of them is an error that names m
    with pytest.raises(TypeError, match="m must be an integer, got"):
        sf.jacobi33(2, m, np.linspace(-1.0, 1.0, 5))


def test_jacobi33_takes_a_numpy_integer_order():
    # an integer scalar of numpy, or a 0-d integer array, is one order
    x = np.linspace(-1.0, 1.0, 5)
    want = sf.jacobi33(4, 3, x).tobytes()
    assert sf.jacobi33(4, np.int64(3), x).tobytes() == sf.jacobi33(4, np.array(3), x).tobytes() == want


def test_jacobi_rows_are_the_calls_stacked():
    # one recurrence over a set of orders gives each order's rows to the last bit, in the
    # order given (repeats and any sort allowed), and no rows for no orders
    x = np.concatenate([np.linspace(-1.0, 1.0, 37), [-0.0, 0.0, 0.3, 0.99, 2.0]])
    for xs in (x, x[3:4]):
        for k in (0, 1, 2, 7, 40):
            for ms in ((0,), (3,), (0, 1, 2, 3), (9, 2, 9, 0), tuple(range(45)), ()):
                got = sf._jacobi_rows(k, ms, xs)
                assert got.shape == (k + 1, len(ms), xs.size)
                want = b"".join(sf.jacobi33(k, m, xs).tobytes() for m in ms)
                assert got.swapaxes(0, 1).tobytes() == want, (k, ms)


def _basis_order_by_order(jmax, theta):
    """bispherical_basis as one jacobi33 call per m, each m stored through its pairs."""
    j, k = np.tril_indices(jmax + 1)
    c, x = np.cos(theta), np.cos(2.0 * theta)
    T = np.empty((len(j), *theta.shape))
    for m in range(jmax + 1):
        kk = np.arange(jmax + 1 - m)
        T[(kk + m) * (kk + m + 1) // 2 + kk] = c ** m * sf.jacobi33(jmax - m, m, x)
    return j, k, T


@pytest.mark.parametrize("block", [1, None, 1 << 40], ids=["one-m-blocks", "default", "one-block"])
def test_bispherical_basis_equals_the_order_by_order_loop(monkeypatch, block):
    # whatever the blocks of orders, the basis is the one-call-per-m loop to the last bit
    if block is not None:
        monkeypatch.setattr(sf, "_BLOCK", block)
    theta = np.linspace(0.0, math.pi / 2, 200)
    for jmax, th in ((0, theta), (1, theta), (6, theta), (40, theta), (40, theta[:12].reshape(3, 4))):
        got, want = sf.bispherical_basis(jmax, th), _basis_order_by_order(jmax, th)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want)), jmax
        assert got[2].shape == want[2].shape


def test_each_order_visits_the_orders_in_blocks_within_the_bound(monkeypatch):
    # m = 0..jmax once each, ascending, with the closed-form positions of their pairs; each
    # recurrence builds the rows of a run of consecutive orders within _BLOCK doubles, or of
    # one order (the rows are stubbed: their values are the basis and table tests' concern)
    blocks = []

    def rows(k, orders, x):
        blocks.append(orders)
        return np.empty((k + 1, len(orders), x.size))

    monkeypatch.setattr(sf, "_jacobi_rows", rows)
    for jmax, size in ((0, 1), (6, 600), (20, 1332), (40, 3192), (100, 13572), (40, 200)):
        blocks.clear()
        seen = []

        def use(m, pos, P):
            k = np.arange(jmax + 1 - m)
            assert pos.tolist() == ((k + m) * (k + m + 1) // 2 + k).tolist()
            assert P.shape == (jmax + 1 - m, size)
            seen.append(m)

        sf._each_order(jmax, np.zeros(size), use)
        assert seen == list(range(jmax + 1)) == [m for b in blocks for m in b]
        for b in blocks:
            assert b == tuple(range(b[0], b[-1] + 1))
            assert len(b) == 1 or len(b) * (jmax + 1 - b[0]) * size <= sf._BLOCK
        # a jmax 6 oracle table (600 theta values) is one block, a jmax 100 one one order at a time
        if (jmax, size) == (6, 600):
            assert blocks == [tuple(range(7))]
        if (jmax, size) == (100, 13572):
            assert all(len(b) == 1 for b in blocks if b[0] < 90)


@pytest.mark.parametrize("block", [1, 1 << 13, 1 << 16])
def test_each_order_holds_one_block_of_rows_at_a_time(monkeypatch, block):
    # every block of rows is dead before the next is built, through the basis and the
    # oracle alike: at jmax 100 one more order's rows alive would be 10.5 MiB
    from octhls import spectra

    real, alive = sf._jacobi_rows, []

    def rows(*args):
        assert all(ref() is None for ref in alive), "an earlier block of rows is still alive"
        out = real(*args)
        alive.append(weakref.ref(out if out.base is None else out.base))
        return out

    monkeypatch.setattr(sf, "_BLOCK", block)
    monkeypatch.setattr(sf, "_jacobi_rows", rows)
    sf.bispherical_basis(20, np.linspace(0.0, math.pi / 2, 200))
    assert len(alive) > 1
    alive.clear()
    spectra.eig_quadrature_table(spectra.kernel_K1(4.0), 4.0, 20)
    assert len(alive) > 1


def test_gegenbauer3_against_scipy():
    # every row i is C_i^(3) times its normalization 5! i! / (i+5)!
    xs = np.linspace(-1.0, 1.0, 11)
    for n in range(9):
        rows = sf.gegenbauer3(n, xs)
        assert rows.shape == (n + 1, xs.size)
        for i in range(n + 1):
            ref = sp.eval_gegenbauer(i, 3.0, xs) / math.comb(i + 5, 5)
            assert np.max(np.abs(rows[i] - ref)) < 1e-10 * np.max(1.0 + np.abs(ref))


def test_gegenbauer3_normalized_at_one():
    for n in range(9):
        assert np.all(np.abs(sf.gegenbauer3(n, 1.0) - 1.0) < 1e-12)


def test_jacobi33_against_scipy():
    # every row i is P_i^(3, 3+m) times its normalization 3! i! / (i+3)!
    xs = np.linspace(-1.0, 1.0, 11)
    for m in range(5):
        for k in range(7):
            rows = sf.jacobi33(k, m, xs)
            assert rows.shape == (k + 1, xs.size)
            for i in range(k + 1):
                ref = sp.eval_jacobi(i, 3.0, 3.0 + m, xs) / math.comb(i + 3, 3)
                assert np.max(np.abs(rows[i] - ref)) < 1e-10 * np.max(1.0 + np.abs(ref))


def test_jacobi33_normalized_at_one():
    for m in range(4):
        for k in range(7):
            assert np.all(np.abs(sf.jacobi33(k, m, 1.0) - 1.0) < 1e-12)


def test_zonal_normalization_and_product_form():
    # the zonal harmonic equals the normalized Gegenbauer x Jacobi product
    thetas = np.linspace(0.0, 1.4, 5)
    phis = np.linspace(0.0, 3.0, 5)
    grid_th, grid_ph = np.meshgrid(thetas, phis)
    for j, k in ((0, 0), (1, 0), (2, 1), (4, 2), (5, 5)):
        assert abs(sf.zonal(j, k, 0.0, 0.0) - 1.0) < 1e-12
        m = j - k
        # zonal is the product of the rows of gegenbauer3 and jacobi33, bit for bit
        basis = (
            sf.gegenbauer3(m, np.cos(grid_ph))[m]
            * np.cos(grid_th) ** m
            * sf.jacobi33(k, m, np.cos(2.0 * grid_th))[k]
        )
        assert np.array_equal(sf.zonal(j, k, grid_th, grid_ph), basis), (j, k)
        for th in thetas:
            for ph in phis:
                val = sf.zonal(j, k, th, ph)
                ref = (
                    sp.eval_gegenbauer(m, 3.0, math.cos(ph))
                    / sp.eval_gegenbauer(m, 3.0, 1.0)
                    * math.cos(th) ** m
                    * sp.eval_jacobi(k, 3.0, 3.0 + m, math.cos(2 * th))
                    / sp.eval_jacobi(k, 3.0, 3.0 + m, 1.0)
                )
                assert abs(val - ref) < 1e-10


@pytest.mark.parametrize("j, k", [(12, 5), (40, 0), (40, 17), (40, 40), (100, 0), (100, 50), (100, 100)])
def test_zonal_high_degree_against_scipy(j, k):
    # the degrees of the projection (jmax 40) and the oracle (jmax 100), under the bound
    # of the low-degree check above
    rng = np.random.default_rng(12)
    th = rng.uniform(0.0, math.pi / 2, 200)
    ph = rng.uniform(0.0, math.pi, 200)
    m = j - k
    ref = (
        sp.eval_gegenbauer(m, 3.0, np.cos(ph))
        / sp.eval_gegenbauer(m, 3.0, 1.0)
        * np.cos(th) ** m
        * sp.eval_jacobi(k, 3.0, 3.0 + m, np.cos(2.0 * th))
        / sp.eval_jacobi(k, 3.0, 3.0 + m, 1.0)
    )
    assert np.max(np.abs(sf.zonal(j, k, th, ph) - ref)) < 1e-10


def test_zonal_sine_form_matches_product_form():
    rng = np.random.default_rng(0)
    thetas = rng.uniform(0.0, math.pi / 2 - 0.05, 40)
    phis = rng.uniform(0.0, math.pi, 40)
    for j, k in ((0, 0), (2, 0), (3, 1), (6, 2)):
        a = sf.zonal(j, k, thetas, phis)
        b = zonal_sine_form(j, k, thetas, phis)
        assert np.max(np.abs(a - b)) < 1e-9


def test_zonal_sine_form_small_phi_branch():
    # the phi -> 0 Taylor branch must join the generic branch smoothly
    phis = np.array([0.0, 1e-7, 1e-3, 0.049, 0.051, 0.2])
    for j, k in ((3, 1), (5, 2)):
        a = sf.zonal(j, k, 0.7, phis)
        b = zonal_sine_form(j, k, 0.7, phis)
        assert np.max(np.abs(a - b)) < 1e-9


def test_sine_sum_moments_vanish():
    # M_0 = M_1 = 0: the bracket starts at the sin^5 order
    for m in range(0, 8):
        moments = _sine_sum_moments(m)
        assert moments[0] == 0
        assert moments[1] == 0
        assert moments[2] != 0
