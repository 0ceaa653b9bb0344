"""Special functions: Gegenbauer/Jacobi recurrences, zonal harmonics."""

import math

import numpy as np
import pytest
from scipy import special as sp

from octhls import specfun as sf


def test_bispherical_index_validation():
    assert sf._check_index(3, 1) == (3, 1)
    with pytest.raises(ValueError):
        sf._check_index(1, 3)
    with pytest.raises(ValueError):
        sf._check_index(-1, 0)


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
        # zonal normalizes only the rows it uses; they equal the full basis rows bit for bit
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


def test_zonal_sine_form_matches_product_form():
    rng = np.random.default_rng(0)
    thetas = rng.uniform(0.0, math.pi / 2 - 0.05, 40)
    phis = rng.uniform(0.0, math.pi, 40)
    for j, k in ((0, 0), (2, 0), (3, 1), (6, 2)):
        a = sf.zonal(j, k, thetas, phis)
        b = sf.zonal_sine_form(j, k, thetas, phis)
        assert np.max(np.abs(a - b)) < 1e-9


def test_zonal_sine_form_small_phi_branch():
    # the phi -> 0 Taylor branch must join the generic branch smoothly
    phis = np.array([0.0, 1e-7, 1e-3, 0.049, 0.051, 0.2])
    for j, k in ((3, 1), (5, 2)):
        a = sf.zonal(j, k, 0.7, phis)
        b = sf.zonal_sine_form(j, k, 0.7, phis)
        assert np.max(np.abs(a - b)) < 1e-9


def test_sine_sum_moments_vanish():
    # M_0 = M_1 = 0: the bracket starts at the sin^5 order
    for m in range(0, 8):
        moments = sf._sine_sum_moments(m)
        assert moments[0] == 0
        assert moments[1] == 0
        assert moments[2] != 0
