"""Special functions: Gegenbauer/Jacobi recurrences, zonal harmonics."""

import math

import numpy as np
import pytest
from scipy import special as sp

from octhls import specfun as sf


def test_bispherical_index_validation():
    sf.BisphericalIndex(3, 1)
    with pytest.raises(ValueError):
        sf.BisphericalIndex(1, 3)
    with pytest.raises(ValueError):
        sf.BisphericalIndex(-1, 0)


def test_gegenbauer3_against_scipy():
    xs = np.linspace(-1.0, 1.0, 11)
    for n in range(9):
        ref = sp.eval_gegenbauer(n, 3.0, xs)
        ours = sf.gegenbauer3(n, xs)
        assert np.max(np.abs(ours - ref)) < 1e-10 * np.max(1.0 + np.abs(ref))


def test_gegenbauer3_normalized_at_one():
    for n in range(9):
        assert abs(sf.gegenbauer3_normalized(n, 1.0) - 1.0) < 1e-12


def test_jacobi33_against_scipy():
    xs = np.linspace(-1.0, 1.0, 11)
    for m in range(5):
        for k in range(7):
            ref = sp.eval_jacobi(k, 3.0, 3.0 + m, xs)
            ours = sf.jacobi33(k, m, xs)
            assert np.max(np.abs(ours - ref)) < 1e-10 * np.max(1.0 + np.abs(ref))


def test_jacobi33_normalized_at_one():
    for m in range(4):
        for k in range(7):
            assert abs(sf.jacobi33_normalized(k, m, 1.0) - 1.0) < 1e-12


def test_zonal_normalization_and_product_form():
    # the zonal harmonic equals the normalized Gegenbauer x Jacobi product
    thetas = np.linspace(0.0, 1.4, 5)
    phis = np.linspace(0.0, 3.0, 5)
    for j, k in ((0, 0), (1, 0), (2, 1), (4, 2), (5, 5)):
        assert abs(sf.zonal(j, k, 0.0, 0.0) - 1.0) < 1e-12
        m = j - k
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
