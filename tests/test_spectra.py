"""Closed-form eigenvalues, quadrature oracle, margins, intertwining spectrum."""

import math

import numpy as np
import pytest

from octhls import spectra
from octhls.nilgroup import Q

SPHERE = 2.0 * math.pi ** 8 / math.factorial(7)


# ---------------------------------------------------------------------------
# closed forms


def test_eig_K1_base_values():
    assert abs(spectra.eig_K1(0, 0, 4.0) - math.pi ** 8 / 1080.0) < 1e-13
    # alpha = 3 makes the kernel constant 1, so the (0,0) eigenvalue is |S|
    assert abs(spectra.eig_K1(0, 0, 3.0) - SPHERE) < 1e-13


def test_eig_K1_positive_and_decreasing():
    for alpha in (3.25, 4.0, 5.2):
        prev = math.inf
        for j in range(8):
            v = spectra.eig_K1(j, 0, alpha)
            assert 0.0 < v < prev
            prev = v


def test_eig_K1_regression_value():
    assert abs(spectra.eig_K1(2, 1, 3.5) - 0.1436021763099499) < 1e-12


def test_eig_K2_values():
    # at alpha = 4 the second kernel keeps only its first closed-form term
    assert abs(spectra.eig_K2(0, 0, 4.0) - math.pi ** 8 / 1890.0) < 1e-12
    assert abs(spectra.eig_K2(2, 1, 3.5) - 0.22177794905922618) < 1e-12


def test_eig_K2_removable_singularity():
    # alpha = 1 has a removable 0/0 in the term combination; the symmetric
    # epsilon average must agree with nearby direct evaluations
    v = spectra.eig_K2(1, 1, 1.0)
    lo = spectra.eig_K2(1, 1, 1.0 - 1e-5)
    hi = spectra.eig_K2(1, 1, 1.0 + 1e-5)
    assert abs(v - 0.5 * (lo + hi)) < 1e-6 * abs(v)


def test_alpha_domain_errors():
    with pytest.raises(ValueError):
        spectra.eig_K1(0, 0, 5.5)  # Gamma(11 - 2 alpha) pole at alpha = 5.5
    with pytest.raises(ValueError):
        spectra.eig_K2(0, 0, 6.0)


def test_quadrature_constant_kernel_gives_sphere_measure():
    kern = spectra.ZonalKernel(lambda r, x: np.ones_like(x), name="one")
    val = spectra.eig_quadrature(kern, 0, 0)
    assert abs(val - SPHERE) / SPHERE < 1e-13


def test_quadrature_orthogonality():
    # a constant kernel is orthogonal to every non-trivial zonal subspace
    kern = spectra.ZonalKernel(lambda r, x: np.ones_like(x), name="one")
    for j, k in ((1, 0), (2, 1), (3, 3)):
        assert abs(spectra.eig_quadrature(kern, j, k)) < 1e-10


def test_quadrature_matches_closed_form_spot():
    for alpha in (3.5, 4.75):
        kern = spectra.kernel_K1(alpha)
        for j, k in ((0, 0), (2, 1), (3, 3)):
            cf = spectra.eig_K1(j, k, alpha)
            qd = spectra.eig_quadrature(kern, j, k)
            assert abs(qd - cf) / abs(cf) < 1e-6


def test_quadrature_K2_matches_closed_form_spot():
    alpha = 4.75
    kern = spectra.kernel_K2(alpha)
    for j, k in ((0, 0), (2, 0), (2, 2)):
        cf = spectra.eig_K2(j, k, alpha)
        qd = spectra.eig_quadrature(kern, j, k)
        assert abs(qd - cf) / abs(cf) < 1e-6


def test_ratio_identity_matches_direct_quotient():
    for alpha in (3.5, 5.0):
        for j, k in ((0, 0), (4, 2), (12, 7)):
            direct = spectra.eig_K1(j, k, alpha - 1.0) / spectra.eig_K1(j, k, alpha)
            assert abs(spectra.eig_K1_ratio(j, k, alpha) - direct) < 1e-12 * abs(direct)


def test_ratio_identity_alpha4_k0_finite():
    # the (alpha-4)/(k+alpha-4) pair cancels exactly at alpha = 4, k = 0;
    # the direct quotient is the contract and it is nonzero there
    direct = spectra.eig_K1(5, 0, 3.0) / spectra.eig_K1(5, 0, 4.0)
    assert abs(direct - 0.09375) < 1e-12
    assert abs(spectra.eig_K1_ratio(5, 0, 4.0) - direct) < 1e-12


def test_ratio_identity_alpha4_kpos_zero():
    for j, k in ((1, 1), (3, 2)):
        assert spectra.eig_K1_ratio(j, k, 4.0) == 0.0
        direct = spectra.eig_K1(j, k, 3.0) / spectra.eig_K1(j, k, 4.0)
        assert abs(direct) < 1e-12


# ---------------------------------------------------------------------------
# bilinear margin


def test_margin_zero_at_origin():
    for alpha in (3.0, 3.7, 4.0, 5.2):
        assert abs(spectra.bilinear_margin(0, 0, alpha)) < 1e-12


def test_margin_regression_values():
    assert abs(spectra.bilinear_margin(2, 1, 3.0) - 0.10982096083415012) < 1e-10
    assert abs(spectra.bilinear_margin(1, 0, 4.0) - 1.0085598443952595) < 1e-10


def test_margin_zero_set_at_three():
    for j in range(7):
        for k in range(j + 1):
            m = spectra.bilinear_margin(j, k, 3.0)
            if (j, k) == (0, 0) or k >= 2:
                assert abs(m) < 1e-10, (j, k)
            else:
                assert m > 1e-6, (j, k)


def test_margin_violation_below_three():
    assert spectra.bilinear_margin(2, 2, 2.5) < -1e-3


# ---------------------------------------------------------------------------
# intertwining spectrum


def test_intertwining_base_value():
    assert abs(spectra.intertwining_spectrum(2.0, 0, 0) - 10.0) < 1e-12


def test_intertwining_identity():
    for d in (2.0, 4.0, 8.0):
        cd = spectra.c_d(d)
        for j in range(5):
            for k in range(j + 1):
                v = (
                    cd
                    * 2.0 ** ((Q - d) / 2.0)
                    * spectra.eig_K1(j, k, (Q - d) / 4.0)
                    * spectra.intertwining_spectrum(d, j, k)
                )
                assert abs(v - 1.0) < 1e-12


def test_c_d_poles():
    for d in (10.0, 14.0, 18.0):
        with pytest.raises(ValueError):
            spectra.c_d(d)
    assert spectra.c_d(6.0) > 0.0


def test_c_d_endpoint_value():
    # d = Q - 16: 1/c_d = 2^9 pi^8 Gamma((Q-16)/2) / (Gamma(4) Gamma(1))
    d = Q - 16.0
    ref = 1.0 / (2.0 ** 9 * math.pi ** 8 * math.gamma((Q - 16.0) / 2.0) / (math.gamma(4.0)))
    assert abs(spectra.c_d(d) - ref) / ref < 1e-12


# ---------------------------------------------------------------------------
# log-Sobolev gap


def test_logsob_gap_zero_at_origin():
    assert spectra.logsob_gap(0, 0) == 0.0


def test_logsob_gap_matches_numerical_limit():
    for j, k in ((1, 0), (2, 1), (4, 4)):
        gap = spectra.logsob_gap(j, k)
        lim = spectra.logsob_gap_limit(j, k)
        assert abs(gap - lim) / gap < 1e-6


def test_logsob_gap_monotone():
    prev = 0.0
    for j in range(1, 6):
        g = spectra.logsob_gap(j, 0)
        assert g > prev
        prev = g


# ---------------------------------------------------------------------------
# tables


def test_quadrature_table_provenance():
    table = spectra.eig_quadrature_table(spectra.kernel_K1(4.0), 4.0, 1)
    assert table.provenance == "quadrature"
    for j, k in table.indices():
        assert j >= k
