"""Sharp constants: closed forms, spectral identity, domain handling."""

import math

import pytest

from octhls import constants, spectra
from octhls.nilgroup import Q


def test_sphere_measure():
    assert abs(constants.sphere_measure() - 2.0 * math.pi ** 8 / 5040.0) < 1e-12


def test_hls_params():
    for lam in (0.0, 22.0):
        with pytest.raises(ValueError):
            constants.C_hls_group(lam)


def test_hls_group_regression():
    # frozen from the gamma-ratio closed form
    assert abs(constants.C_hls_group(12.0) - 0.4542334983496804) < 1e-10


def test_hls_sphere_regression_and_ratio():
    assert abs(constants.C_hls_sphere(12.0) - 131.90214276574577) < 1e-9
    for lam in (12.0, 16.0, 20.0):
        ratio = constants.C_hls_sphere(lam) / constants.C_hls_group(lam)
        assert abs(ratio - 2.0 ** (15.0 * lam / Q)) < 1e-10 * ratio


def test_spectral_identity():
    # C' = 2^(lam/2) lambda_{0,0}(K1^{lam/4}) |S|^((lam - Q)/Q)
    for lam in (12.0, 14.0, 16.0, 20.0):
        spectral = (
            2.0 ** (lam / 2.0)
            * spectra.eig_K1(0, 0, lam / 4.0)
            * constants.sphere_measure() ** ((lam - Q) / Q)
        )
        ref = constants.C_hls_sphere(lam)
        assert abs(spectral - ref) / ref < 1e-12


def test_lambda00_is_eig_K1_at_the_origin_bit_for_bit():
    # the numpy-free lambda_00 of `octhls constants` reads the same gamma starts as the
    # factor tables, so it equals eig_K1(0, 0, a) to the last bit
    grid = [-1.0 + 6.5 * i / 6500 for i in range(1, 6500)]
    grid += [0.0, 1.0, 2.0, 3.0, 1.0 - 1e-9, 1.0 + 1e-9, 5.499, -1.0 + 1e-9, 5.5 - 1e-9]
    for a in grid:
        assert constants._lambda00(a).hex() == spectra.eig_K1(0, 0, a).hex(), a
    for a in (-1.0, 5.5, 6.0, math.nan):
        with pytest.raises(ValueError) as want:
            spectra.eig_K1(0, 0, a)
        with pytest.raises(ValueError) as got:
            constants._lambda00(a)
        assert str(got.value) == str(want.value)


def test_sobolev_constant():
    assert constants.C_sobolev(2.0) > 0.0
    # identity with the inverse of the composed normalization
    for d in (2.0, 6.0):
        ref = 1.0 / (spectra.c_d(d) * constants.C_hls_sphere(Q - d))
        assert abs(constants.C_sobolev(d) - ref) / ref < 1e-12


def test_sobolev_domain():
    with pytest.raises(ValueError):
        constants.C_sobolev(0.0)
    with pytest.raises(ValueError):
        constants.C_sobolev(10.5)
    # at the endpoint the normalizing factor diverges and the constant
    # degenerates to zero
    assert constants.C_sobolev(Q - 12.0) == 0.0


def test_logsobolev_constant():
    ref = (
        2.0 ** (Q / 2 + 3)
        * math.pi ** 8
        / (Q * math.gamma(Q / 4.0) * math.gamma(Q / 4.0 - 3.0))
    )
    assert abs(constants.C_logsobolev() - ref) < 1e-9
    # ties to the eigenvalue gap through the digamma formula: the gap
    # constant C0 satisfies C_logsobolev = 4 C0 / Q at the first gap unit
    gap10 = spectra.logsob_gap(1, 0)
    c0 = gap10 / (1.0 / (Q / 4.0))  # psi(j + Q/4) - psi(Q/4) at j=1 is 4/Q
    assert abs(constants.C_logsobolev() - 4.0 * c0 / Q) / c0 < 1e-12
