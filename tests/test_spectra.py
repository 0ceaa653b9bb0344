"""Closed-form eigenvalues, quadrature oracle, margins, intertwining spectrum."""

import importlib.util
import math
import pathlib
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest

from octhls import _checks, specfun, spectra
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


def test_exact_zeros_are_positive_zero():
    # the rising factorials vanish exactly at the integer limit points; the
    # value is +0.0 (never -0.0 from the signs of the other factors), so
    # eigs prints 0.0
    zeros = 0
    for alpha in (0.0, 1.0, 2.0, 3.0):
        for j in range(8):
            for k in range(j + 1):
                for v in (spectra.eig_K1(j, k, alpha), spectra.eig_K2(j, k, alpha)):
                    if v == 0.0:
                        zeros += 1
                        assert math.copysign(1.0, v) == 1.0, (j, k, alpha)
    assert zeros > 0


def test_eig_K2_removable_singularity():
    # the value at alpha = 1 must agree with the mean of nearby evaluations
    v = spectra.eig_K2(1, 1, 1.0)
    lo = spectra.eig_K2(1, 1, 1.0 - 1e-5)
    hi = spectra.eig_K2(1, 1, 1.0 + 1e-5)
    assert abs(v - 0.5 * (lo + hi)) < 1e-6 * abs(v)


def _mpmath_reference():
    """perfbench/reference.py: 40-digit mpmath transcriptions of the closed forms."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "reference.py"
    spec = importlib.util.spec_from_file_location("octhls_mpmath_reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_eig_K2_exact_at_alpha_one_pole():
    # at j = k = 0 the four-term form has a removable 1/(alpha - 1); the
    # closed-form sum must match the 40-digit reference right at the pole
    ref = _mpmath_reference()
    mp = ref.mp
    for alpha in (1.0, 1.0 + 1e-9, 1.0 - 1e-9, 1.0 + 1e-5, -0.5, 2.5, 3.5, 4.0, 5.45):
        if alpha == 1.0:
            # the reference divides by alpha - 1: take the two-sided mean
            with mp.workdps(ref.DIGITS):
                eps = mp.mpf("1e-15")
                exact = 0.5 * (ref.eig_K2(0, 0, 1 + eps) + ref.eig_K2(0, 0, 1 - eps))
        else:
            exact = ref.eig_K2(0, 0, alpha)
        assert abs(spectra.eig_K2(0, 0, alpha) - exact) < 1e-14 * abs(exact), alpha


# j rows of the 40-digit comparison and their bounds: the worst relative errors
# measured on the integer-limit grid are 9.7e-15 (j <= 200), 7.0e-14 (j = 1000)
# and 1.5e-12 (j = 10^4), the prefix products rounding by about j ulps
_REFERENCE_ROWS = (((0, 1, 2, 3, 4, 5, 10, 25, 36, 50, 200), 1e-12), ((1000,), 5e-12), ((10_000,), 1e-10))


def _check_reference(alpha, k2_scale):
    """eig_K1 and eig_K2 against 40 digits on _REFERENCE_ROWS; eig_K2 relative to
    |lambda_K1| + |lambda_K2| when k2_scale, else to |lambda_K2|."""
    ref = _mpmath_reference()
    for js, bound in _REFERENCE_ROWS:
        for j in js:
            for k in sorted({0, 1, 2, 3, 4, 5, j // 2, j} & set(range(j + 1))):
                e1 = ref.eig_K1(j, k, alpha)
                v1 = spectra.eig_K1(j, k, alpha)
                assert abs(v1 - e1) <= bound * abs(e1), ("eig_K1", j, k, alpha, v1, e1)
                if (j, alpha) == (0, 1.0):
                    continue  # the reference divides by alpha - 1: see the test above
                e2 = ref.eig_K2(j, k, alpha)
                v2 = spectra.eig_K2(j, k, alpha)
                scale = abs(e1) + abs(e2) if k2_scale else abs(e2)
                assert abs(v2 - e2) <= bound * scale, ("eig_K2", j, k, alpha, v2, e2)


@pytest.mark.parametrize("alpha", [
    1.0, 2.0, 3.0, 4.0,
    1.0 + 1e-9, 2.0 + 1e-9, 3.0 + 1e-9, 4.0 + 1e-9,
    1.0 - 1e-9, 2.0 - 1e-9, 3.0 - 1e-9, 4.0 - 1e-9,
])
def test_closed_forms_match_40_digit_reference(alpha):
    # the integer limit points of the rising factorials, just off them, and j up to 10^4
    _check_reference(alpha, k2_scale=False)


@pytest.mark.parametrize("alpha", [-0.9, -0.5, 0.1, 1.0 / 3.0, 0.5, 0.75])
def test_closed_forms_below_alpha_one_match_40_digit_reference(alpha):
    # below alpha = 1 the four terms of eig_K2 cancel (at alpha = -0.5, eig_K2(25, 3)
    # is 6.1e-18 against eig_K1 4.8e-13), so eig_K2 is judged against
    # |lambda_K1| + |lambda_K2|; the worst measured is 3.0e-14 of that (alpha = 0.1,
    # cell (1, 0)).  alpha = 0 is left out: the exact eig_K2(1, 0, 0) is 0
    _check_reference(alpha, k2_scale=True)


def test_alpha_domain_errors():
    with pytest.raises(ValueError):
        spectra.eig_K1(0, 0, 5.5)  # Gamma(11 - 2 alpha) pole at alpha = 5.5
    with pytest.raises(ValueError):
        spectra.eig_K2(0, 0, 6.0)


def test_quadrature_constant_kernel_gives_sphere_measure():
    # a constant is K1 at alpha = 0, so its table takes alpha = 0's rule
    kern = spectra.ZonalKernel(lambda d2, theta: np.ones_like(d2), name="one")
    val = spectra.eig_quadrature_table(kern, 0.0, 0).values[(0, 0)]
    assert abs(val - SPHERE) / SPHERE < 1e-13


def test_quadrature_orthogonality():
    # a constant kernel is orthogonal to every non-trivial zonal subspace
    kern = spectra.ZonalKernel(lambda d2, theta: np.ones_like(d2), name="one")
    values = spectra.eig_quadrature_table(kern, 0.0, 3).values
    for j, k in ((1, 0), (2, 1), (3, 3)):
        assert abs(values[(j, k)]) < 1e-10


def _cell_errors(kind, alpha, jmax):
    """{(j, k): the oracle's error against the closed form} over the kind's table."""
    return {(j, k): err for j, k, *_, err in spectra._oracle_cells(kind, alpha, jmax)}


def test_quadrature_matches_closed_form_spot():
    for alpha in (3.5, 4.75):
        errors = _cell_errors("K1", alpha, 3)
        for jk in ((0, 0), (2, 1), (3, 3)):
            assert errors[jk] < 1e-6


def test_quadrature_K2_matches_closed_form_spot():
    errors = _cell_errors("K2", 4.75, 2)
    for jk in ((0, 0), (2, 0), (2, 2)):
        assert errors[jk] < 1e-6


def test_quadrature_non_convergence_raises():
    # at alpha = 11/2 the kernel is not integrable and the rule's weight s^(10 - 2 alpha)
    # is not either: the table refuses alpha before it calls the kernel
    calls = []
    kern = spectra.ZonalKernel(lambda d2, theta: calls.append(d2) or d2 ** -5.5, name="K1")
    with pytest.raises(ValueError, match=r"exponent alpha = 5\.5 outside \(-1\.0, 5\.5\)"):
        spectra.eig_quadrature_table(kern, 5.5, 0)
    assert calls == []


def test_quadrature_zero_kernel_gives_zero():
    kern = spectra.ZonalKernel(lambda d2, th: np.zeros_like(d2), name="zero")
    values = spectra.eig_quadrature_table(kern, 0.0, 3).values
    assert values[(0, 0)] == 0.0
    assert values[(3, 1)] == 0.0


def test_quadrature_near_domain_edge():
    # the rule's weight s^(10 - 2 alpha) carries the corner singularity up to alpha < 11/2
    for kind in ("K1", "K2"):
        for j, k, cf, _, err in spectra._oracle_cells(kind, 5.499, 6):
            assert cf != 0.0 and err < 1e-12, (kind, j, k)


@pytest.mark.parametrize("n", [24, 56, 116])
@pytest.mark.parametrize("b", [-0.998, -0.98, -0.6, 0.0, 4.0, 12.0])
def test_gauss_jacobi_rule_matches_mpmath(b, n):
    # the rule of weight s^b on [0, 1] against mpmath's Jacobi (0, b) rule at 40 digits,
    # mapped by s = (1 + x) / 2: nodes to 1e-18 absolute, weights to 4e-16 relative
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp
    mp.dps = 40
    nodes, weights = mp.gauss_quadrature(n, "jacobi", 0, mp.mpf(b))
    scale = mp.mpf(2) ** (mp.mpf(b) + 1)
    ref = sorted(((x + 1) / 2, w / scale) for x, w in zip(nodes, weights))
    s, w = spectra._gauss_jacobi(n, b)
    assert s.dtype == w.dtype == np.longdouble and s.shape == w.shape == (n,)
    for i, (x, wx) in enumerate(ref):
        assert abs(mp.mpf(str(s[i])) - x) < 1e-18, (i, s[i])
        assert abs(mp.mpf(str(w[i])) - wx) < 4e-16 * wx, (i, w[i])
    # the table keeps the rule mapped to both triangles per (n, alpha), read-only
    rule = spectra._duffy_rule(n, (10.0 - b) / 2.0)
    assert spectra._duffy_rule(n, (10.0 - b) / 2.0) is rule
    assert not any(arr.flags.writeable for arr in rule)


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


def margin_terms(j, k, alpha):
    """lambda(K1), lambda(K2), -lambda(K1^(alpha-1)), -2a/(11-a) lambda(K1) on W_{j,k}:
    the four-term sum that defines the margin, the oracle for its product form."""
    lam1 = spectra.eig_K1(j, k, alpha)
    return (
        lam1,
        spectra.eig_K2(j, k, alpha),
        -spectra.eig_K1(j, k, alpha - 1.0),
        -(2.0 * alpha / (11.0 - alpha)) * lam1,
    )


def scalar_margin(j, k, alpha):
    """The margin product cell by cell, on Python ints and floats: the _factor_tables
    views, and P's coefficients written out from the product formula, no array
    arithmetic.  The reference that the array form (margin_table, and bilinear_margin,
    which reads its rows) must equal to the last bit."""
    a = float(alpha)
    if j == 0:
        return 0.0
    rows = spectra._factor_tables(a, spectra._size(j))
    s = 2.0 * (2.0 * a - 11.0) / (11.0 - a)
    den = (j + (11.0 - a)) * ((j - 1.0) + a)
    if k == 0:  # P / (a - 4) = j ((a - 8) j + 8a - 58)
        return rows[0][j] * rows[3][0] * s * (j * ((a - 8.0) * j + (8.0 * a - 58.0))) / (
            den * (8.0 - a)) + 0.0
    c2 = (a - 4.0) * (a - 8.0) - k * (k + 4)
    c1 = ((8.0 * a - 90.0) * a + 232.0) + k * (((15.0 - a) * a - 84.0) - 10 * k)
    c0 = k * (k * ((a - 12.0) * a + 11.0) + ((27.0 - a) * a - 176.0))
    return rows[0][j] * rows[5][k - 1] * s * ((c2 * j + c1) * j + c0) / (den * (k + (8.0 - a))) + 0.0


def _four_term_error(j, k, alpha):
    """|bilinear_margin - the left-to-right sum of margin_terms| over the sum of the term sizes."""
    terms = margin_terms(j, k, alpha)
    scale = sum(abs(t) for t in terms)
    m = spectra.bilinear_margin(j, k, alpha)
    if scale == 0.0:
        return 0.0 if m == 0.0 else math.inf
    return abs(m - (0.0 + terms[0] + terms[1] + terms[2] + terms[3])) / scale


def test_margin_zero_at_origin():
    for alpha in (3.0, 3.7, 4.0, 5.2):
        assert abs(spectra.bilinear_margin(0, 0, alpha)) < 1e-12
        assert spectra.bilinear_margin(0, 0, alpha) == 0.0


def test_margin_regression_values():
    assert abs(spectra.bilinear_margin(2, 1, 3.0) - 0.10982096083415012) < 1e-10
    assert abs(spectra.bilinear_margin(1, 0, 4.0) - 1.0085598443952595) < 1e-10


def test_margin_zero_set_at_three():
    for j in range(7):
        for k in range(j + 1):
            m = spectra.bilinear_margin(j, k, 3.0)
            if (j, k) == (0, 0) or k >= 2:
                assert m == 0.0 and math.copysign(1.0, m) == 1.0, (j, k)
            else:
                assert m > 1e-6, (j, k)


# the oracle's alpha - 1 rounds below 1/2, so the grid starts there; the worst
# relative error measured on it is 1.1e-15, at j <= 60 and on the table edges
_ORACLE_ALPHAS = (0.5, 1.0, 2.0, 2.5, 3.0, 3.25, 3.5, 4.0, 4.5, 5.0, 5.25, 5.45, 5.499)


def test_margin_is_its_defining_combination():
    # j = 63 | 64, 127 | 128 straddle the table sizes; 1000 reads a 1024-entry table
    worst = 0.0
    for alpha in _ORACLE_ALPHAS:
        for j in (*range(61), 63, 64, 65, 127, 128, 199, 200, 1000):
            for k in range(j + 1):
                worst = max(worst, _four_term_error(j, k, alpha))
    assert worst <= 4e-15


@pytest.mark.parametrize("j, k, alpha", [
    (1, 0, 5.45), (2, 2, 2.5), (2, 1, 3.0), (7, 3, 4.0), (40, 17, 5.25), (200, 199, 3.5),
])
def test_margin_matches_40_digit_reference(j, k, alpha):
    # the four-term sum itself is 4.1e-14 off at (1, 0, 5.45); the product at most 5.2e-16
    ref = _mpmath_reference()
    mp = ref.mp
    with mp.workdps(ref.DIGITS):
        a = mp.mpf(alpha)
        c = 2 * mp.pi ** 8
        lam1 = ref._eig_K1(j, k, a)
        lam2 = (
            lam1
            - c * mp.gamma(12 - 2 * a) * mp.rf(a, j) * mp.rf(a - 4, k)
            / (mp.gamma(k + 8 - a) * mp.gamma(j + 12 - a))
            - c * mp.gamma(12 - 2 * a) * (a - 4) * mp.rf(a, j - 1) * mp.rf(a - 3, k)
            / (mp.gamma(k + 9 - a) * mp.gamma(j + 11 - a))
            + c * mp.gamma(13 - 2 * a) * (a - 4) * mp.rf(a, j - 1) * mp.rf(a - 4, k)
            / (mp.gamma(k + 9 - a) * mp.gamma(j + 12 - a))
        )
        exact = lam1 + lam2 - ref._eig_K1(j, k, a - 1) - 2 * a / (11 - a) * lam1
    got = spectra.bilinear_margin(j, k, alpha)
    assert abs(got - exact) <= 2e-15 * abs(exact), (got, exact)


class _Poly(dict):
    """A polynomial in (m, n, s) with exact rational coefficients, keyed by exponent triples."""

    @classmethod
    def of(cls, value):
        return value if isinstance(value, _Poly) else cls({(0, 0, 0): Fraction(value)})

    def __add__(self, other):
        out = _Poly(self)
        for e, c in _Poly.of(other).items():
            out[e] = out.get(e, 0) + c
        return _Poly({e: c for e, c in out.items() if c})

    def __mul__(self, other):
        out = _Poly()
        for e1, c1 in self.items():
            for e2, c2 in _Poly.of(other).items():
                e = tuple(x + y for x, y in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return _Poly({e: c for e, c in out.items() if c})

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        return self + -_Poly.of(other)

    def __rsub__(self, other):
        return -self + other

    __radd__, __rmul__ = __add__, __mul__


def _margin_polynomial(a, j, k):
    """P of the margin product (see spectra), in the same Horner form."""
    c2 = (a - 4) * (a - 8) - k * (k + 4)
    c1 = (8 * a - 90) * a + 232 + k * ((15 - a) * a - 84 - 10 * k)
    c0 = k * (k * ((a - 12) * a + 11) + (27 - a) * a - 176)
    return (c2 * j + c1) * j + c0


def _max_on_interval(coeffs, lo, hi):
    """The maximum of sum_d coeffs[d] s^d (degree <= 2) over lo <= s <= hi."""
    def at(s):
        return sum(c * s ** d for d, c in coeffs.items())
    points = [lo, hi]
    if coeffs.get(2, 0):
        vertex = -coeffs.get(1, 0) / (2 * coeffs[2])
        points += [vertex] if lo <= vertex <= hi else []
    return max(at(s) for s in points)


def test_margin_positivity_certificate():
    # with j = k + m, k = 1 + n and alpha = 3 + s, P is a polynomial in m, n >= 0
    # whose coefficients are all <= 0 for s in [0, 5/2] and whose constant term is < 0;
    # every other factor of the product has a fixed sign on 3 <= alpha < 11/2, so
    # the margin is >= 0 there at every k >= 1
    m, n, s = (_Poly({e: Fraction(1)}) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    P = _margin_polynomial(3 + s, 1 + n + m, 1 + n)
    by_monomial = {}
    for (dm, dn, ds), c in P.items():
        by_monomial.setdefault((dm, dn), {})[ds] = c
    assert by_monomial == {
        (2, 2): {0: -1},
        (2, 1): {0: -6},
        (2, 0): {2: 1, 1: -6},  # s (s - 6)
        (1, 3): {0: -2},
        (1, 2): {0: -24},
        (1, 1): {2: 1, 1: -3, 0: -80},
        (1, 0): {2: 9, 1: -45, 0: -24},  # 3 (3 s^2 - 15 s - 8)
        (0, 4): {0: -1},
        (0, 3): {0: -18},
        (0, 2): {2: 1, 1: -3, 0: -107},
        (0, 1): {2: 9, 1: -27, 0: -234},  # 9 (s^2 - 3 s - 26)
        (0, 0): {2: 8, 1: -24, 0: -144},  # 8 (s - 6)(s + 3)
    }
    for monomial, coeffs in by_monomial.items():
        assert _max_on_interval(coeffs, Fraction(0), Fraction(5, 2)) <= 0, monomial
    assert _max_on_interval(by_monomial[(0, 0)], Fraction(0), Fraction(5, 2)) < 0
    # at k = 0, P = j (a - 4)((a - 8) j + 8a - 58), and (a - 8) j + 8a - 58 < 0 for every
    # j >= 0 when a < 29/4: its slope a - 8 is negative and its value at j = 0 is 8 (a - 29/4)
    a, j = (_Poly({e: Fraction(1)}) for e in ((0, 0, 1), (1, 0, 0)))
    row = (a - 8) * j + 8 * a - 58
    assert _margin_polynomial(a, j, 0) == j * (a - 4) * row
    assert row == _Poly({(1, 0, 1): Fraction(1), (1, 0, 0): Fraction(-8), (0, 0, 1): Fraction(8),
                         (0, 0, 0): Fraction(-58)})
    assert Fraction(29, 4) - 8 < 0 and 8 * Fraction(29, 4) - 58 == 0


def _first_negative_k1_row(alpha):
    """The first row j at which the k = 1 margin at alpha in (2, 3) is < 0: the margin has
    the sign of -P there, and P(i, 0), i = j - 1, is a quadratic in i with a positive
    leading and a negative constant coefficient, so it is > 0 exactly past its one
    positive root.  The row comes from that root, checked in exact rationals."""
    a, i = Fraction(alpha), _Poly({(1, 0, 0): Fraction(1)})
    P = _margin_polynomial(a, 1 + i, 1)
    c2, c1, c0 = (P.get((d, 0, 0), Fraction(0)) for d in (2, 1, 0))
    assert set(P) <= {(2, 0, 0), (1, 0, 0), (0, 0, 0)} and c2 > 0 > c0
    first = math.floor((-c1 + math.sqrt(c1 * c1 - 4 * c2 * c0)) / (2 * c2)) + 2
    assert _margin_polynomial(a, first - 1, 1) <= 0 < _margin_polynomial(a, first, 1)
    return first


def test_margin_sign_pattern_on_every_cell():
    # the certificate's signs against margin_table, cell by cell at jmax 300: > 0 at
    # every j >= 1 on (3, 11/2); at alpha = 3 the (alpha - 3)_(k-1) k-factor makes every
    # k >= 2 cell exactly 0.0; on (2, 3) that factor turns every k >= 2 cell < 0, the k = 1
    # cells are < 0 from the root of P(i, 0) on, and the k = 0 cells stay > 0
    def cells(alpha):
        return (np.concatenate(parts) for parts in zip(*spectra.margin_table(alpha, 300)))

    for alpha in (3.2, 4.0, 5.45, 5.499):
        j, k, m = cells(alpha)
        assert (m[j >= 1] > 0.0).all() and (m[j == 0] == 0.0).all(), alpha
    j, k, m = cells(3.0)
    zero = (j == 0) | (k >= 2)
    assert (m[zero] == 0.0).all() and (m[~zero] > 0.0).all()
    for alpha in (2.5, 2.9):
        j, k, m = cells(alpha)
        first = _first_negative_k1_row(alpha)
        assert (m[k >= 2] < 0.0).all() and (m[(k == 0) & (j >= 1)] > 0.0).all(), alpha
        assert ((m[k == 1] < 0.0) == (j[k == 1] >= first)).all(), (alpha, first)


def test_margin_violation_below_three():
    assert spectra.bilinear_margin(2, 2, 2.5) < -1e-3


@pytest.mark.parametrize("fn", [spectra.bilinear_margin])
def test_margin_validates_its_arguments(fn):
    for j, k in ((2, 3), (3, -1), (0, -1)):
        with pytest.raises(ValueError):
            fn(j, k, 4.0)
    for alpha in (0.0, -0.5, 5.5, 6.0, math.nan):
        with pytest.raises(ValueError):
            fn(3, 1, alpha)
    for j, k in ((0, 0), (64, 7), (150, 70), (9, 0), (10 ** 4, 0), (10 ** 4, 5000), (10 ** 4, 10 ** 4)):
        want = fn(j, k, 4.0)
        got = fn(np.int64(j), np.int64(k), 4.0)
        assert got == want == scalar_margin(j, k, 4.0) and type(got) is type(want) is float, (j, k)


def test_margin_scan_builds_one_table_set_per_size():
    # every row j <= 200 is in block 0, so a j <= 200 scan builds one block per alpha,
    # from one table set (for the block's last row), and repeats read it
    spectra._factor_tables.cache_clear()
    spectra._margin_cells.cache_clear()
    for _ in range(2):
        for j in range(201):
            for k in range(j + 1):
                spectra.bilinear_margin(j, k, 4.0)
    assert spectra._factor_tables.cache_info().misses == 1
    assert spectra._margin_cells.cache_info().misses == 1
    # a diagonal scan to j = 2000 builds each block it crosses once, and a table set
    # per size its blocks reach
    spectra._factor_tables.cache_clear()
    spectra._margin_cells.cache_clear()
    for j in range(2001):
        spectra.bilinear_margin(j, j, 4.0)
    blocks = range(_block_of(2000) + 1)
    assert spectra._margin_cells.cache_info().misses == len(blocks) == len(_EDGES) + 1
    sizes = {spectra._size(spectra._block_start(b + 1) - 1) for b in blocks}
    assert spectra._factor_tables.cache_info().misses == len(sizes) <= 4
    assert spectra._margin_cells.cache_info().currsize <= spectra._margin_cells.cache_info().maxsize == 8


def _block_of(j):
    """The margin block that holds row j."""
    return j * (j + 1) // 2 >> spectra._MARGIN_BITS


def _margin_table_cells(alpha, jmax):
    """margin_table's blocks joined: (j, k, margin)."""
    blocks = list(spectra.margin_table(alpha, jmax))
    return tuple(np.concatenate(parts) for parts in zip(*blocks))


def _margin_table_values(alpha, jmax):
    """margin_table's margins joined, without the index arrays."""
    return np.concatenate([margin for _, _, margin in spectra.margin_table(alpha, jmax)])


#: the first row of every margin block up to j = 2000
_EDGES = [spectra._block_start(b) for b in range(1, _block_of(2000) + 1)]
# jmax at the table sizes (64, 128), each side; the block edges have their own test
_TABLE_JMAX = [0, 1, 63, 64, 65, 127, 128]


def _same_bits(got, want):
    """Float arrays equal to the last bit: == takes -0.0 for 0.0, so the signs of zero too."""
    return np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


def test_block_starts_partition_the_scan():
    # block b holds the rows whose first cell j (j + 1) / 2 is in [b 2^B, (b + 1) 2^B)
    assert _EDGES == [j for j in range(1, 2001) if _block_of(j) != _block_of(j - 1)]
    assert _block_of(200) == 0 < _block_of(2000) and len(_EDGES) > 8
    for b in range(3000):
        j0, size = spectra._block_start(b), 1 << spectra._MARGIN_BITS
        assert j0 * (j0 + 1) // 2 >= b * size and (j0 == 0 or (j0 - 1) * j0 // 2 < b * size), b
        assert _block_of(j0) == b or spectra._block_start(b + 1) == j0, b


@pytest.mark.parametrize("alpha", [0.1, 1.0 - 1e-9, 1.0, 3.0, 4.0, 5.499])
def test_margin_table_is_margin_terms_cell_by_cell(alpha):
    for jmax in _TABLE_JMAX:
        j, k, got = _margin_table_cells(alpha, jmax)
        cells = [(jj, kk) for jj in range(jmax + 1) for kk in range(jj + 1)]
        assert list(zip(j.tolist(), k.tolist())) == cells, jmax
        want = np.array([scalar_margin(jj, kk, alpha) for jj, kk in cells])
        assert _same_bits(got, want), jmax
        calls = np.array([spectra.bilinear_margin(jj, kk, alpha) for jj, kk in cells])
        assert _same_bits(calls, want), jmax
    # and the four-term sum within its rounding (measured worst 3.0e-15, at alpha = 0.1)
    assert _checks.margin_four_term_error(alpha, 129) <= 4e-15


@pytest.mark.parametrize("alpha", [0.3, 2.5, 3.0, 4.0, 5.45])
def test_margin_cells_equal_the_table_at_every_block_edge(alpha):
    # every cell of the rows on both sides of each block edge up to j = 2000, read by
    # bilinear_margin and by margin_table cut there, and at the first and last two
    # edges cell by cell in Python floats
    table = _margin_table_values(alpha, 2000)
    assert len(table) == 2001 * 2002 // 2
    for edge in _EDGES:
        rows = slice((edge - 1) * edge // 2, (edge + 1) * (edge + 2) // 2)
        cells = [(jj, kk) for jj in (edge - 1, edge) for kk in range(jj + 1)]
        calls = np.array([spectra.bilinear_margin(jj, kk, alpha) for jj, kk in cells])
        assert _same_bits(calls, table[rows]), edge
        if edge in _EDGES[:2] + _EDGES[-2:]:
            want = np.array([scalar_margin(jj, kk, alpha) for jj, kk in cells])
            assert _same_bits(want, table[rows]), edge
    for jmax in (_EDGES[0] - 1, _EDGES[0], _EDGES[0] + 1, _EDGES[1] - 1, _EDGES[1]):
        cut = _margin_table_values(alpha, jmax)
        assert _same_bits(cut, table[:len(cut)]), jmax
    # spot cells at j = 10^4, where a block holds a few rows
    for kk in (0, 1, 2, 3, 4, 5, 4999, 5000, 9998, 9999, 10 ** 4):
        got = spectra.bilinear_margin(10 ** 4, kk, alpha)
        want = scalar_margin(10 ** 4, kk, alpha)
        assert _same_bits(np.array([got]), np.array([want])), kk


_ORDERS = {  # sort keys of a cell (j, k); scan order is (j, k)
    "column": lambda j, k: (k, j),
    "diagonal": lambda j, k: (j - k, k),
    "reversed rows": lambda j, k: (-j, k),
}


@pytest.mark.parametrize("order", list(_ORDERS), ids=list(_ORDERS))
def test_margin_any_access_order_equals_the_table(order):
    # on blocks 0-2, all kept, every order reads the same numbers as the table; down
    # the column k = 0 and the diagonal to j = 2000 each step may leave its block, and
    # with more blocks there than the 8 kept the cache evicts on the way
    jmax = _EDGES[1] + 1
    cells = [(j, k) for j in range(jmax + 1) for k in range(j + 1)]
    got = {cell: spectra.bilinear_margin(*cell, 4.0)
           for cell in sorted(cells, key=lambda cell: _ORDERS[order](*cell))}
    assert _same_bits(np.array([got[cell] for cell in cells]), _margin_table_cells(4.0, jmax)[2])
    table = _margin_table_values(4.0, 2000)
    far = sorted({(j, k) for j in range(2001) for k in (0, j)}, key=lambda cell: _ORDERS[order](*cell))
    for _ in range(2):
        calls = np.array([spectra.bilinear_margin(j, k, 4.0) for j, k in far])
        assert _same_bits(calls, table[[j * (j + 1) // 2 + k for j, k in far]])
    assert spectra._margin_cells.cache_info().currsize <= 8


def test_margin_alternating_alpha_equals_the_table():
    # alpha alternates between 4.0 and 4.5 from cell to cell across the first two block
    # edges; the blocks of both stay kept
    jmax = _EDGES[1] + 1
    cells = [(j, k) for j in range(jmax + 1) for k in range(j + 1)]
    want = {alpha: _margin_table_cells(alpha, jmax)[2] for alpha in (4.0, 4.5)}
    for first in (0, 1):
        got = {4.0: np.full(len(cells), np.nan), 4.5: np.full(len(cells), np.nan)}
        for i, cell in enumerate(cells):
            alpha = (4.0, 4.5)[(i + first) % 2]
            got[alpha][i] = spectra.bilinear_margin(*cell, alpha)
        for alpha, values in got.items():
            read = ~np.isnan(values)
            assert _same_bits(values[read], want[alpha][read]), (first, alpha)


def test_margin_table_blocks_hold_at_most_the_block_rows():
    # a block holds the rows of one block index, at most 2^B + j + 1 cells, and the
    # last block is cut at jmax
    jmax, first_blocks = 3000, []
    for b, (j, k, margin) in enumerate(spectra.margin_table(4.0, jmax)):
        rows = range(spectra._block_start(b), min(spectra._block_start(b + 1), jmax + 1))
        assert j[0] == rows[0] and j[-1] == k[-1] == rows[-1], b
        assert {_block_of(row) for row in rows} == {b}
        assert margin.shape == j.shape == k.shape == (sum(rows) + len(rows),)
        assert len(margin) <= (1 << spectra._MARGIN_BITS) + j[-1] + 1
        first_blocks += [(j, k, margin)] if b < 12 else []
    assert b == _block_of(jmax)
    # a cached block is its margin_table block, read-only, and the cache keeps at most 8
    spectra._margin_cells.cache_clear()
    for b, (j, k, margin) in enumerate(first_blocks):
        first, cells = spectra._margin_cells(4.0, b)
        assert first == j[0] * (j[0] + 1) // 2 and _same_bits(np.asarray(cells), margin)
        with pytest.raises(TypeError):
            cells[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            np.asarray(cells)[0] = 1.0
    assert spectra._margin_cells.cache_info().currsize == 8


def test_margin_table_validates_like_bilinear_margin():
    for alpha in (0.0, -0.5, 5.5, 6.0, math.nan):
        with pytest.raises(ValueError) as scalar:
            spectra.bilinear_margin(3, 1, alpha)
        # raised by the call itself, before any block is read
        with pytest.raises(ValueError) as table:
            spectra.margin_table(alpha, 3)
        assert str(table.value) == str(scalar.value)
    with pytest.raises(ValueError, match="jmax must be >= 0, got -1"):
        spectra.margin_table(4.0, -1)
    with pytest.raises(TypeError, match="jmax must be an integer, got 2.5"):
        spectra.margin_table(4.0, 2.5)


#: every cell of the rows on both sides of the first two margin block edges
_EDGE_CELLS = [(j, k) for edge in _EDGES[:2] for j in (edge - 1, edge) for k in range(j + 1)]


def _refusals():
    """The message of each refused call of test_margin_validates_its_arguments' kinds."""
    messages = []
    for j, k, alpha in ((2, 3, 4.0), (3, -1, 4.0), (3, 1, math.nan), (3, 1, 0.0), (3, 1, 5.5)):
        with pytest.raises(ValueError) as refused:
            spectra.bilinear_margin(j, k, alpha)
        messages.append(str(refused.value))
    return messages


def test_hot_block_reads_what_the_cache_reads():
    # a float alpha on the block read last is read without a cache lookup; 4.0 and 3.5
    # each read twice in a row hit it, while np.float64(4.0), 4 and the first read of each
    # after the other alpha take the cache, on both sides of the first two block edges
    _cold_caches()
    cold = _refusals()
    cells = _EDGE_CELLS
    assert _EDGES[0] == 256 and {_block_of(j) for j, _ in cells} == {0, 1, 2}
    alphas = (4.0, 4.0, np.float64(4.0), 4, 3.5, 3.5)
    table = {alpha: _margin_table_values(alpha, _EDGES[1]) for alpha in (4.0, 3.5)}
    before = spectra._margin_cells.cache_info()
    got = [[] for _ in alphas]
    for j, k in cells:
        for read, alpha in zip(got, alphas):
            read.append(spectra.bilinear_margin(j, k, alpha))
    after = spectra._margin_cells.cache_info()
    assert (after.hits + after.misses) - (before.hits + before.misses) == 4 * len(cells)
    scan = [j * (j + 1) // 2 + k for j, k in cells]
    for read, alpha in zip(got, alphas):
        assert all(type(m) is float for m in read)
        assert _same_bits(np.array(read), table[float(alpha)][scan]), alpha
    # a run at one float alpha crosses each edge on the hot block, up and down
    for order in (cells, cells[::-1]):
        read = {cell: spectra.bilinear_margin(*cell, 4.0) for cell in order}
        assert _same_bits(np.array([read[cell] for cell in cells]), table[4.0][scan])
    # right after a hot read, refused arguments raise what they raise on cold caches,
    # and np.int64 indices read the same floats
    for j, k in cells[::97]:
        for _ in range(2):
            want = spectra.bilinear_margin(j, k, 4.0)
        assert _refusals() == cold
        got = spectra.bilinear_margin(np.int64(j), np.int64(k), 4.0)
        assert got == want and type(got) is float


def test_repeated_scan_makes_no_cache_lookup():
    # after the first read of a j <= 200 scan at one float alpha, the scan and a second
    # one read the hot block alone; cache_clear drops it too
    spectra.bilinear_margin(3, 1, 4.0)
    spectra._margin_cells.cache_clear()
    spectra.bilinear_margin(0, 0, 4.0)
    first = spectra._margin_cells.cache_info()
    assert (first.hits, first.misses) == (0, 1)
    for _ in range(2):
        for j in range(201):
            for k in range(j + 1):
                spectra.bilinear_margin(j, k, 4.0)
    assert spectra._margin_cells.cache_info() == first


def test_hot_block_is_shared_by_threads_without_a_torn_read():
    # four threads, each at its own alpha, replace the one hot block under a short switch
    # interval; a slot read half from one block and half from another would give a cell
    # of the wrong alpha or row
    cells = _EDGE_CELLS
    scan = [j * (j + 1) // 2 + k for j, k in cells]
    alphas = (4.0, 4.5, 3.5, 5.0)
    want = {alpha: _margin_table_values(alpha, _EDGES[1])[scan] for alpha in alphas}
    wrong = []

    def read(alpha):
        for _ in range(3):
            got = np.array([spectra.bilinear_margin(j, k, alpha) for j, k in cells])
            if not _same_bits(got, want[alpha]):
                wrong.append(alpha)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read, args=(alpha,)) for alpha in alphas]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads) and wrong == []


def _cold_caches():
    spectra._factor_tables.cache_clear()
    spectra._margin_cells.cache_clear()


def test_alpha_is_checked_once_per_cached_build(monkeypatch):
    # a warm closed-form call makes no _check_alpha call: each cold margin block or
    # table set makes exactly one, in the builder that keys it by alpha
    calls, check = [], spectra._check_alpha
    monkeypatch.setattr(spectra, "_check_alpha", lambda *a, **kw: calls.append(a) or check(*a, **kw))
    _cold_caches()
    j, k = np.arange(100), np.zeros(100, dtype=int)
    reads = [
        lambda: spectra.bilinear_margin(150, 70, 4.0),  # a cold block and its cold table set
        lambda: spectra.eig_K1(150, 70, 4.0),  # the same table set
        lambda: spectra.eig_K2(150, 70, 4.0),
        lambda: spectra._eig_K1_arrays(j, k, 4.0),  # a cold smaller table set
        lambda: spectra.bilinear_margin(300, 0, 4.0),  # block 1, with a cold table set
        lambda: spectra.bilinear_margin(400, 0, 4.0),  # block 2, on block 1's table set
        lambda: spectra.bilinear_margin(150, 70, 4.5),
        lambda: spectra.eig_K2(0, 0, 4.5),
    ]
    cold = [2, 0, 0, 1, 2, 1, 2, 1]

    def builds():
        return spectra._margin_cells.cache_info().misses + spectra._factor_tables.cache_info().misses

    for read, want in zip(reads, cold):
        before = len(calls), builds()
        read()
        assert len(calls) - before[0] == builds() - before[1] == want
    calls.clear()
    for read in reads * 2:
        read()
    assert calls == []


def test_refused_alpha_is_refused_on_every_call_and_never_kept():
    # a builder that raises is not kept, so a refused alpha raises the message of
    # margin_table (eig_K1_ratio for the eigenvalues, on (-1, 11/2)) on every call
    _cold_caches()
    spectra.bilinear_margin(3, 1, 4.0)
    sizes = spectra._margin_cells.cache_info().currsize, spectra._factor_tables.cache_info().currsize
    margin = {"bilinear_margin": lambda alpha: spectra.bilinear_margin(3, 1, alpha)}
    eigen = {
        "eig_K1": lambda alpha: spectra.eig_K1(3, 1, alpha),
        "eig_K2": lambda alpha: spectra.eig_K2(3, 1, alpha),
        "eig_K2 at j = 0": lambda alpha: spectra.eig_K2(0, 0, alpha),
        "_eig_K1_arrays": lambda alpha: spectra._eig_K1_arrays(np.arange(4), np.zeros(4, int), alpha),
    }
    for calls, refused, reference in (
        (margin, (0.0, -0.5, 5.5, 6.0, math.nan), lambda alpha: list(spectra.margin_table(alpha, 3))),
        (eigen, (-1.0, -1.5, 5.5, 6.0, math.nan), lambda alpha: spectra.eig_K1_ratio(3, 1, alpha)),
    ):
        for alpha in refused:
            with pytest.raises(ValueError) as want:
                reference(alpha)
            assert "outside" in str(want.value)
            for name, call in calls.items():
                for _ in range(2):
                    with pytest.raises(ValueError) as got:
                        call(alpha)
                    assert str(got.value) == str(want.value), (name, alpha)
    assert (spectra._margin_cells.cache_info().currsize,
            spectra._factor_tables.cache_info().currsize) == sizes


def test_alpha_of_any_float_type_shares_one_block():
    # 4, 4.0, np.float64(4.0) and a 0-d array, which is not hashable, key the same block
    # and table sets, bit for bit
    _cold_caches()
    cells = [(j, k) for j in range(201) for k in range(j + 1)]
    alphas = (4, 4.0, np.float64(4.0), np.array(4.0))
    for fn in (spectra.bilinear_margin, spectra.eig_K1, spectra.eig_K2):
        got = [np.array([fn(j, k, alpha) for j, k in cells]) for alpha in alphas]
        assert all(_same_bits(got[0], other) for other in got[1:]), fn.__name__
        assert all(type(fn(*cells[-1], alpha)) is float for alpha in alphas)
    assert spectra._margin_cells.cache_info().currsize == 1
    assert spectra._factor_tables.cache_info().currsize == len({spectra._size(j) for j in range(201)})


# ---------------------------------------------------------------------------
# intertwining spectrum


def test_intertwining_base_value():
    assert abs(spectra.intertwining_spectrum(2.0, 0, 0) - 10.0) < 1e-12


def test_intertwining_zero_at_denominator_poles():
    # 1 / Gamma(k + (Q - d)/4 - 3) vanishes where that argument is a nonpositive integer
    for d in (10.0, 14.0, 18.0):
        for j in range(5):
            for k in range(j + 1):
                v = spectra.intertwining_spectrum(d, j, k)
                if k + (Q - d) / 4.0 - 3.0 <= 0.0:
                    assert v == 0.0, (d, j, k)
                else:
                    assert v > 0.0, (d, j, k)
    # the neighbour of the pole cell (14, 2, 1): Gamma(11) / Gamma(4) * Gamma(8) / Gamma(1)
    ref = math.gamma(11) / math.gamma(4) * math.gamma(8) / math.gamma(1)
    assert ref == 3_048_192_000.0
    assert abs(spectra.intertwining_spectrum(14.0, 2, 2) - ref) <= 1e-14 * ref


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


def test_logsob_gap_matches_mpmath_digamma():
    # C0 [psi(j + Q/4) + psi(k + Q/4 - 3) - psi(Q/4) - psi(Q/4 - 3)] at 40 digits
    mp = _mpmath_reference().mp
    idx = (1, 10, 200, 10_000)
    worst = 0.0
    with mp.workdps(40):
        q4 = mp.mpf(Q) / 4
        c0 = mp.mpf(2) ** (Q // 2 + 1) * mp.pi ** 8 / (mp.gamma(q4) * mp.gamma(q4 - 3))
        for j in idx:
            for k in (k for k in idx if k <= j):
                psi = mp.digamma(j + q4) + mp.digamma(k + q4 - 3) - mp.digamma(q4) - mp.digamma(q4 - 3)
                exact = c0 * psi
                gap = spectra.logsob_gap(j, k)
                assert abs(gap - exact) <= 1e-12 * exact, (j, k, gap, exact)
                worst = max(worst, float(abs(gap - exact) / exact))
    # measured 5.7e-16 with the compensated prefix sums; a plain cumsum is 3e-15 off at 10^4
    assert worst <= 2e-15


def test_logsob_gap_monotone():
    prev = 0.0
    for j in range(1, 6):
        g = spectra.logsob_gap(j, 0)
        assert g > prev
        prev = g


# ---------------------------------------------------------------------------
# tables


def test_quadrature_table_holds_every_cell():
    # every cell k <= j <= jmax, in scan order (j, then k)
    table = spectra.eig_quadrature_table(spectra.kernel_K1(4.0), 4.0, 3)
    assert table.alpha == 4.0
    assert list(table.values) == [(j, k) for j in range(4) for k in range(j + 1)]


@pytest.mark.parametrize("args, error, match", [
    ((-1,), ValueError, "jmax must be >= 0, got -1"),
    ((2.5,), TypeError, "jmax must be an integer, got 2.5"),
])
def test_quadrature_table_names_a_bad_index(args, error, match):
    with pytest.raises(error, match=match):
        spectra.eig_quadrature_table(spectra.kernel_K1(4.0), 4.0, *args)


@pytest.mark.parametrize("jmax", [2, 6])
def test_quadrature_warm_table_equals_cold(jmax):
    # a table does not depend on what the kept rules held before it: computed right after
    # the cache is cleared, after a deeper and a shallower table, and after all the
    # other tables, it is the same to the last bit
    kernels = [(make(alpha), alpha) for alpha in (1.5, 4.0, 5.499)
               for make in (spectra.kernel_K1, spectra.kernel_K2)]

    def table(kern, alpha):
        return [v.hex() for v in spectra.eig_quadrature_table(kern, alpha, jmax).values.values()]

    for kern, alpha in kernels:
        spectra._duffy_rule.cache_clear()
        cold = table(kern, alpha)
        for first in (kernels[-1:] + kernels[:1], [ka for ka in kernels if ka[0] is not kern]):
            spectra._duffy_rule.cache_clear()
            for other in first:
                table(*other)
            assert table(kern, alpha) == cold, (kern.name, [k.name for k, _ in first])


def _table_order_by_order(kern, alpha, jmax):
    """eig_quadrature_table's values as one jacobi33 call per m, each m's cells stored at
    their scan positions (j, then k), the keys from np.tril_indices."""
    n = max(24, jmax + 16)
    theta, d2, mu, c, x2, cphi = spectra._duffy_rule(n, alpha)
    G = specfun.gegenbauer3(jmax, cphi)
    values = np.empty((jmax + 1) * (jmax + 2) // 2)
    with np.errstate(over="ignore", invalid="ignore"):
        kmu = kern.at(d2, theta) * mu
        v = np.concatenate([np.einsum("mil,il->mi", G[:, n:].reshape(-1, n, n), kmu[0]),
                            (G[:, :n, None] * kmu[1]).reshape(-1, n * n)], axis=1)
        for m in range(jmax + 1):
            k = np.arange(jmax + 1 - m)
            values[(k + m) * (k + m + 1) // 2 + k] = specfun.jacobi33(jmax - m, m, x2) @ (c ** m * v[m])
        values *= spectra._FH_CONST
    j, k = np.tril_indices(jmax + 1)
    return dict(zip(zip(j.tolist(), k.tolist()), values.tolist()))


@pytest.mark.parametrize("jmax", [0, 1, 2, 6, 8, 9, 20, 40])
def test_quadrature_table_equals_the_order_by_order_loop(jmax):
    # one jacobi33 call per block of orders, each m contracted on its own, gives the table
    # of one call per m to the last bit, keys and their order included
    for alpha in (-0.5, 4.0, 5.45):
        for kern in (spectra.kernel_K1(alpha), spectra.kernel_K2(alpha)):
            got = spectra.eig_quadrature_table(kern, alpha, jmax).values
            want = _table_order_by_order(kern, alpha, jmax)
            assert list(got) == list(want)
            assert [v.hex() for v in got.values()] == [v.hex() for v in want.values()], kern.name


@pytest.mark.parametrize("arg", ["d2", "theta"])
def test_quadrature_kernel_cannot_write_the_grid(arg):
    # a kernel reads d2 and theta of the rule every table at its (n, alpha) shares, both
    # read-only: writing into either raises, and the next table is unchanged
    kern = spectra.kernel_K1(4.0)
    want = spectra.eig_quadrature_table(kern, 4.0, 3).values

    def at(d2, theta):
        {"d2": d2, "theta": theta}[arg][...] = 1.0
        return kern.at(d2, theta)

    with pytest.raises(ValueError, match="read-only"):
        spectra.eig_quadrature_table(spectra.ZonalKernel(at), 4.0, 3)
    got = spectra.eig_quadrature_table(kern, 4.0, 3).values
    assert [v.hex() for v in got.values()] == [v.hex() for v in want.values()]


def _duffy_nodes(n, alpha):
    """(theta, phi), each (2, n, n), of the Duffy triangles A: (u, phi) = (U s, Phi s t) and
    B: (u, phi) = (U s t, Phi s), u = theta^2, U = (pi/2)^2, Phi = pi, at the Gauss-Jacobi
    nodes s of weight s^(10 - 2 alpha) and the Gauss-Legendre nodes t, both on [0, 1]."""
    s = spectra._gauss_jacobi(n, 10.0 - 2.0 * alpha)[0].astype(float)[:, None]
    t = (np.polynomial.legendre.leggauss(n)[0] + 1.0) / 2.0
    U, PHI = (math.pi / 2.0) ** 2, math.pi
    theta = np.stack([np.broadcast_to(np.sqrt(U * s), (n, n)), np.sqrt(U * (s * t))])
    phi = np.stack([PHI * (s * t), np.broadcast_to(PHI * s, (n, n))])
    return theta, phi


def test_quadrature_kernel_receives_the_distance_of_its_level():
    # d2 is 4 sin^4(theta/2) + 4 cos theta sin^2(phi/2) at the mapped nodes of both
    # triangles, bit for bit, not the cancelling 1 + cos^2 theta - 2 cos theta cos phi
    kern, seen = spectra.kernel_K1(5.45), []

    def at(d2, theta):
        seen.append((d2, theta))
        return kern.at(d2, theta)

    spectra.eig_quadrature_table(spectra.ZonalKernel(at), 5.45, 6)
    [(d2, theta)] = seen
    th, phi = _duffy_nodes(24, 5.45)
    want = 4.0 * np.sin(th / 2.0) ** 4 + 4.0 * np.cos(th) * np.sin(phi / 2.0) ** 2
    assert theta.tobytes() == th.tobytes() and d2.shape == want.shape == (2, 24, 24)
    assert d2.tobytes() == want.tobytes()


def test_quadrature_table_that_overflows_raises():
    # a kernel that overflows: the table runs under one np.errstate, so its sums do not
    # warn, and it raises instead of returning inf, naming the kernel
    kern = spectra.ZonalKernel(lambda d2, theta: np.full_like(d2, np.inf), name="K1 at alpha = 4.0")
    with pytest.raises(ValueError, match=r"K1 at alpha = 4\.0 is not finite"):
        spectra.eig_quadrature_table(kern, 4.0, 3)


_INDEXED = {
    "zonal": lambda j, k: specfun.zonal(j, k, 0.1, 0.2),
    "eig_K1": lambda j, k: spectra.eig_K1(j, k, 4.0),
    "eig_K2": lambda j, k: spectra.eig_K2(j, k, 4.0),
    "eig_K1_ratio": lambda j, k: spectra.eig_K1_ratio(j, k, 4.5),
    "bilinear_margin": lambda j, k: spectra.bilinear_margin(j, k, 4.5),
    "intertwining_spectrum": lambda j, k: spectra.intertwining_spectrum(4.0, j, k),
    "logsob_gap": spectra.logsob_gap,
    "logsob_gap_limit": spectra.logsob_gap_limit,
}


@pytest.mark.parametrize("call", list(_INDEXED.values()), ids=list(_INDEXED))
def test_indices_are_integers(call):
    # an index that names no subspace is an error, not a value; numpy integers are indices
    want = call(4, 1)
    assert call(np.int64(4), np.int32(1)) == want
    for j, k in ((2.5, 1), (4, 1.0), (np.float64(4.0), 1)):
        with pytest.raises(TypeError, match=r"indices \(j, k\) must be integers"):
            call(j, k)


@pytest.mark.parametrize("alpha, jmax", [(alpha, jmax) for alpha in (3.0, 3.25, 3.5, 4.0, 4.75,
                                                                      5.0, 5.2, 5.25, 5.3, 5.45)
                                         for jmax in (20, 40)] + [(3.5, 100), (4.0, 100)])
def test_quadrature_high_degree(alpha, jmax):
    # criterion 04's bounds far above its jmax 6: a fixed 24-node rule fails here from
    # (19, 6) at alpha = 4, and the rule that follows jmax does not; and every table within
    # 1e-14 of its largest entry (measured: at most 6.2e-15, at alpha = 5.45, jmax 40)
    for kind in ("K1", "K2"):
        cells = list(spectra._oracle_cells(kind, alpha, jmax))
        assert len(cells) == (jmax + 1) * (jmax + 2) // 2
        top = max(abs(cf) for _, _, cf, _, _ in cells)
        for j, k, cf, qd, err in cells:
            assert err < (1e-6 if cf != 0.0 else 1e-8), (kind, j, k)
            assert abs(qd - cf) < 1e-14 * top, (kind, j, k)


def test_quadrature_rule_follows_jmax(monkeypatch):
    # one rule of n = max(24, jmax + 16) nodes in s and in t, for both triangles, built
    # once per (n, alpha), and one kernel call per table, on the (2, n, n) nodes
    sizes = []
    leggauss = spectra.leggauss
    monkeypatch.setattr(spectra, "leggauss", lambda n: sizes.append(n) or leggauss(n))
    spectra._duffy_rule.cache_clear()
    for jmax in (0, 6, 8, 9, 20):
        n = max(24, jmax + 16)
        for alpha in (4.0, 5.0):
            kern, shapes = spectra.kernel_K1(alpha), []

            def at(d2, th, kern=kern, shapes=shapes):
                shapes.append((d2.shape, th.shape))
                return kern.at(d2, th)

            spectra.eig_quadrature_table(spectra.ZonalKernel(at), alpha, jmax)
            assert shapes == [((2, n, n), (2, n, n))], (jmax, alpha)
    # jmax 0, 6 and 8 share n = 24; 9 and 20 take 25 and 36
    assert sizes == [24, 24, 25, 25, 36, 36]
    spectra._duffy_rule.cache_clear()
