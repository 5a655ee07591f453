from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpdiv.intpoly import (
    IntPoly,
    NotPowerSums,
    ZeroConstantTerm,
    ZeroDivisor,
    divides_with_quotient,
    format_poly,
    gcd_primitive,
    poly_from_power_sums,
    power_sums_from_poly,
    squarefree_over_Q,
)

import oracles

support_in_tk = IntPoly.deflate

D1_POLY = IntPoly([1, 1, 0, 2, 4])  # 4t^4 + 2t^3 + t + 1

coeff = st.integers(min_value=-30, max_value=30)
small_poly = st.lists(coeff, min_size=0, max_size=8).map(IntPoly)
nonzero_poly = small_poly.filter(bool)
unit_head_poly = st.lists(coeff, min_size=0, max_size=7).map(lambda c: IntPoly([1] + c))


class TestBasics:
    def test_normalization(self):
        assert IntPoly([1, 2, 0, 0]).coeffs == (1, 2)
        assert IntPoly([0, 0]).coeffs == ()
        assert not IntPoly([])

    def test_formatting(self):
        assert format_poly(D1_POLY) == "4t^4 + 2t^3 + t + 1"
        assert format_poly(IntPoly([1, 0, 2]), spaced=False) == "2t^2+1"
        assert format_poly(IntPoly([1, 0, 0, -4, 0, 0, 8]), spaced=False) == "8t^6-4t^3+1"
        assert format_poly(IntPoly([-1, 1])) == "t - 1"
        assert format_poly(IntPoly()) == "0"

    def test_inflate_deflate(self):
        h = IntPoly([1, -4, 8])
        assert h.inflate(3).coeffs == (1, 0, 0, -4, 0, 0, 8)
        assert h.inflate(3).deflate(3) == h


class TestDividesWithQuotient:
    def test_product_divides(self):
        n = D1_POLY * IntPoly([1, 0, 2])
        ok, q = divides_with_quotient(D1_POLY, n)
        assert ok and q == IntPoly([1, 0, 2])

    def test_unit_divisor(self):
        ok, q = divides_with_quotient(IntPoly([1]), D1_POLY)
        assert ok and q == D1_POLY

    def test_f3_pair_does_not_divide(self):
        lc = IntPoly([1, 1, 3])
        ld = IntPoly([1, 1, -2, 3, 9])
        ok, q = divides_with_quotient(lc, ld)
        assert not ok and q is None

    def test_zero_divisor(self):
        with pytest.raises(ZeroDivisor):
            divides_with_quotient(IntPoly(), D1_POLY)

    def test_zero_dividend(self):
        ok, q = divides_with_quotient(D1_POLY, IntPoly())
        assert ok and q == IntPoly()

    def test_rational_but_not_integral_quotient(self):
        ok, _ = divides_with_quotient(IntPoly([0, 2]), IntPoly([0, 0, 1]))  # t^2 / 2t
        assert not ok

    @given(nonzero_poly, small_poly)
    @settings(max_examples=200)
    def test_divides_product(self, d, q):
        ok, got = divides_with_quotient(d, d * q)
        assert ok and got == q

    @given(nonzero_poly, nonzero_poly)
    @settings(max_examples=200)
    def test_matches_fraction_oracle(self, d, n):
        assert divides_with_quotient(d, n) == oracles.fraction_divides(d, n)


class TestGcdPrimitive:
    def test_common_quadratic_factor(self):
        c = IntPoly([1, 0, 2])
        a = c * IntPoly([1, 0, 0, -1])
        b = c * IntPoly([1, 0, 0, 1])
        assert gcd_primitive(a, b) == c

    def test_gcd_with_zero(self):
        f = IntPoly([2, 4, 6])
        assert gcd_primitive(f, IntPoly()) == IntPoly([1, 2, 3])

    def test_coprime_linears(self):
        assert gcd_primitive(IntPoly([1, 1]), IntPoly([-1, 1])) == IntPoly([1])

    def test_sign_normalization(self):
        a = IntPoly([1, -2]) * IntPoly([3, 1])
        b = IntPoly([1, -2]) * IntPoly([5, 2])
        g = gcd_primitive(a, b)
        assert g.lead > 0
        assert g in (IntPoly([1, -2]), IntPoly([-1, 2]))
        assert g == IntPoly([-1, 2])  # positive leading coefficient form

    def test_both_zero_rejected(self):
        with pytest.raises(ValueError):
            gcd_primitive(IntPoly(), IntPoly())

    @given(nonzero_poly, nonzero_poly)
    @settings(max_examples=150)
    def test_matches_euclid_oracle(self, a, b):
        assert gcd_primitive(a, b) == oracles.fraction_gcd(a, b)

    @given(nonzero_poly, nonzero_poly, nonzero_poly)
    @settings(max_examples=100)
    def test_common_factor_detected(self, a, b, c):
        g = gcd_primitive(a * c, b * c)
        ok, _ = divides_with_quotient(c.primitive_part(), g)
        assert ok


class TestSquarefree:
    def test_d1_squarefree(self):
        assert squarefree_over_Q(D1_POLY)

    def test_square_detected(self):
        assert not squarefree_over_Q(IntPoly([1, 0, 2]) * IntPoly([1, 0, 2]))

    def test_extension_poly_squarefree(self):
        assert squarefree_over_Q(IntPoly([1, -1, 4, -4, 16]))

    def test_constant(self):
        assert squarefree_over_Q(IntPoly([5]))

    @given(nonzero_poly, st.integers(min_value=2, max_value=3))
    @settings(max_examples=100)
    def test_powers_never_squarefree(self, f, e):
        if f.degree >= 1:
            assert not squarefree_over_Q(prod([f] * e, start=IntPoly([1])))


class TestPowerSums:
    def test_d1_sums(self):
        assert power_sums_from_poly(D1_POLY, 4) == [-1, 1, -7, -7]

    def test_single_root(self):
        c = 5
        assert power_sums_from_poly(IntPoly([1, -c]), 3) == [c, c**2, c**3]

    def test_f3_lc_sums(self):
        assert power_sums_from_poly(IntPoly([1, 1, 3]), 2) == [-1, -5]

    def test_zero_constant_term(self):
        with pytest.raises(ZeroConstantTerm):
            power_sums_from_poly(IntPoly([0, 1]), 3)

    def test_negative_constant_term(self):
        # -(1 - t): reciprocal root 1
        assert power_sums_from_poly(IntPoly([-1, 1]), 3) == [1, 1, 1]

    def test_non_unit_constant_term(self):
        # 2 + 4t = 2(1 + 2t): reciprocal root -2
        assert power_sums_from_poly(IntPoly([2, 4]), 3) == [-2, 4, -8]

    def test_non_integral_sums_rejected(self):
        # 2 - t = 2(1 - t/2): reciprocal root 1/2
        with pytest.raises(ValueError):
            power_sums_from_poly(IntPoly([2, -1]), 3)

    @given(nonzero_poly, st.integers(min_value=1, max_value=10))
    @settings(max_examples=300)
    def test_matches_fraction_oracle(self, f, r):
        # the integers when every sum is one, ValueError otherwise
        if f[0] == 0:
            return
        want = oracles.fraction_power_sums(f, r)
        if all(s.denominator == 1 for s in want):
            assert power_sums_from_poly(f, r) == want
        else:
            with pytest.raises(ValueError, match="not integral"):
                power_sums_from_poly(f, r)

    @given(unit_head_poly, unit_head_poly)
    @settings(max_examples=150)
    def test_multiplicativity(self, f, g):
        r = 6
        sums_fg = power_sums_from_poly(f * g, r)
        sums_f = power_sums_from_poly(f, r)
        sums_g = power_sums_from_poly(g, r)
        assert sums_fg == [a + b for a, b in zip(sums_f, sums_g)]


class TestPolyFromPowerSums:
    def test_d1_roundtrip(self):
        assert poly_from_power_sums([-1, 1, -7, -7], 4) == D1_POLY

    def test_degree_two_truncation(self):
        assert poly_from_power_sums([1, -7], 2) == IntPoly([1, -1, 4])

    def test_degenerate_degree_collapse(self):
        with pytest.raises(NotPowerSums):
            poly_from_power_sums([0, 0], 2)

    def test_inexact_division(self):
        with pytest.raises(NotPowerSums):
            poly_from_power_sums([0, 1], 2)  # e_2 = -1/2

    def test_too_few_sums(self):
        with pytest.raises(ValueError):
            poly_from_power_sums([1], 2)

    @given(unit_head_poly)
    @settings(max_examples=300)
    def test_roundtrip(self, f):
        d = f.degree
        if d < 1:
            return
        sums = power_sums_from_poly(f, d)
        assert poly_from_power_sums(sums, d) == f


class TestSupportInTk:
    def test_d2_quotient(self):
        assert support_in_tk(IntPoly([1, 0, 2]), 2) == IntPoly([1, 2])

    def test_d3_quotient(self):
        assert support_in_tk(IntPoly([1, 0, 0, -4, 0, 0, 8]), 3) == IntPoly([1, -4, 8])

    def test_odd_support_rejected(self):
        assert support_in_tk(D1_POLY, 2) is None

    @given(small_poly, st.integers(min_value=1, max_value=5))
    @settings(max_examples=200)
    def test_inflate_then_deflate(self, h, k):
        assert support_in_tk(h.inflate(k), k) == h
