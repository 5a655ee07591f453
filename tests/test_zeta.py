import random

import pytest

from lpdiv import zeta
from lpdiv.curves import count_series, dk_curve
from lpdiv.intpoly import IntPoly
from lpdiv.zeta import (
    LPolynomial,
    NotConsistent,
    counts_from_lpoly,
    curve_lpoly,
    extension_lpoly,
    lpoly_from_counts,
    mod_p_degree,
    p_rank_manin,
    validate_lpoly,
)

import oracles

L_D1 = LPolynomial(q=2, g=2, poly=IntPoly([1, 1, 0, 2, 4]))
L_X3 = LPolynomial(q=2, g=1, poly=IntPoly([1, 0, 2]))
F3_LC = LPolynomial(q=3, g=1, poly=IntPoly([1, 1, 3]))


class TestLpolyFromCounts:
    def test_d1(self):
        assert lpoly_from_counts(2, 2, [4, 4]) == L_D1

    def test_x3(self):
        assert lpoly_from_counts(2, 1, [3]) == L_X3

    def test_f3_counterexample_small(self):
        assert lpoly_from_counts(3, 1, [5]) == F3_LC

    def test_genus_zero(self):
        lp = lpoly_from_counts(5, 0, [6, 26])
        assert lp.poly == IntPoly([1])

    def test_extra_counts_cross_checked(self):
        assert lpoly_from_counts(2, 2, [4, 4, 16, 24]) == L_D1
        with pytest.raises(NotConsistent):
            lpoly_from_counts(2, 2, [4, 4, 16, 25])

    def test_inexact_newton_rejected(self):
        with pytest.raises(NotConsistent):
            lpoly_from_counts(2, 2, [4, 5])

    def test_vanishing_middle_coefficient(self):
        # D_3 has genus 5 and a_5 = 0: the half-polynomial from Newton ends in
        # a zero, which must not count as a collapsed degree.
        counts = count_series(dk_curve(3), 5).counts
        lp = lpoly_from_counts(2, 5, counts)
        assert lp.poly == L_D1.poly * IntPoly([1, 0, 0, -4, 0, 0, 8])
        assert lp.poly[5] == 0

    def test_weil_bound_enforced(self):
        with pytest.raises(NotConsistent):
            lpoly_from_counts(2, 1, [9])

    def test_too_few_counts(self):
        with pytest.raises(ValueError):
            lpoly_from_counts(2, 2, [4])


class TestCountsFromLpoly:
    def test_d1_counts(self):
        assert counts_from_lpoly(L_D1, 4).counts == (4, 4, 16, 24)

    def test_projective_line(self):
        lp = LPolynomial(q=5, g=0, poly=IntPoly([1]))
        assert counts_from_lpoly(lp, 3).counts == (6, 26, 126)

    def test_f3_lc_counts(self):
        # s_1 = -1, s_2 = -5 give N_1 = 5 and N_2 = 9 + 1 + 5 = 15
        assert counts_from_lpoly(F3_LC, 2).counts == (5, 15)

    def test_group_order_divisibility(self):
        # genus-1 sanity: N_1 divides N_2 (E(F_q) embeds in E(F_q^2))
        counts = counts_from_lpoly(F3_LC, 2).counts
        assert counts[1] % counts[0] == 0

    def test_roundtrip_with_curve_counts(self):
        series = count_series(dk_curve(2), 3)
        lp = lpoly_from_counts(2, 3, series.counts)
        assert counts_from_lpoly(lp, 3).counts == series.counts


class TestExtension:
    def test_identity(self):
        assert extension_lpoly(L_D1, 1) is L_D1

    def test_d1_squared(self):
        got = extension_lpoly(L_D1, 2)
        assert got == LPolynomial(q=4, g=2, poly=IntPoly([1, -1, 4, -4, 16]))

    def test_single_root(self):
        lp = LPolynomial(q=9, g=1, poly=IntPoly([1, -3]) * IntPoly([1, -3]))
        # (1 - 3t)^2 is not squarefree but extension still works through sums
        got = extension_lpoly(lp, 3)
        assert got.poly == IntPoly([1, -27]) * IntPoly([1, -27])

    def test_extension_counts_consistency(self):
        for n in (2, 3):
            ext = extension_lpoly(L_D1, n)
            base_counts = counts_from_lpoly(L_D1, 4 * n).counts
            ext_counts = counts_from_lpoly(ext, 4).counts
            for m in range(1, 5):
                assert ext_counts[m - 1] == base_counts[n * m - 1]

    def test_tower_law(self):
        assert extension_lpoly(extension_lpoly(L_D1, 2), 3) == extension_lpoly(L_D1, 6)

    def test_tower_law_synthetic(self):
        rng = random.Random(5)
        for _ in range(10):
            lp = oracles.make_weil_lpoly(rng, 3, 3)
            assert extension_lpoly(extension_lpoly(lp, 2), 2) == extension_lpoly(lp, 4)


class TestPRank:
    def test_d1_rank_one(self):
        assert p_rank_manin(L_D1, 2) == 1

    def test_supersingular_factor(self):
        assert p_rank_manin(L_X3, 2) == 0

    def test_f3_ordinary(self):
        assert p_rank_manin(F3_LC, 3) == 1

    def test_wrong_characteristic(self):
        with pytest.raises(ValueError):
            p_rank_manin(L_D1, 3)

    def test_prime_power_q(self):
        lp = LPolynomial(q=4, g=1, poly=IntPoly([1, -1, 4]))
        assert p_rank_manin(lp, 2) == 1

    def test_invariant_under_extension(self):
        rng = random.Random(9)
        for _ in range(20):
            q, g = rng.choice([(2, 3), (3, 2), (5, 2)])
            lp = oracles.make_weil_lpoly(rng, q, g)
            for n in (2, 3):
                assert p_rank_manin(extension_lpoly(lp, n), q) == p_rank_manin(lp, q)

    def test_mod_p_degree(self):
        assert mod_p_degree(IntPoly([1, 1, 0, 2, 4]), 2) == 1
        assert mod_p_degree(IntPoly([1, 0, 2]), 2) == 0


class TestValidate:
    def test_d1_valid(self):
        assert validate_lpoly(L_D1).ok
        assert oracles.roots_on_circle(L_D1)

    def test_x3_valid(self):
        assert validate_lpoly(L_X3).ok

    def test_wrong_degree(self):
        bad = LPolynomial(q=2, g=1, poly=IntPoly([1, 1]))
        res = validate_lpoly(bad)
        assert not res.ok
        assert any("degree" in f for f in res.failures)

    def test_wrong_constant(self):
        bad = LPolynomial(q=2, g=1, poly=IntPoly([2, 0, 2]))
        assert not validate_lpoly(bad).ok

    def test_functional_equation_violation(self):
        bad = LPolynomial(q=2, g=1, poly=IntPoly([1, 1, 3]))
        res = validate_lpoly(bad)
        assert not res.ok
        assert any("functional" in f for f in res.failures)

    def test_root_modulus_advisory(self):
        # valid functional equation but reciprocal roots off the circle
        bad = LPolynomial(q=2, g=1, poly=IntPoly([1, 3, 2]))
        assert validate_lpoly(bad).ok
        assert not oracles.roots_on_circle(bad)


class TestRoundtripProperty:
    def test_synthetic_weil_roundtrip(self):
        rng = random.Random(123)
        for _ in range(100):
            q = rng.choice([2, 3, 4, 5])
            g = rng.randint(1, 8)
            lp = oracles.make_weil_lpoly(rng, q, g)
            counts = counts_from_lpoly(lp, g).counts
            assert lpoly_from_counts(q, g, counts) == lp
            assert validate_lpoly(lp).ok

    def test_json_reads_integers_and_decimal_strings(self):
        obj = {"q": 2, "g": "2", "coeffs": [1, "1", 0, "2", 4]}
        assert LPolynomial.from_json_dict(obj) == L_D1

    @pytest.mark.parametrize("obj", [
        {"q": 3, "g": 1, "coeffs": ["1", "1", 2.9]},  # not read as 2
        {"q": 3, "g": 1, "coeffs": ["1", "1", "3.0"]},
        {"q": 3, "g": 1, "coeffs": ["1", True, "3"]},
        {"q": 3.0, "g": 1, "coeffs": ["1", "1", "3"]},
        {"q": 3, "g": 1.5, "coeffs": ["1", "1", "3"]},
    ])
    def test_json_non_integers_rejected(self, obj):
        with pytest.raises(ValueError):
            LPolynomial.from_json_dict(obj)

    @pytest.mark.parametrize("coeffs,shown", [("112", "'112'"), (None, "None"), (5, "5")])
    def test_json_coeffs_must_be_an_array(self, coeffs, shown):
        # a string is not read one digit at a time
        with pytest.raises(ValueError, match=rf"^coeffs: expected an array, got {shown}$"):
            LPolynomial.from_json_dict({"q": 2, "g": 1, "coeffs": coeffs})

    def test_json_roundtrip(self):
        assert LPolynomial.from_json_dict(L_D1.to_json_dict()) == L_D1
        assert L_D1.to_json_dict() == {"q": 2, "g": 2, "coeffs": ["1", "1", "0", "2", "4"]}


class TestCurveLpoly:
    def test_counts_to_the_horizon_or_the_genus(self, monkeypatch):
        seen = []
        real = zeta.count_series

        def recording(curve, r, **kwargs):
            seen.append(r)
            return real(curve, r, **kwargs)

        monkeypatch.setattr(zeta, "count_series", recording)
        assert curve_lpoly(dk_curve(1), 6) == L_D1
        assert curve_lpoly(dk_curve(1)) == curve_lpoly(dk_curve(1), 1) == L_D1
        assert seen == [6, 2, 2]

    def test_extra_counts_are_cross_checked(self, monkeypatch):
        real = zeta.count_series

        def wrong_last(curve, r, **kwargs):
            series = real(curve, r, **kwargs)
            return series.__class__(q=series.q, counts=series.counts[:-1] + (series.counts[-1] + 2,))

        monkeypatch.setattr(zeta, "count_series", wrong_last)
        with pytest.raises(NotConsistent, match="N_5"):
            curve_lpoly(dk_curve(1), 5)
