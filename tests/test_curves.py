import json
import pathlib
import random
import tracemalloc

import pytest

from lpdiv import curves, finite_fields, gfpoly
from lpdiv.curves import (
    ArtinSchreierCurve,
    NotReduced,
    OddHyperellipticCurve,
    count_points,
    count_series,
    curve_from_json_dict,
    dk_curve,
    dk_map,
    genus,
    gsum,
)
from lpdiv.finite_fields import FiniteField, RationalMap, TooLarge, make_field
from lpdiv.zeta import LPolynomial, counts_from_lpoly, curve_lpoly, lpoly_from_counts, p_rank_manin

import oracles

SAMPLES = pathlib.Path(__file__).resolve().parent.parent / "sample_inputs"
X3_CURVE = ArtinSchreierCurve(RationalMap((0, 0, 0, 1)))  # y^2 + y = x^3
HYPER3 = OddHyperellipticCurve(3, (), (1, 2, 0, 1))  # y^2 = x^3 + 2x + 1 over F_3


class TestModels:
    def test_dk_map_form(self):
        f = dk_map(3)
        assert f.num == (1,) + (0,) * 9 + (1,)
        assert f.den == (0, 1)

    def test_even_pole_rejected(self):
        with pytest.raises(NotReduced):
            ArtinSchreierCurve(RationalMap((1,), (0, 0, 1)))  # 1/x^2

    def test_even_infinite_pole_rejected(self):
        with pytest.raises(NotReduced):
            ArtinSchreierCurve(RationalMap((0, 0, 1)))  # x^2

    @pytest.mark.parametrize("num,den", [((0,), (1,)), ((1,), (1,)), ((), (1,)), ((1, 1), (1, 1))])
    def test_constant_right_side_rejected(self, num, den):
        # no pole, so no curve of any genus: refused before a count could
        # print one or the Weil check could fail on "genus -1"
        with pytest.raises(ValueError, match="must have a pole") as exc:
            ArtinSchreierCurve(RationalMap(num, den))
        assert not isinstance(exc.value, NotReduced)

    # y^2 = x^2, and y^2 = x^3, a cube over GF(3) (a zero derivative)
    @pytest.mark.parametrize("f", [(0, 0, 1), (0, 0, 0, 1)], ids=["square", "cube"])
    def test_odd_model_needs_squarefree_rhs(self, f):
        with pytest.raises(ValueError, match="is not squarefree"):
            OddHyperellipticCurve(3, (), f)

    @pytest.mark.parametrize("h,f", [((), (2,)), ((1,), ()), ((), ())])
    def test_odd_model_needs_nonconstant_rhs(self, h, f):
        with pytest.raises(ValueError, match="must be nonconstant"):
            OddHyperellipticCurve(3, h, f)

    def test_odd_model_rejects_char_two(self):
        with pytest.raises(ValueError):
            OddHyperellipticCurve(2, (1,), (0, 0, 0, 1))

    def test_json_roundtrip(self):
        for obj, c in (
            ({"model": "as2", "f_num": [1, 0, 0, 0, 0, 0, 1], "f_den": [0, 1]}, dk_curve(2)),
            ({"model": "as2", "f_num": [0, 0, 0, 1], "f_den": [1]}, X3_CURVE),
            ({"model": "hyper_odd", "p": 3, "h": [], "f": [1, 2, 0, 1]}, HYPER3),
        ):
            assert curve_from_json_dict(obj) == c

    def test_unknown_model(self):
        with pytest.raises(ValueError):
            curve_from_json_dict({"model": "weierstrass"})

    @pytest.mark.parametrize("obj", [
        {"model": "as2", "f_num": [0, 0, 0, 1.5], "f_den": [1]},  # not read as x^3
        {"model": "as2", "f_num": [0, 0, 0, 1], "f_den": [1.0]},
        {"model": "as2", "f_num": [0, 0, 0, True], "f_den": [1]},
        {"model": "hyper_odd", "p": 3.0, "h": [], "f": [1, 0, 2, 1]},
        {"model": "hyper_odd", "p": 3, "h": [], "f": [1, 0, 2, 1.0]},
        {"model": "hyper_odd", "p": 3, "h": [False], "f": [1, 0, 2, 1]},
        {"model": "hyper_odd", "p": 3, "h": [], "f": ["1", 0, 2, 1]},
    ])
    def test_non_integer_coefficients_rejected(self, obj):
        with pytest.raises(ValueError, match="expected an integer"):
            curve_from_json_dict(obj)


class TestGenus:
    def test_d1(self):
        assert genus(dk_curve(1)) == 2

    def test_d5(self):
        assert genus(dk_curve(5)) == 17

    @pytest.mark.parametrize("k", range(1, 7))
    def test_dk_family_formula(self, k):
        assert genus(dk_curve(k)) == 2 ** (k - 1) + 1

    def test_x3(self):
        assert genus(X3_CURVE) == 1

    def test_nonrational_pole_place(self):
        # 1/(x^2+x+1): one pole place of degree 2, order 1, plus none at
        # infinity: g = (2*2)/2 - 1 = 1
        c = ArtinSchreierCurve(RationalMap((1,), (1, 1, 1)))
        assert genus(c) == 1

    def test_hyper_odd(self):
        assert genus(HYPER3) == 1
        g2 = OddHyperellipticCurve(3, (1, 1, 1), (1, 1, 1, 0, 1, 1))
        assert genus(g2) == 2


class TestTwoRank:
    @pytest.mark.parametrize("k", range(1, 7))
    def test_dk_rank_one(self, k):
        assert oracles.two_rank_deuring(dk_curve(k)) == 1

    def test_single_pole(self):
        assert oracles.two_rank_deuring(X3_CURVE) == 0

    def test_three_poles(self):
        # x + 1/x + 1/(x+1) has poles at 0, 1 and infinity
        f = RationalMap((1, 0, 1, 1), (0, 1, 1))
        assert oracles.two_rank_deuring(ArtinSchreierCurve(f)) == 2

    def test_quadratic_pole_place_counts_geometric_points(self):
        # poles at both roots of x^2+x+1 (conjugate pair) -> s = 2
        c = ArtinSchreierCurve(RationalMap((1,), (1, 1, 1)))
        assert oracles.two_rank_deuring(c) == 1

    def test_deuring_matches_manin_on_family_and_samples(self):
        curves_ = [dk_curve(k) for k in range(1, 6)]
        for path in sorted(SAMPLES.glob("*.json")):
            obj = json.loads(path.read_text())
            if obj.get("model") == "as2":
                curves_.append(curve_from_json_dict(obj))
        assert len(curves_) == 10
        for c in curves_:
            assert oracles.two_rank_deuring(c) == p_rank_manin(curve_lpoly(c, threads=1), 2), c

    def test_deuring_matches_manin_on_random_curves(self):
        # seeded random reduced y^2 + y = num/den of genus 1..10: the
        # Deuring-Shafarevich count of poles against the degree of L mod 2
        rng = random.Random(20261019)
        genera, ranks = set(), set()
        done = 0
        while done < 200:
            den = [rng.randint(0, 1) for _ in range(rng.randint(0, 6))] + [1]
            num = [rng.randint(0, 1) for _ in range(rng.randint(1, 16))]
            try:
                c = ArtinSchreierCurve(RationalMap(num, den))
            except ValueError:  # an even pole order, or no pole (a constant f)
                continue
            if not 1 <= genus(c) <= 10:
                continue
            rank = oracles.two_rank_deuring(c)
            assert rank == p_rank_manin(curve_lpoly(c, threads=1), 2), c
            genera.add(genus(c))
            ranks.add(rank)
            done += 1
        assert genera == set(range(1, 11)) and len(ranks) >= 5


class TestCountPoints:
    def test_d1_hand_counts(self):
        assert count_points(dk_curve(1), 1) == 4
        assert count_points(dk_curve(1), 2) == 4

    def test_x3_hand_count(self):
        assert count_points(X3_CURVE, 1) == 3

    def test_d1_series(self):
        assert count_series(dk_curve(1), 4).counts == (4, 4, 16, 24)

    def test_x3_series(self):
        assert count_series(X3_CURVE, 1).counts == (3,)

    @pytest.mark.parametrize("m", range(1, 9))
    def test_as2_matches_naive(self, m):
        for c in (dk_curve(1), dk_curve(2), X3_CURVE):
            assert count_points(c, m) == oracles.naive_count_as2(c, m)

    @pytest.mark.parametrize("m", range(1, 9))
    def test_split_infinity_matches_naive(self, m):
        # deg num == deg den exercises the unramified place at infinity
        c = ArtinSchreierCurve(RationalMap((1, 1, 1, 1), (0, 1, 0, 1)))
        assert count_points(c, m) == oracles.naive_count_as2(c, m)

    @pytest.mark.parametrize("m", range(1, 5))
    def test_hyper_odd_matches_naive(self, m):
        assert count_points(HYPER3, m) == oracles.naive_count_hyper(HYPER3, m)

    @pytest.mark.parametrize("m", range(1, 4))
    def test_hyper_odd_even_degree_infinity(self, m):
        square_lead = OddHyperellipticCurve(3, (), (2, 1, 0, 0, 1))  # lc 1: square
        nonsquare_lead = OddHyperellipticCurve(3, (), (1, 1, 0, 0, 2))  # lc 2
        for c in (square_lead, nonsquare_lead):
            assert count_points(c, m) == oracles.naive_count_hyper(c, m)

    @pytest.mark.parametrize("m", range(1, 4))
    def test_hyper_odd_euler_criterion_matches_naive(self, m, monkeypatch):
        # Odd-p counting takes quadratic characters from a bitmap of the
        # squares at every field size: it never builds power or log tables.
        def refuse(self):
            raise AssertionError("power or log tables built by odd-p counting")

        monkeypatch.setattr(FiniteField, "small_log_tables", refuse)
        monkeypatch.setattr(FiniteField, "power_tables", refuse)
        square_lead = OddHyperellipticCurve(3, (), (2, 1, 0, 0, 1))
        nonsquare_lead = OddHyperellipticCurve(3, (), (1, 1, 0, 0, 2))
        for c in (HYPER3, square_lead, nonsquare_lead):
            assert count_points(c, m) == oracles.naive_count_hyper(c, m)

    def test_d6_counts_match_recorded_run(self):
        want = list(oracles.DK6_COUNTS[:28])
        assert list(count_series(dk_curve(6), 28, threads=1).counts) == want

    def test_general_denominator_matches_lpoly_prediction(self):
        # N_1..N_4 of the genus-4 sample from the brute-force oracle fix its
        # L-polynomial, whose power sums predict N_13..N_22: sizes the
        # oracle cannot reach, counted by the table kernel up to its bound.
        c = curve_from_json_dict(json.loads((SAMPLES / "general4.json").read_text()))
        assert c.f.laurent_exponents() is None and genus(c) == 4
        first = [oracles.naive_count_as2(c, m) for m in range(1, 5)]
        assert first == [3, 9, 12, 25]
        lp = lpoly_from_counts(2, 4, first)
        assert lp.poly.coeffs == (1, 0, 2, 1, 4, 2, 8, 0, 16)
        want = counts_from_lpoly(lp, 22).counts[12:]
        assert [count_points(c, m) for m in range(13, 23)] == list(want)

    def test_gsum_relation(self):
        # N_m = 2^m + 1 + G_m for the family (two ramified places)
        for k in (1, 2, 3):
            for m in range(1, 9):
                assert count_points(dk_curve(k), m) == 2**m + 1 + gsum(k, m)

    def test_weil_bound_on_series(self):
        series = count_series(dk_curve(3), 10)
        g = genus(dk_curve(3))
        for m, n in enumerate(series.counts, start=1):
            assert (n - 2**m - 1) ** 2 <= 4 * g * g * 2**m

    def test_weil_guard_refuses_a_count_just_outside_the_bound(self, monkeypatch):
        # x3.json is genus 1 over F_2: |N_2 - 5| <= 2 * 2 allows N_2 <= 9
        c = curve_from_json_dict(json.loads((SAMPLES / "x3.json").read_text()))
        real = curves.count_points
        monkeypatch.setattr(curves, "count_points", lambda c, m, **kw: 10 if m == 2 else real(c, m, **kw))
        with pytest.raises(RuntimeError, match=r"^count N_2 = 10 violates .*counting bug"):
            count_series(c, 3)

    def test_weil_guard_accepts_the_largest_count_the_bound_allows(self, monkeypatch):
        # |N_1 - 3| <= 2 sqrt(2) allows N_1 = 5, and |N_2 - 5| <= 4 allows N_2 = 9
        c = curve_from_json_dict(json.loads((SAMPLES / "x3.json").read_text()))
        assert genus(c) == 1
        bounds = {1: 5, 2: 9}
        real = curves.count_points
        monkeypatch.setattr(curves, "count_points", lambda c, m, **kw: bounds.get(m) or real(c, m, **kw))
        assert count_series(c, 3).counts == (5, 9, real(c, 3))

    def test_too_large(self):
        with pytest.raises(TooLarge, match=r"^m = 35 exceeds the enumeration bound 34$"):
            count_points(dk_curve(1), 35)

    def test_series_beyond_the_bound_refused_before_counting(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("counted a series that exceeds the bound")

        monkeypatch.setattr(curves, "char_sum", refuse)
        with pytest.raises(TooLarge, match=r"^m = 65 exceeds the enumeration bound 34$"):
            count_series(dk_curve(7), 65)

    # Each series below crosses a bound only at its last m, so the kernel is
    # patched to raise: a series counted from m = 1 reaches it first.
    def _sample(self, name):
        return curve_from_json_dict(json.loads((SAMPLES / name).read_text()))

    def test_series_beyond_the_order_cap_refused_before_counting(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("counted a series that exceeds the order cap")

        monkeypatch.setattr(curves, "_odd_walk", refuse)
        with pytest.raises(TooLarge, match=r"^GF\(3\^19\) exceeds the order cap "):
            count_series(self._sample("hyper3.json"), 19)

    def test_series_beyond_the_table_bound_refused_before_counting(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("counted a series that exceeds the table bound")

        monkeypatch.setattr(finite_fields, "_char_sum_table", refuse)
        with pytest.raises(TooLarge, match=r"^m = 23 exceeds the bound m <= 22 "):
            count_series(self._sample("general4.json"), 23)

    def test_bad_extension_degree(self):
        with pytest.raises(ValueError):
            count_points(dk_curve(1), 0)

    @pytest.mark.parametrize("threads", [0, -3])
    @pytest.mark.parametrize("curve", [dk_curve(1), HYPER3, ArtinSchreierCurve(RationalMap((1,), (1, 1)))],
                             ids=["laurent", "odd", "table"])
    def test_threads_below_one_refused(self, monkeypatch, curve, threads):
        # refused on every route, before a field is built
        monkeypatch.setattr(curves, "make_field", None)
        with pytest.raises(ValueError, match=r"^threads must be >= 1$"):
            count_points(curve, 3, threads=threads)


class TestGsum:
    def test_hand_values(self):
        assert gsum(1, 1) == 1
        assert gsum(1, 2) == -1
        assert gsum(2, 1) == 1

    @pytest.mark.parametrize("k,m", [(1, 5), (2, 6), (3, 7)])
    def test_matches_naive(self, k, m):
        assert gsum(k, m) == oracles.naive_char_sum(m, dk_map(k))

    def test_reduced_exponent_matches_full_map(self):
        # gsum counts x^(2^(k mod m)+1) + x^(-1); the full dk_map(k) must agree,
        # including k = 0 mod m (x^2 + x^(-1)) and m = 1.
        from lpdiv.finite_fields import char_sum, make_field

        for m in range(1, 11):
            field = make_field(2, m)
            for k in range(1, 13):
                assert gsum(k, m, threads=1) == char_sum(field, dk_map(k), threads=1), (k, m)

    @pytest.mark.parametrize("m", range(1, 8))
    def test_exponent_folds_to_at_most_half_of_m(self, m):
        # Tr(y) = Tr(y^(2^(m-j))) and (x^(2^j+1))^(2^(m-j)) = x^(2^(m-j)+1),
        # so j and m - j give one sum: k = m + j for every j <= m
        for j in range(m + 1):
            want = oracles.naive_char_sum(m, curves._dk_rhs(j))
            assert gsum(m + j, m) == gsum(2 * m - j, m) == want, (j, m)

    def test_no_map_beyond_half_of_m(self, monkeypatch):
        # k = 22 at m = 23 and k = 100 at m = 34 sum x^3 + x^(-1) and
        # x^5 + x^(-1), not maps of 2^22 + 3 and 2^32 + 3 coefficients
        built = []
        dk_rhs = curves._dk_rhs

        def recorded(j):
            built.append(j)
            return dk_rhs(j)

        monkeypatch.setattr(curves, "_dk_rhs", recorded)
        monkeypatch.setattr(curves, "char_sum", lambda field, f, threads=None: len(f.num))
        assert gsum(22, 23) == 5 and gsum(100, 34) == 7
        assert built == [1, 2]


# (p, h, f, largest m for the brute-force oracle).  Together they cover
# p = 3, 5, 7, h != 0, 4f + h^2 vanishing at x = 0, and even degree with a
# square and a non-square leading coefficient.
ODD_KERNEL_CASES = [
    (3, (0, 1), (0, 2, 1, 0, 0, 1), 4),  # 4f + h^2 = 2t + 2t^2 + t^5
    (3, (), (2, 1, 0, 0, 1), 4),  # even degree, leading 1: square
    (3, (), (1, 1, 0, 0, 2), 4),  # even degree, leading 2: non-square
    (5, (0, 0, 1), (0, 1, 1, 0, 0, 1), 3),  # 4t + 4t^2 + t^4 + 4t^5
    (5, (1,), (1, 1, 0, 0, 4), 3),  # 4t + t^4: vanishes at 0, square lead
    (5, (), (1, 2, 0, 1, 3), 3),  # leading 2: non-square mod 5
    (7, (0, 1), (0, 1, 2, 0, 0, 1), 2),  # 4t + 2t^2 + 4t^5
    (7, (), (1, 1, 0, 0, 2), 2),  # leading 1: square
    (7, (1,), (1, 1, 0, 0, 6), 2),  # 5 + 4t + 3t^4: non-square lead
]

# Genus >= 2 curves for the large-field check: (p, h, f, m).
ODD_LARGE_CASES = [
    (3, (), (1, 1, 0, 0, 0, 0, 0, 1), 10),  # genus 3
    (3, (1, 1), (0, 0, 0, 0, 0, 1), 12),  # genus 2, h != 0
    (5, (0, 1), (1, 2, 0, 3, 0, 1), 7),  # genus 2, h != 0
    (7, (1,), (2, 1, 0, 0, 0, 1), 5),  # genus 2, h != 0
]


class TestOddKernel:
    """The generator-walk kernel behind odd-characteristic counts."""

    @pytest.mark.parametrize("p,h,f,m_max", ODD_KERNEL_CASES)
    def test_matches_naive(self, p, h, f, m_max):
        c = OddHyperellipticCurve(p, h, f)
        for m in range(1, m_max + 1):
            assert count_points(c, m) == oracles.naive_count_hyper(c, m)

    def test_oracle_shares_no_arithmetic_with_the_library(self, monkeypatch):
        # A fault in gfpoly or FiniteField arithmetic must not reach the
        # brute-force reference as well as the kernel.
        c, d2, d1_map = OddHyperellipticCurve(*ODD_KERNEL_CASES[0][:3]), dk_curve(2), dk_map(1)
        want = count_points(c, 3), count_points(d2, 5), gsum(1, 6)

        def refuse(*args):
            raise AssertionError("library arithmetic used by the oracle")

        for name in ("add", "sub", "mul", "mod", "divmod_", "encode", "decode"):
            monkeypatch.setattr(gfpoly, name, refuse)
        for name in ("mul", "pow_el"):
            monkeypatch.setattr(FiniteField, name, refuse)
        oracles.tuple_field.cache_clear()  # build the oracle fields anew
        got = (
            oracles.naive_count_hyper(c, 3),
            oracles.naive_count_as2(d2, 5),
            oracles.naive_char_sum(6, d1_map),
        )
        assert got == want

    def test_cases_cover_the_branches(self):
        rhs = [OddHyperellipticCurve(p, h, f).squared_rhs() for p, h, f, _ in ODD_KERNEL_CASES]
        for p in (3, 5, 7):
            cases = [(r, h) for (q, h, _, _), r in zip(ODD_KERNEL_CASES, rhs) if q == p]
            assert any(h for _, h in cases)
            assert any(r[0] == 0 for r, _ in cases)
            even = [r[-1] for r, _ in cases if (len(r) - 1) % 2 == 0]
            assert {pow(lead, (p - 1) // 2, p) for lead in even} == {1, p - 1}

    @pytest.mark.parametrize("p,h,f,m", ODD_LARGE_CASES)
    def test_large_field_matches_lpoly_prediction(self, p, h, f, m):
        # N_1..N_g from the brute-force oracle fix the L-polynomial; its
        # power sums then predict N_m, an independent route to the count.
        c = OddHyperellipticCurve(p, h, f)
        g = genus(c)
        assert g >= 2
        first = [oracles.naive_count_hyper(c, k) for k in range(1, g + 1)]
        want = counts_from_lpoly(lpoly_from_counts(p, g, first), m).counts[-1]
        assert count_points(c, m) == want

    @pytest.mark.parametrize("p,m", [(3, 7), (5, 5), (7, 3)])
    def test_chunking_does_not_change_the_count(self, p, m, monkeypatch):
        c = [OddHyperellipticCurve(*case[:3]) for case in ODD_KERNEL_CASES if case[0] == p]
        want = [count_points(x, m) for x in c]
        n = p**m - 1
        monkeypatch.setattr(curves, "_ODD_CHUNK", 97)
        assert n % 97 and (n // 2) % 97  # the count and the squares walks end mid-chunk
        assert [count_points(x, m) for x in c] == want

    def test_memory_is_bounded(self):
        # Only the squares bitmap (one byte per element, 1.5 MB here) grows
        # with the field; everything else is per chunk.  Log tables alone
        # would take 25.5 MB.
        c = OddHyperellipticCurve(*ODD_LARGE_CASES[1][:3])
        make_field(3, 13)
        tracemalloc.start()
        try:
            count_points(c, 13)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20

    def test_beyond_the_exact_int64_range_is_refused(self, monkeypatch):
        # 9 * 1 * p^2 >= 2^63 for the prime p = 2^30 - 35 and deg f = 8: a
        # chunk's digit sums could overflow int64.  At deg f = 7 the bound
        # 8 * p^2 stays below 2^63, so only m = 1 with p near 2^30 meets it.
        def refuse(*args, **kwargs):
            raise AssertionError("built a field beyond the int64 range")

        monkeypatch.setattr(curves, "make_field", refuse)
        big = OddHyperellipticCurve(2**30 - 35, (), (1, 1) + (0,) * 6 + (1,))
        with pytest.raises(TooLarge, match=r"^GF\(1073741789\^1\) exceeds the exact int64 range"):
            count_points(big, 1)
        with pytest.raises(TooLarge, match="order cap"):  # 3^34 > 2^30
            count_points(HYPER3, 34)

    def test_order_beyond_the_cap_is_refused_before_a_field_build(self, monkeypatch):
        # 3^19 > 2^30 = POWER_TABLE_MAX: the squares bitmap would take a GiB
        def refuse(*args, **kwargs):
            raise AssertionError("built a field beyond the order cap")

        monkeypatch.setattr(curves, "make_field", refuse)
        with pytest.raises(TooLarge, match=r"^GF\(3\^19\) exceeds the order cap 1073741824 "):
            count_points(HYPER3, 19)

    def test_verified_f3_curves_reproduce_the_counterexample(self):
        # The published F_3 pair from two curves: N_m agree for m coprime to
        # 6 and differ at m = 2, every count as its L-polynomial predicts.
        # m = 13 (1.6 million elements) is counted directly.
        counts = {}
        for name in ("lc", "ld"):
            curve = curve_from_json_dict(json.loads((SAMPLES / f"f3_{name}_curve.json").read_text()))
            lp = LPolynomial.from_json_dict(json.loads((SAMPLES / f"f3_{name}.json").read_text()))
            want = counts_from_lpoly(lp, 13).counts
            counts[name] = {m: count_points(curve, m) for m in (1, 2, 5, 7, 11, 13)}
            assert counts[name] == {m: want[m - 1] for m in counts[name]}
        assert counts["lc"][13] == counts["ld"][13] == 1592765
        assert all(counts["lc"][m] == counts["ld"][m] for m in (1, 5, 7, 11, 13))
        assert counts["lc"][2] != counts["ld"][2]
