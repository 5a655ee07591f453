import json
import pathlib
import random
from math import gcd

import pytest

from lpdiv.cli import emit_report
from lpdiv.curves import curve_from_json_dict, dk_curve, gsum
from lpdiv.decomp import (
    CRITERION_REACH_MAX,
    F3_LC,
    F3_LD,
    SplitResult,
    Verdict,
    check_main_theorem,
    counterexample_f3,
    dk_report_from_counts,
    gsum_invariance_scan,
    split_two_prime,
    verify_conjecture_dk,
)
from lpdiv.finite_fields import TooLarge
from lpdiv.intpoly import IntPoly
from lpdiv.zeta import (
    LPolynomial,
    counts_from_lpoly,
    curve_lpoly,
    extension_lpoly,
    lpoly_from_counts,
    validate_lpoly,
)

import oracles

ROOT = pathlib.Path(__file__).resolve().parent.parent
SAMPLES = ROOT / "sample_inputs"
DK6_RESULT = ROOT / "dk6_result.json"
L_D1 = LPolynomial(q=2, g=2, poly=IntPoly([1, 1, 0, 2, 4]))
L_X3 = LPolynomial(q=2, g=1, poly=IntPoly([1, 0, 2]))


def assert_holds_decides_every_m(rep):
    # L_D = L_C * Q(t^k): the implied counts agree at every m not divisible
    # by k, checked here to m = 2k (deg L_C + deg L_D)
    reach = 2 * rep.k * (rep.lc.poly.degree + rep.ld.poly.degree)
    counts_c = counts_from_lpoly(rep.lc, reach).counts
    counts_d = counts_from_lpoly(rep.ld, reach).counts
    assert all(counts_c[m - 1] == counts_d[m - 1] for m in range(1, reach + 1) if m % rep.k)


def check_curves(c_c, c_d, k: int, horizon: int):
    """The criterion on two curves, each counted to the horizon."""
    return check_main_theorem(curve_lpoly(c_c, horizon), curve_lpoly(c_d, horizon), k, horizon)


class TestCheckMainTheorem:
    def test_d1_d2_holds(self):
        rep = check_curves(dk_curve(1), dk_curve(2), 2, 10)
        assert rep.verdict is Verdict.HOLDS
        assert rep.quotient == IntPoly([1, 0, 2])
        assert rep.quotient_in_tk
        assert rep.hyp1_first_fail is None and rep.hyp2_squarefree

    def test_identical_curves_trivial(self):
        rep = check_curves(dk_curve(1), dk_curve(1), 2, 10)
        assert rep.verdict is Verdict.HOLDS
        assert rep.quotient == IntPoly([1])

    def test_f3_pair_hypothesis_fails(self):
        rep = check_main_theorem(F3_LC, F3_LD, 6, 12)
        assert rep.verdict is Verdict.HYPOTHESIS_FAILS
        assert rep.hyp1_first_fail == 2
        assert not rep.divides

    def test_f3_pair_from_the_verified_curves(self):
        # The same verdict from counting the two sample curves, whose
        # L-polynomials come out as the published pair.
        lc_curve, ld_curve = (
            curve_from_json_dict(json.loads((SAMPLES / f"f3_{name}_curve.json").read_text()))
            for name in ("lc", "ld")
        )
        rep = check_curves(lc_curve, ld_curve, 6, 7)
        assert rep.verdict is Verdict.HYPOTHESIS_FAILS
        assert rep.hyp1_first_fail == 2
        assert not rep.divides
        assert rep.lc == LPolynomial.from_json_dict(json.loads((SAMPLES / "f3_lc.json").read_text()))
        assert rep.ld == LPolynomial.from_json_dict(json.loads((SAMPLES / "f3_ld.json").read_text()))

    def test_power_sums_read_the_polynomial_not_its_genus(self):
        # 1 + t claims genus 0, but implies N_1 = 4 against N_1 = 3 for 1
        lc, ld = LPolynomial(2, 0, IntPoly([1, 1])), LPolynomial(2, 0, IntPoly([1]))
        assert lc.power_sums(3) == [-1, 1, -1]
        rep = check_main_theorem(lc, ld, 2, 1)
        assert rep.verdict is Verdict.HYPOTHESIS_FAILS
        assert rep.hyp1_first_fail == 1

    def test_extension_reads_the_polynomial_not_its_genus(self):
        # 1 + t has the reciprocal root -1, whose square is 1
        lp = LPolynomial(2, 0, IntPoly([1, 1]))
        assert extension_lpoly(lp, 2) == LPolynomial(4, 0, IntPoly([1, -1]))
        assert extension_lpoly(LPolynomial(2, 0, IntPoly([1])), 3).poly == IntPoly([1])

    def test_hyp1_table_skips_multiples_of_k(self):
        rep = check_main_theorem(L_D1, L_D1, 3, 9)
        assert [m for m, _ in rep.hyp1_counts_equal] == [1, 2, 4, 5, 7, 8]

    def test_k_one_rejected(self):
        with pytest.raises(ValueError):
            check_curves(dk_curve(1), dk_curve(2), 1, 10)

    def test_curve_lpoly_counts_to_the_genus(self):
        # a horizon below the genus still determines the L-polynomial
        assert curve_lpoly(dk_curve(2), 2) == curve_lpoly(dk_curve(2), 10)

    @pytest.mark.parametrize("horizon", [0, -5])
    def test_horizon_below_one_rejected(self, horizon):
        with pytest.raises(ValueError, match="horizon must be >= 1"):
            curve_lpoly(dk_curve(1), horizon)
        with pytest.raises(ValueError, match="horizon must be >= 1"):
            check_main_theorem(L_D1, L_D1, 2, horizon)

    def test_mismatched_base_fields(self):
        with pytest.raises(ValueError):
            check_main_theorem(L_D1, F3_LD, 2, 8)

    def test_reach_beyond_the_bound_refused_before_any_power_sum(self, monkeypatch):
        # deg L_D1 = 4, so the reach of (L_D1, L_D1, k) is max(horizon, 8k)
        k_max = CRITERION_REACH_MAX // 8
        rep = check_main_theorem(L_D1, L_D1, k_max, CRITERION_REACH_MAX)
        assert rep.verdict is Verdict.HOLDS and rep.quotient == IntPoly([1])

        def refuse(*args, **kwargs):
            raise AssertionError("took power sums for a refused check")

        monkeypatch.setattr(LPolynomial, "power_sums", refuse)
        for k, horizon, reach in [(2, CRITERION_REACH_MAX + 1, CRITERION_REACH_MAX + 1),
                                  (k_max + 1, 1, 8 * k_max + 8)]:
            with pytest.raises(ValueError, match=rf"^max\(horizon, k \* \(deg L_C \+ deg L_D\)\) = {reach} exceeds"):
                check_main_theorem(L_D1, L_D1, k, horizon)

    def test_report_json_shape(self):
        rep = check_curves(dk_curve(1), dk_curve(2), 2, 6)
        obj = rep.to_json_dict()
        assert obj["schema"] == 1
        assert obj["verdict"] == "TheoremApplies&Holds"
        assert obj["quotient"] == "2t^2+1"


class TestMasterIdentity:
    def test_symmetric(self):
        for k in (1, 2, 3):
            assert oracles.master_identity_check(L_D1, L_D1, k)

    def test_d1_d2(self):
        ld2 = verify_conjecture_dk(2).lpoly
        assert oracles.master_identity_check(L_D1, ld2, 2)

    def test_unequal_counts_fail(self):
        assert not oracles.master_identity_check(L_D1, L_X3, 2)

    def test_equivalence_with_count_equality(self):
        # built pairs with counts equal away from multiples of k satisfy the
        # identity; independently generated pairs almost surely do not
        rng = random.Random(17)
        for _ in range(20):
            q = rng.choice([2, 3])
            k = rng.choice([2, 3])
            lc = oracles.make_weil_lpoly(rng, q, 2)
            qpoly = oracles.make_weil_lpoly(rng, q**k, 1).poly
            ld = LPolynomial(q=q, g=lc.g + k, poly=qpoly.inflate(k) * lc.poly)
            assert oracles.master_identity_check(lc, ld, k)

    def test_norm_is_the_extension_lpolynomial(self):
        # the oracle's determinant and the library's power-sum route agree
        rng = random.Random(19)
        for _ in range(100):
            lp = oracles.make_weil_lpoly(rng, rng.choice([2, 3, 4, 5]), rng.randint(0, 5))
            n = rng.randint(1, 6)
            assert oracles.norm_to_tk(lp.poly, n) == extension_lpoly(lp, n).poly


def converse_holds(lc: LPolynomial, qpoly: IntPoly, k: int, horizon: int) -> bool:
    """Hypothesis 1 of the criterion for L_C against Q(t^k) L_C, which the
    converse says always holds."""
    ld = LPolynomial(q=lc.q, g=lc.g + k * qpoly.degree // 2, poly=qpoly.inflate(k) * lc.poly)
    return check_main_theorem(lc, ld, k, horizon).hyp1_first_fail is None


class TestConverse:
    def test_d2_construction(self):
        assert converse_holds(L_D1, IntPoly([1, 2]), 2, 9)
        ld2 = verify_conjecture_dk(2).lpoly
        assert IntPoly([1, 2]).inflate(2) * L_D1.poly == ld2.poly

    def test_unit_quotient(self):
        assert converse_holds(L_D1, IntPoly([1]), 2, 10)

    def test_k3_horizon8(self):
        assert converse_holds(L_D1, IntPoly([1, 2]), 3, 8)

    def test_constant_term_required(self):
        # Q(0) = 2 gives no L-polynomial; check-div refuses such a file
        ld = LPolynomial(q=2, g=3, poly=IntPoly([2, 1]).inflate(2) * L_D1.poly)
        assert "constant term is not 1" in validate_lpoly(ld).failures

    def test_synthetic_always_true(self):
        rng = random.Random(23)
        for _ in range(50):
            q = rng.choice([2, 3, 4, 5])
            lc = oracles.make_weil_lpoly(rng, q, rng.randint(1, 4))
            qpoly = oracles.make_weil_lpoly(rng, q, rng.randint(0, 2)).poly
            k = rng.choice([2, 3, 5])
            assert converse_holds(lc, qpoly, k, 15)


class TestVerifyConjectureDk:
    def test_k1_unit(self):
        rep = verify_conjecture_dk(1)
        assert rep.divides and rep.quotient == IntPoly([1])
        assert rep.structure.kind == "unit"

    def test_k3_quotient(self):
        rep = verify_conjecture_dk(3)
        assert rep.divides
        assert rep.quotient == IntPoly([1, 0, 0, -4, 0, 0, 8])
        assert rep.structure.kind == "prime_power"
        assert rep.structure.primes == (3,)
        assert rep.structure.parts[0] == IntPoly([1, -4, 8])

    def test_k4_quotient(self):
        rep = verify_conjecture_dk(4)
        assert rep.divides
        expected = IntPoly([1, 0, 2] + [0] * 9 + [64, 0, 128])
        assert rep.quotient == expected
        assert rep.structure.kind == "prime_power"
        assert rep.structure.primes == (2,)

    def test_two_ranks(self):
        for k in (1, 2, 3):
            rep = verify_conjecture_dk(k)
            assert rep.lpoly_two_rank == 1
            assert rep.quotient_two_rank == 0

    def test_longer_horizon_cross_checks(self):
        rep = verify_conjecture_dk(2, horizon=8)
        assert rep.horizon == 8
        assert rep.divides

    def test_report_from_recorded_dk6_counts(self):
        # The genus-33 algebra on the recorded k = 6 counts, without counting,
        # reproduces the committed verify-dk record byte for byte.
        rep = dk_report_from_counts(6, oracles.DK6_COUNTS)
        assert emit_report(rep, "json") == DK6_RESULT.read_text()
        a, b = rep.structure.parts
        assert a.inflate(2) * b.inflate(3) == rep.quotient

    def test_family_theorem_justifies_the_k6_split(self):
        # the criterion across D_1..D_6 for k' = 2..6; the k = 6 parts are the
        # quotients of two rows it proves: L_{D_6}/L_{D_3} and L_{D_3}/L_{D_1}
        lps = {k: curve_lpoly(dk_curve(k), threads=1) for k in range(1, 6)}
        lps[6] = lpoly_from_counts(2, 33, oracles.DK6_COUNTS)
        reports = {
            (d, k, kk): check_main_theorem(lps[d], lps[k], kk, 12)
            for k in range(2, 7)
            for d in range(1, k)
            for kk in range(2, 7)
        }
        assert len(reports) == 75
        holds = {key for key, rep in reports.items() if rep.verdict is Verdict.HOLDS}
        assert holds == {(1, 2, 2), (1, 3, 3), (1, 4, 2), (1, 5, 5), (2, 4, 3), (2, 6, 3), (3, 6, 2)}
        assert all(rep.verdict is not Verdict.VIOLATION for rep in reports.values())
        for key in holds:
            assert_holds_decides_every_m(reports[key])
        a, b = dk_report_from_counts(6, oracles.DK6_COUNTS).structure.parts
        assert reports[(3, 6, 2)].quotient.deflate(2) == a
        assert reports[(1, 3, 3)].quotient.deflate(3) == b


class TestSplitTwoPrime:
    def test_mixed_product(self):
        q = IntPoly([1, 0, 2]) * IntPoly([1, 0, 0, -1])
        res = split_two_prime(q, 2, 3)
        assert res.status == "split"
        assert res.a == IntPoly([1, 2])
        assert res.b == IntPoly([1, -1])
        assert res.a.inflate(2) * res.b.inflate(3) == q
        # the primitive gcd here is 2t^2 - 1; A is signed so that A(0) = 1
        res = split_two_prime(IntPoly([1, 0, -2]) * IntPoly([1, 0, 0, 1]), 2, 3)
        assert res.a == IntPoly([1, -2]) and res.b == IntPoly([1, 1])

    def test_one_factor_absent(self):
        res = split_two_prime(IntPoly([1, 0, 2]), 2, 3)
        assert res.status == "split"
        assert res.a == IntPoly([1, 2])
        assert res.b == IntPoly([1])

    def test_no_split(self):
        assert split_two_prime(IntPoly([1, 1, 1]), 2, 3).status == "no_split"

    def test_impossible_degree(self):
        assert split_two_prime(IntPoly([1, 1]), 2, 3).status == "no_split"

    def test_prime_order_swapped(self):
        q = IntPoly([1, 0, 2]) * IntPoly([1, 0, 0, -1])
        res = split_two_prime(q, 3, 2)
        assert res.status == "split"
        assert res.a == IntPoly([1, -1])  # the t^3 part now comes first
        assert res.b == IntPoly([1, 2])

    def test_pure_b_side(self):
        q = IntPoly([1, -1]).inflate(3)
        res = split_two_prime(q, 2, 3)
        assert res.status == "split"
        assert res.a == IntPoly([1]) and res.b == IntPoly([1, -1])

    def test_no_split_although_a_shape_fits(self):
        # degree 5 = 2 + 3 fits the shape (1, 1), but that would need ab = 1, not 2
        q = IntPoly([1, 0, 1, 1, 0, 2])
        assert split_two_prime(q, 2, 3).status == "no_split"

    # a pair of odd primes is refused: the gcd route needs one prime to be 2,
    # so neither the trivial split nor an `inconclusive` answer is given
    def test_odd_odd_trivial_only(self):
        with pytest.raises(ValueError, match="must be 2"):
            split_two_prime(IntPoly([1, 2]).inflate(3), 3, 5)

    def test_odd_odd_inconclusive(self):
        q = IntPoly([1, 2]).inflate(3) * IntPoly([1, 1]).inflate(5)
        with pytest.raises(ValueError, match="must be 2"):
            split_two_prime(q, 3, 5)

    def test_requires_unit_constant(self):
        with pytest.raises(ValueError):
            split_two_prime(IntPoly([2, 0, 1]), 2, 3)

    def test_requires_distinct_primes(self):
        with pytest.raises(ValueError):
            split_two_prime(IntPoly([1, 0, 1]), 2, 2)

    def test_random_products_recovered(self):
        rng = random.Random(31)
        for p in (3, 5, 7):
            for _ in range(60):
                a = IntPoly([1] + [rng.randint(-3, 3) for _ in range(rng.randint(0, 3))])
                b = IntPoly([1] + [rng.randint(-3, 3) for _ in range(rng.randint(0, 3))])
                q = a.inflate(2) * b.inflate(p)
                res = split_two_prime(q, 2, p)
                assert res.status == "split"
                assert res.a.inflate(2) * res.b.inflate(p) == q


class TestGsumScan:
    def test_small_scan_clean(self):
        table = gsum_invariance_scan(3, 10)
        assert table.mismatches == ()
        assert len(table.entries) == 30

    def test_entries_match_direct_recomputation(self):
        table = gsum_invariance_scan(3, 8)
        for k, m, v in table.entries:
            assert v == gsum(k, m)

    def test_each_distinct_sum_taken_once(self, monkeypatch):
        # gsum(k, m) depends on (min(k mod m, -k mod m), m) alone: a 40 x 3
        # scan has 5 such pairs, (0, 1), (0, 2), (1, 2), (0, 3) and (1, 3)
        from lpdiv import curves

        char_sum = curves.char_sum
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            return char_sum(*args, **kwargs)

        monkeypatch.setattr(curves, "char_sum", spy)
        table = gsum_invariance_scan(40, 3)
        assert len(calls) == 5
        monkeypatch.setattr(curves, "char_sum", char_sum)
        assert len(table.entries) == 120
        assert all(v == gsum(k, m) for k, m, v in table.entries)

    def test_gcd_rule_examples(self, monkeypatch):
        table = gsum_invariance_scan(4, 6)
        assert all(v == gsum(k, m) for k, m, v in table.entries)
        assert table.mismatches == ()
        # one sum off by one: at m = 5, k = 2 and k = 3 fold to i = 2 and
        # are compared with the gcd column k = 1 (i = 1); k = 4 folds to
        # i = 1 and stays consistent
        from lpdiv import decomp
        from lpdiv.curves import gsum_exponent

        def off_by_one(k, m, **kwargs):
            return gsum(k, m, **kwargs) + ((gsum_exponent(k, m), m) == (2, 5))

        monkeypatch.setattr(decomp, "gsum", off_by_one)
        assert gsum_invariance_scan(4, 6).mismatches == ((2, 5), (3, 5))

    def test_scan_beyond_the_bound_refused_before_summing(self, monkeypatch):
        from lpdiv import curves

        def refuse(*args, **kwargs):
            raise AssertionError("summed a scan that exceeds the bound")

        monkeypatch.setattr(curves, "char_sum", refuse)
        with pytest.raises(TooLarge, match=r"^m = 35 exceeds the enumeration bound 34$"):
            gsum_invariance_scan(1, 35)


class TestCounterexample:
    def test_all_assertions_pass(self):
        rep = counterexample_f3()
        assert rep.ok
        assert rep.valid_lpolys
        assert rep.counts_equal_coprime_to_6
        assert rep.counts_differ_at_m2
        assert rep.s2_values == (-5, 5)
        assert rep.not_divisible
        assert rep.extensions_squarefree

    def test_metadata_flagged_unverified(self):
        rep = counterexample_f3()
        assert rep.curve_equations_metadata["verified"] is False

    def test_general_family_same_counts_coprime_to_6(self):
        # qt^2 - at + 1 against q^2 t^4 - aq t^3 + (a^2-q) t^2 - at + 1:
        # counts agree whenever gcd(m, 6) = 1
        for q, a in [(3, -1), (3, 1), (5, 2), (7, 3), (2, 1)]:
            l1 = IntPoly([1, -a, q])
            l2 = IntPoly([1, -a, a * a - q, -a * q, q * q])
            from lpdiv.intpoly import power_sums_from_poly

            s1 = power_sums_from_poly(l1, 20)
            s2 = power_sums_from_poly(l2, 20)
            for m in range(1, 21):
                if gcd(m, 6) == 1:
                    assert s1[m - 1] == s2[m - 1]


class TestTheoremOracles:
    def test_never_violation_on_synthetic_pairs(self):
        rng = random.Random(41)
        holds = 0
        for _ in range(40):
            q = rng.choice([2, 3, 4, 5])
            k = rng.choice([2, 3, 5])
            lc = oracles.make_weil_lpoly(rng, q, rng.randint(1, 3))
            if rng.random() < 0.7:
                # a pair satisfying hypothesis 1 by construction
                qpoly = IntPoly([1] + [rng.randint(-4, 4) for _ in range(rng.randint(0, 2))])
                ld = LPolynomial(q=q, g=lc.g + (k * qpoly.degree + 1) // 2,
                                 poly=qpoly.inflate(k) * lc.poly)
            else:
                ld = oracles.make_weil_lpoly(rng, q, rng.randint(1, 3))
            rep = check_main_theorem(lc, ld, k, 2 * (lc.g + ld.g) + 1)
            assert rep.verdict is not Verdict.VIOLATION
            holds += rep.verdict is Verdict.HOLDS
        assert holds >= 10  # the criterion must actually fire, not just abstain

    def test_every_m_decided_as_the_identity_decides_it(self):
        # Comparing counts up to m = k (deg L_C + deg L_D) - 1 decides
        # hypothesis 1 for every m: it fails exactly when the identity does.
        # At short horizons the verdict is then HOLDS exactly when the
        # identity holds (given hypothesis 2), and never a violation.
        rng = random.Random(43)
        found = {True: 0, False: 0}
        holds = 0
        for _ in range(500):
            q = rng.choice([2, 3, 4, 5])
            k = rng.choice([2, 3, 4, 5])
            lc = oracles.make_weil_lpoly(rng, q, rng.randint(1, 3))
            if rng.random() < 0.5:
                qpoly = oracles.make_weil_lpoly(rng, q**k, rng.randint(0, 1))
                ld = LPolynomial(q=q, g=lc.g + k * qpoly.g, poly=qpoly.poly.inflate(k) * lc.poly)
            else:
                ld = oracles.make_weil_lpoly(rng, q, rng.randint(1, 3))
            identity = oracles.master_identity_check(lc, ld, k)
            reach = k * (lc.poly.degree + ld.poly.degree) - 1
            assert (check_main_theorem(lc, ld, k, reach).hyp1_first_fail is None) is identity
            for horizon in (1, 2, 3):
                rep = check_main_theorem(lc, ld, k, horizon)
                assert rep.verdict is not Verdict.VIOLATION, (k, lc, ld, horizon)
                if rep.hyp2_squarefree:
                    assert (rep.verdict is Verdict.HOLDS) is identity
                if rep.hyp1_first_fail is not None:
                    assert rep.hyp1_first_fail <= reach and rep.hyp1_first_fail % k
            if rep.verdict is Verdict.HOLDS:  # at every horizon alike
                assert_holds_decides_every_m(rep)
                holds += 1
            found[identity] += 1
        assert min(found.values()) >= 150  # both outcomes well represented
        assert holds >= 100
