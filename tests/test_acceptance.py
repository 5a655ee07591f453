"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`.  Criterion 8 counts the
k = 6 curve up to m = 33 (a few seconds on one thread) and compares the
report with dk6_result.json, the committed stdout of
`python -m lpdiv verify-dk --k 6`; tests/test_decomp.py checks the same
record from recorded counts, without counting.
"""

import json
import pathlib
import random
from contextlib import contextmanager

import pytest

from lpdiv.cli import emit_report, main as cli_main
from lpdiv.curves import count_points, count_series, curve_from_json_dict, dk_curve
from lpdiv.decomp import (
    Verdict,
    check_main_theorem,
    counterexample_f3,
    gsum_invariance_scan,
    verify_conjecture_dk,
)
from lpdiv.intpoly import IntPoly, poly_from_power_sums, power_sums_from_poly
from lpdiv.zeta import (
    LPolynomial,
    extension_lpoly,
    lpoly_from_counts,
    p_rank_manin,
    validate_lpoly,
)

import oracles

SAMPLES = pathlib.Path(__file__).resolve().parent.parent / "sample_inputs"

D1 = IntPoly([1, 1, 0, 2, 4])  # 4t^4 + 2t^3 + t + 1
PUBLISHED_FACTORS = {
    1: IntPoly([1]),
    2: IntPoly([1, 0, 2]),  # 2t^2 + 1
    3: IntPoly([1, 0, 0, -4, 0, 0, 8]),  # 8t^6 - 4t^3 + 1
    4: IntPoly([1, 0, 2] + [0] * 9 + [64, 0, 128]),  # 128t^14 + 64t^12 + 2t^2 + 1
    5: IntPoly([1] + [0] * 4 + [4] + [0] * 19 + [4096] + [0] * 4 + [32768]),
    # 32768t^30 + 4096t^25 + 4t^5 + 1
}


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {description}")
        raise
    print(f"[PASS] criterion {number}: {description}")


def computed_dk_lpoly(k):
    g = 2 ** (k - 1) + 1
    counts = count_series(dk_curve(k), g).counts
    return lpoly_from_counts(2, g, counts)


def test_criterion_1_published_lpolynomial_table():
    with criterion(1, "computed L-polynomials reproduce the published table exactly"):
        for k in range(1, 6):
            expected = D1 * PUBLISHED_FACTORS[k]
            got = computed_dk_lpoly(k)
            assert got.poly == expected, f"k={k}: {got.poly} != {expected}"
            assert got.g == 2 ** (k - 1) + 1


def test_criterion_2_conjecture_dk_structure():
    with criterion(2, "divisibility and t^p quotient support for k = 1..5"):
        primes = {2: 2, 3: 3, 4: 2, 5: 5}
        for k in range(1, 6):
            rep = verify_conjecture_dk(k)
            assert rep.divides, f"k={k}: no divisibility"
            if k == 1:
                assert rep.structure.kind == "unit"
                continue
            assert rep.structure.kind == "prime_power", f"k={k}: {rep.structure.kind}"
            p = primes[k]
            assert rep.structure.primes == (p,)
            assert rep.structure.parts[0].inflate(p) == rep.quotient


def test_criterion_3_gsum_invariance_scan():
    with criterion(3, "no gcd-rule mismatches for k <= 5, m <= 20"):
        table = gsum_invariance_scan(5, 20)
        assert table.mismatches == ()
        assert len(table.entries) == 100


def test_criterion_4_f3_counterexample():
    with criterion(4, "all published F_3 counterexample facts verify"):
        rep = counterexample_f3()
        assert rep.valid_lpolys
        assert rep.counts_equal_coprime_to_6
        assert rep.counts_differ_at_m2 and rep.s2_values == (-5, 5)
        assert rep.not_divisible
        assert rep.extensions_squarefree
        assert rep.ok


def test_criterion_5_oracle_equivalence_bundled_curves():
    with criterion(5, "kernel counting equals per-(x,y) enumeration, m <= 12"):
        binary_curves = []
        for path in sorted(SAMPLES.glob("*.json")):
            obj = json.loads(path.read_text())
            if obj.get("model") == "as2":
                binary_curves.append((path.name, curve_from_json_dict(obj)))
        assert len(binary_curves) >= 4
        for name, curve in binary_curves:
            for m in range(1, 13):
                fast = count_points(curve, m)
                naive = oracles.naive_count_as2(curve, m)
                assert fast == naive, f"{name} m={m}: {fast} != {naive}"


def test_criterion_6_property_suite():
    with criterion(6, "Newton roundtrips, validation, tower law, identity, p-ranks"):
        # 500 Newton roundtrips at degree <= 12
        rng = random.Random(20260810)
        done = 0
        while done < 500:
            d = rng.randint(1, 12)
            f = IntPoly([1] + [rng.randint(-9, 9) for _ in range(d)])
            if f.degree != d:
                continue
            assert poly_from_power_sums(power_sums_from_poly(f, d), d) == f
            done += 1

        lps = {k: computed_dk_lpoly(k) for k in range(1, 6)}

        # functional-equation validation of every produced L-polynomial
        for lp in lps.values():
            assert validate_lpoly(lp).ok and oracles.roots_on_circle(lp)
        # L_{D_6} (genus 33) has a repeated part of degree 8, where numeric
        # roots are ill-conditioned: its roots are checked through that gcd
        # with L' and the squarefree quotient, each with simple roots
        l6 = lpoly_from_counts(2, 33, oracles.DK6_COUNTS)
        assert validate_lpoly(l6).ok
        repeated = oracles.fraction_gcd(l6.poly, l6.poly.derivative())
        ok, simple = oracles.fraction_divides(repeated, l6.poly)
        assert ok and (repeated.degree, simple.degree) == (8, 58)
        for part in (repeated, simple):
            assert oracles.roots_on_circle(LPolynomial(q=2, g=part.degree // 2, poly=part))
        for _ in range(50):
            q = rng.choice([2, 3, 4, 5])
            lp = oracles.make_weil_lpoly(rng, q, rng.randint(1, 6))
            assert validate_lpoly(lp).ok

        # tower law
        for lp in (lps[1], oracles.make_weil_lpoly(rng, 3, 3)):
            assert extension_lpoly(extension_lpoly(lp, 2), 3) == extension_lpoly(lp, 6)
            assert extension_lpoly(extension_lpoly(lp, 2), 2) == extension_lpoly(lp, 4)

        # master identity on the family: for prime k the modulus is k itself;
        # for the prime power k = 4 the theorem applies with modulus 2.  The
        # literal modulus-4 instance is genuinely false (counts differ at
        # m = 2, which modulus 4 does not protect), and we pin that too.
        for k in (2, 3, 5):
            assert oracles.master_identity_check(lps[1], lps[k], k)
        assert oracles.master_identity_check(lps[1], lps[4], 2)
        assert not oracles.master_identity_check(lps[1], lps[4], 4)

        # p-rank 1 for every family L-polynomial, 0 for every quotient
        from lpdiv.intpoly import divides_with_quotient
        from lpdiv.zeta import mod_p_degree

        for k, lp in lps.items():
            assert p_rank_manin(lp, 2) == 1
            ok, quot = divides_with_quotient(lps[1].poly, lp.poly)
            assert ok
            assert mod_p_degree(quot, 2) == 0


def test_criterion_7_theorem_oracles_on_synthetic_instances():
    with criterion(7, "no false verdicts across 200 synthetic instances, at horizons 1..3 too"):
        rng = random.Random(777)
        verdicts = {Verdict.HOLDS: 0, Verdict.HYPOTHESIS_FAILS: 0}
        for _ in range(200):
            q = rng.choice([2, 3, 4, 5])
            k = rng.choice([2, 3, 5])
            g_c = rng.randint(1, 3)
            lc = oracles.make_weil_lpoly(rng, q, g_c)
            if rng.random() < 0.7:
                qpoly = IntPoly([1] + [rng.randint(-4, 4) for _ in range(rng.randint(0, 2))])
                g_d = g_c + (k * qpoly.degree + 1) // 2
                ld = LPolynomial(q=q, g=g_d, poly=qpoly.inflate(k) * lc.poly)
            else:
                qpoly = None
                ld = oracles.make_weil_lpoly(rng, q, rng.randint(1, 6 - g_c))
            horizon = 2 * (lc.g + ld.g) + 1
            rep = check_main_theorem(lc, ld, k, horizon)
            assert rep.verdict is not Verdict.VIOLATION, (q, k, lc, ld)
            verdicts[rep.verdict] += 1
            if qpoly is not None:
                assert rep.hyp1_first_fail is None  # the converse: Q(t^k) L_C has L_C's counts
            # counts compared only up to a short horizon still never make
            # an independent pair a violation
            for short in (1, 2, 3):
                assert check_main_theorem(lc, ld, k, short).verdict is not Verdict.VIOLATION, (
                    q, k, lc, ld, short)
        assert verdicts[Verdict.HOLDS] >= 40  # the criterion actually fires


def test_criterion_8_stretch_dk6():
    with criterion(8, "k = 6 divides with a two-prime split, as in dk6_result.json"):
        rep = verify_conjecture_dk(6)
        assert emit_report(rep, "json") == (SAMPLES.parent / "dk6_result.json").read_text()
        a, b = rep.structure.parts
        assert a.inflate(2) * b.inflate(3) == rep.quotient
        print("k=6 structure:", rep.structure)


def test_cli_smoke_bundled_inputs(capsys):
    # every CLI path exercisable with the bundled inputs
    assert cli_main(["count", "--curve", str(SAMPLES / "d1.json"), "--m", "4"]) == 0
    assert cli_main(["lpoly", "--curve", str(SAMPLES / "x3.json")]) == 0
    assert cli_main(["gsum", "--k", "2", "--m", "10"]) == 0
    assert cli_main(["verify-dk", "--k", "3"]) == 0
    assert (
        cli_main(
            ["check-div", "--lc", str(SAMPLES / "f3_lc.json"),
             "--ld", str(SAMPLES / "f3_ld.json"), "--k", "6", "--horizon", "12"]
        )
        == 0
    )
    assert cli_main(["scan-gsum", "--k", "3", "--m", "12"]) == 0
    assert cli_main(["counterexample"]) == 0
    capsys.readouterr()
