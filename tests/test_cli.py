import json
import os
import pathlib
import subprocess
import sys

import pytest

from lpdiv.cli import emit_report, main

import oracles

SAMPLES = pathlib.Path(__file__).resolve().parent.parent / "sample_inputs"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def file_argv(command, path):
    """A command that reads path first: as the curve of count or lpoly, or
    as L_C of check-div against D_2."""
    return {
        "count": ("count", "--curve", str(path), "--m", "3"),
        "lpoly": ("lpoly", "--curve", str(path)),
        "check-div": ("check-div", "--lc", str(path), "--ld", str(SAMPLES / "d2.json"), "--k", "2"),
    }[command]


class TestCommands:
    def test_count(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--curve", str(SAMPLES / "d1.json"), "--m", "3")
        assert code == 0
        assert json.loads(out)["count"] == 16

    def test_lpoly_json_is_loadable_lpolynomial(self, capsys):
        code, out, _ = run_cli(capsys, "lpoly", "--curve", str(SAMPLES / "d1.json"))
        assert code == 0
        obj = json.loads(out)
        assert obj["coeffs"] == ["1", "1", "0", "2", "4"]
        assert obj["poly"] == "4t^4+2t^3+t+1"

    def test_gsum_value(self, capsys):
        code, out, _ = run_cli(capsys, "gsum", "--k", "1", "--m", "2")
        assert code == 0
        assert json.loads(out)["value"] == -1

    def test_verify_dk_quotient_string(self, capsys):
        code, out, _ = run_cli(capsys, "verify-dk", "--k", "2")
        assert code == 0
        obj = json.loads(out)
        assert obj["quotient"] == "2t^2+1"
        assert obj["divides"] is True

    def test_check_div_f3_pair_is_finding_not_failure(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "check-div",
            "--lc", str(SAMPLES / "f3_lc.json"),
            "--ld", str(SAMPLES / "f3_ld.json"),
            "--k", "6",
            "--horizon", "12",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["verdict"] == "HypothesisFails"
        assert obj["hyp1_first_fail"] == 2

    @pytest.mark.parametrize("pair", [("f3_lc.json", "f3_ld.json"), ("f3_lc_curve.json", "f3_ld_curve.json")],
                             ids=["lpolys", "curves"])
    def test_check_div_short_horizon_is_no_violation(self, capsys, pair):
        # counts agree at m = 1 and differ at m = 2: the rows stop at the
        # horizon, but hypothesis 1 is decided for every m before a verdict
        lc, ld = (str(SAMPLES / name) for name in pair)
        code, out, err = run_cli(capsys, "check-div", "--lc", lc, "--ld", ld, "--k", "6", "--horizon", "1")
        assert (code, err) == (0, "")
        obj = json.loads(out)
        assert obj["verdict"] == "HypothesisFails"
        assert obj["hyp1_first_fail"] == 2
        assert obj["hyp1_counts_equal"] == [[1, True]]
        assert obj["horizon"] == obj["hyp1_certified_up_to"] == 1

    @pytest.mark.parametrize("fmt", ["json", "table"])
    @pytest.mark.parametrize("horizon", [(), ("--horizon", "12")], ids=["default", "12"])
    def test_check_div_on_curves_equals_lpolynomials(self, capsys, fmt, horizon):
        # each curve is counted to the report's horizon
        def check_div(lc, ld):
            return run_cli(capsys, "check-div", "--lc", str(SAMPLES / lc), "--ld", str(SAMPLES / ld),
                           "--k", "6", "--format", fmt, *horizon)

        from_curves = check_div("f3_lc_curve.json", "f3_ld_curve.json")
        assert from_curves == check_div("f3_lc.json", "f3_ld.json")
        assert from_curves[0] == 0 and from_curves[2] == ""

    def test_check_div_holds(self, capsys, tmp_path):
        lc = tmp_path / "lc.json"
        ld = tmp_path / "ld.json"
        lc.write_text(json.dumps({"q": 2, "g": 2, "coeffs": ["1", "1", "0", "2", "4"]}))
        ld.write_text(
            json.dumps({"q": 2, "g": 3, "coeffs": ["1", "1", "2", "4", "4", "4", "8"]})
        )
        code, out, _ = run_cli(capsys, "check-div", "--lc", str(lc), "--ld", str(ld), "--k", "2")
        assert code == 0
        assert json.loads(out)["verdict"] == "TheoremApplies&Holds"

    def test_scan_gsum(self, capsys):
        code, out, _ = run_cli(capsys, "scan-gsum", "--k", "3", "--m", "8")
        assert code == 0
        obj = json.loads(out)
        assert obj["mismatches"] == []
        assert len(obj["entries"]) == 24

    def test_counterexample(self, capsys):
        code, out, _ = run_cli(capsys, "counterexample")
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_table_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify-dk", "--k", "3", "--format", "table"
        )
        assert code == 0
        assert "8t^6 - 4t^3 + 1" in out

    def test_hyper_curve_count(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--curve", str(SAMPLES / "hyper3.json"), "--m", "2")
        assert code == 0
        assert json.loads(out)["q"] == 3


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("verify-dk", "--k", "3"),
            ("scan-gsum", "--k", "2", "--m", "10"),
            ("counterexample",),
            ("lpoly", "--curve", "SAMPLE:d2.json"),
        ],
    )
    def test_byte_identical_output(self, capsys, argv):
        argv = [a.replace("SAMPLE:", str(SAMPLES) + "/") for a in argv]
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second

    def test_threads_do_not_change_output(self, capsys):
        _, one, _ = run_cli(capsys, "gsum", "--k", "2", "--m", "12", "--threads", "1")
        _, two, _ = run_cli(capsys, "gsum", "--k", "2", "--m", "12", "--threads", "2")
        assert one == two



# Byte-exact ``--format table`` reports, one per branch of the table writer
TABLE_REPORTS = {
    "scan-gsum": (("scan-gsum", "--k", "5", "--m", "20"), """\
k\\m      1     2     3     4     5     6     7     8     9    10    11    12    13    14    15    16    17    18    19    20
1        1    -1     7     7    -9    -1   -41    31     7    79    23  -161   -25  -337   567   127   647  -433 -2089   287
2        1     3     7    -1    -9    15   -41    -1     7   143    23  -289   -25   -81   567  -385   647   591 -2089 -1761
3        1    -1    -5     7    -9    -1   -41    31   103    79    23   223   -25  -337  1335   127   647  -433 -2089   287
4        1     3     7    -1    -9    15   -41    -1     7   143    23   479   -25   -81   567  -385   647   591 -2089 -1761
5        1    -1     7     7    11    -1   -41    31     7    -1    23  -161   -25  -337   887   127   647  -433 -2089  -993
all (k, m) consistent with the gcd rule
"""),
    "counterexample": (("counterexample",), """\
F_3 counterexample: L_C = 3t^2 + t + 1, L_D = 9t^4 + 3t^3 - 2t^2 + t + 1
  [PASS] both polynomials are valid L-polynomials
  [PASS] counts equal for m <= 25 coprime to 6
  [PASS] counts differ at m = 2 (s_2: -5 vs 5)
  [PASS] L_C does not divide L_D
  [PASS] extensions of L_C stay squarefree (n <= 12)
  overall: PASS
"""),
    "lpoly": (("lpoly", "--curve", "SAMPLE:d1.json"), """\
q = 2
g = 2
L(t) = 4t^4 + 2t^3 + t + 1
"""),
    "count": (("count", "--curve", "SAMPLE:d1.json", "--m", "3"), """\
schema = 1
type = point_count
q = 2
m = 3
count = 16
"""),
    "gsum": (("gsum", "--k", "1", "--m", "2"), """\
schema = 1
type = gsum
k = 1
m = 2
value = -1
"""),
    "check-div-holds": (("check-div", "--lc", "SAMPLE:d1.json", "--ld", "SAMPLE:d2.json", "--k", "2"), """\
divisibility check  k=2  q=2  horizon=10
  L_C = 4t^4 + 2t^3 + t + 1
  L_D = 8t^6 + 4t^5 + 4t^4 + 4t^3 + 2t^2 + t + 1
  hyp 1: counts equal for all m <= 10 with 2 | m excluded
  hyp 2: k-th power roots distinct (squarefree): True
  divides: True   quotient: 2t^2 + 1   in Z[t^k]: True
  verdict: TheoremApplies&Holds
"""),
}


# Byte-exact ``--format json`` reports.  Each expected string is the report
# in compact form; the output must equal its sorted-key, two-space layout.
JSON_REPORTS = {
    "check-div-holds": (("check-div", "--lc", "SAMPLE:d1.json", "--ld", "SAMPLE:d2.json", "--k", "2"),
        '{"divides": true, "horizon": 10, "hyp1_certified_up_to": 10, "hyp1_counts_equal": [[1, true], '
        '[3, true], [5, true], [7, true], [9, true]], "hyp1_first_fail": null, "hyp2_squarefree": true, '
        '"k": 2, "lc": "4t^4+2t^3+t+1", "ld": "8t^6+4t^5+4t^4+4t^3+2t^2+t+1", "q": 2, "quotient": "2t^2+1", '
        '"quotient_in_tk": true, "schema": 1, "type": "divisibility_report", "verdict": "TheoremApplies&Holds"}'),
    "check-div-hypothesis-fails": (
        ("check-div", "--lc", "SAMPLE:f3_lc.json", "--ld", "SAMPLE:f3_ld.json", "--k", "6", "--horizon", "12"),
        '{"divides": false, "horizon": 12, "hyp1_certified_up_to": 12, "hyp1_counts_equal": [[1, true], '
        '[2, false], [3, false], [4, false], [5, true], [7, true], [8, false], [9, false], [10, false], '
        '[11, true]], "hyp1_first_fail": 2, "hyp2_squarefree": true, "k": 6, "lc": "3t^2+t+1", '
        '"ld": "9t^4+3t^3-2t^2+t+1", "q": 3, "quotient": null, "quotient_in_tk": false, "schema": 1, '
        '"type": "divisibility_report", "verdict": "HypothesisFails"}'),
    "verify-dk-2": (("verify-dk", "--k", "2"),
        '{"d1_lpoly": "4t^4+2t^3+t+1", "divides": true, "genus": 3, "horizon": 3, "k": 2, '
        '"lpoly": "8t^6+4t^5+4t^4+4t^3+2t^2+t+1", "lpoly_two_rank": 1, "quotient": "2t^2+1", '
        '"quotient_two_rank": 0, "schema": 1, "structure": {"kind": "prime_power", "parts": ["2t+1"], '
        '"primes": [2]}, "type": "dk_report"}'),
    "verify-dk-3": (("verify-dk", "--k", "3"),
        '{"d1_lpoly": "4t^4+2t^3+t+1", "divides": true, "genus": 5, "horizon": 5, "k": 3, '
        '"lpoly": "32t^10+16t^9-8t^7-2t^3+t+1", "lpoly_two_rank": 1, "quotient": "8t^6-4t^3+1", '
        '"quotient_two_rank": 0, "schema": 1, "structure": {"kind": "prime_power", "parts": ["8t^2-4t+1"], '
        '"primes": [3]}, "type": "dk_report"}'),
    "scan-gsum": (("scan-gsum", "--k", "2", "--m", "4"),
        '{"entries": [[1, 1, 1], [1, 2, -1], [1, 3, 7], [1, 4, 7], [2, 1, 1], [2, 2, 3], [2, 3, 7], '
        '[2, 4, -1]], "k_max": 2, "m_max": 4, "mismatches": [], "schema": 1, "type": "gsum_table"}'),
    "counterexample": (("counterexample",),
        '{"counts_differ_at_m2": true, "counts_equal_coprime_to_6": true, "curve_equations_metadata": '
        '{"c": "y^2+(2x+1)y=x^3+2x^2+2 over F_3", "d": "y^2+(x^2+x+1)y=x^5+x^4+x^2+x+1 over F_3", '
        '"verified": false}, "extensions_squarefree": true, "horizon": 25, "lc": "3t^2+t+1", '
        '"ld": "9t^4+3t^3-2t^2+t+1", "not_divisible": true, "ok": true, "s2_values": [-5, 5], '
        '"schema": 1, "type": "counterexample_f3", "valid_lpolys": true}'),
    "lpoly": (("lpoly", "--curve", "SAMPLE:d1.json"),
        '{"coeffs": ["1", "1", "0", "2", "4"], "g": 2, "poly": "4t^4+2t^3+t+1", "q": 2, "schema": 1, '
        '"type": "lpolynomial"}'),
    "count": (("count", "--curve", "SAMPLE:d1.json", "--m", "3"),
        '{"count": 16, "m": 3, "q": 2, "schema": 1, "type": "point_count"}'),
    "gsum": (("gsum", "--k", "1", "--m", "2"),
        '{"k": 1, "m": 2, "schema": 1, "type": "gsum", "value": -1}'),
}


def run_report(capsys, argv, fmt):
    argv = [a.replace("SAMPLE:", str(SAMPLES) + "/") for a in argv]
    return run_cli(capsys, *argv, "--format", fmt, "--threads", "1")


class TestReportFormat:
    @pytest.mark.parametrize("name", TABLE_REPORTS)
    def test_table_report_is_byte_exact(self, capsys, name):
        argv, expected = TABLE_REPORTS[name]
        assert run_report(capsys, argv, "table") == (0, expected, "")

    @pytest.mark.parametrize("name", JSON_REPORTS)
    def test_json_report_is_byte_exact(self, capsys, name):
        argv, expected = JSON_REPORTS[name]
        expected = json.dumps(json.loads(expected), sort_keys=True, indent=2) + "\n"
        assert run_report(capsys, argv, "json") == (0, expected, "")

    def test_scan_mismatches_are_reported(self, capsys, monkeypatch):
        # one sum off by one, as in test_gcd_rule_examples: at m = 5, k = 2
        # and k = 3 fold to i = 2 and differ from the gcd column k = 1
        from lpdiv import decomp
        from lpdiv.curves import gsum, gsum_exponent

        def off_by_one(k, m, **kwargs):
            return gsum(k, m, **kwargs) + ((gsum_exponent(k, m), m) == (2, 5))

        monkeypatch.setattr(decomp, "gsum", off_by_one)
        argv = ("scan-gsum", "--k", "3", "--m", "5")
        assert run_report(capsys, argv, "table") == (0, """\
k\\m   1  2  3  4  5
1     1 -1  7  7 -9
2     1  3  7 -1 -8
3     1 -1 -5  7 -8
mismatches: (k=2, m=5), (k=3, m=5)
""", "")
        code, out, err = run_report(capsys, argv, "json")
        assert (code, err) == (0, "")
        assert json.loads(out)["mismatches"] == [[2, 5], [3, 5]]

    @pytest.mark.parametrize("k,primes", [(4, [2]), (6, [2, 3])])
    def test_no_split_structure_is_a_finding(self, capsys, monkeypatch, k, primes):
        # 1 + t is neither in Z[t^2] nor a product A(t^2) B(t^3); a
        # synthetic D_2 report carries that quotient and its structure
        import lpdiv.cli as cli_mod
        from dataclasses import replace
        from lpdiv.decomp import QuotientStructure, _quotient_structure, verify_conjecture_dk
        from lpdiv.intpoly import IntPoly

        structure = _quotient_structure(k, IntPoly([1, 1]))
        assert structure == QuotientStructure(kind="no_split", primes=tuple(primes))
        report = replace(verify_conjecture_dk(2, threads=1), quotient=IntPoly([1, 1]), structure=structure)
        monkeypatch.setattr(cli_mod, "verify_conjecture_dk", lambda *args, **kwargs: report)
        code, out, err = run_report(capsys, ("verify-dk", "--k", "2"), "table")
        assert (code, err) == (0, "")
        assert "  quotient: t + 1\n  structure: no_split\n" in out
        code, out, err = run_report(capsys, ("verify-dk", "--k", "2"), "json")
        assert (code, err) == (0, "")
        assert json.loads(out)["structure"] == {"kind": "no_split", "parts": [], "primes": primes}

    @pytest.mark.parametrize("fmt", ["json", "table"])
    def test_unknown_report_type_is_refused(self, capsys, fmt):
        with pytest.raises(TypeError):
            emit_report(object(), fmt)
        assert capsys.readouterr() == ("", "")


class TestErrors:
    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "count", "--curve", "no-such.json", "--m", "1")
        assert code == 1
        assert "no-such.json" in err

    def test_bad_json(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run_cli(capsys, "count", "--curve", str(bad), "--m", "1")
        assert code == 1

    def test_missing_required_flag(self, capsys):
        code, _, err = run_cli(capsys, "gsum", "--k", "1")
        assert code == 1
        assert "--m" in err or "m" in err

    def test_unknown_command(self, capsys):
        code, _, _ = run_cli(capsys, "frobnicate")
        assert code == 1

    def test_max_m_enforced(self, capsys):
        code, out, err = run_cli(capsys, "count", "--curve", str(SAMPLES / "d1.json"), "--m", "35")
        assert (code, out) == (1, "")
        assert err == "error: m = 35 exceeds the enumeration bound 34\n"
        # the bound is fixed: there is no option to raise it
        code, out, err = run_cli(
            capsys, "count", "--curve", str(SAMPLES / "d1.json"), "--m", "3", "--max-m", "40"
        )
        assert (code, out) == (1, "")
        assert err.startswith("error: unrecognized arguments: --max-m")

    @pytest.mark.parametrize("m", ["19", "33"])
    def test_odd_order_beyond_the_cap(self, capsys, m):
        # 3^19 > 2^30: refused before the squares bitmap is allocated
        code, out, err = run_cli(capsys, "count", "--curve", str(SAMPLES / "hyper3.json"), "--m", m)
        assert (code, out) == (1, "")
        assert err == f"error: GF(3^{m}) exceeds the order cap 1073741824 of the counting walk\n"

    def test_general_denominator_beyond_table_bound(self, capsys):
        # the bound is a library argument; the message must not point CLI
        # users at an option they do not have
        code, out, err = run_cli(
            capsys, "count", "--curve", str(SAMPLES / "general4.json"), "--m", "23"
        )
        assert (code, out) == (1, "")
        assert err == (
            "error: m = 23 exceeds the bound m <= 22 for maps whose denominator is not a "
            "monomial (table_max_m is an argument of the library's char_sum, not a "
            "command-line option)\n"
        )

    @pytest.mark.parametrize("command", ["count", "lpoly", "check-div"])
    @pytest.mark.parametrize("content", [
        "[]",
        '"d1"',
        '{"model": "as2", "f_num": [1, 0, 0, 1], "f_den": [0]}',
        '{"model": "as2", "f_num": [1, 0, 0, 1], "f_den": []}',
        '{"model": "as2", "f_num": [0, 0, 0, 1.5], "f_den": [1]}',
        '{"model": "as2", "f_num": [0], "f_den": [1]}',
        '{"model": "as2", "f_num": [1], "f_den": [1]}',
        '{"model": "as2", "f_num": [], "f_den": [1]}',
        '{"q": 2, "g": 1, "coeffs": "112"}',
    ], ids=["list", "string", "zero-den", "empty-den", "float-coeff", "constant-0", "constant-1", "constant-empty",
            "string-coeffs"])
    def test_malformed_file_is_an_error_line(self, capsys, tmp_path, command, content):
        bad = tmp_path / "curve.json"
        bad.write_text(content)
        code, out, err = run_cli(capsys, *file_argv(command, bad))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command,content,key", [
        ("check-div", '{"q": 2, "g": 1}', "coeffs"),
        ("check-div", '{"g": 1, "coeffs": ["1", "1", "2"]}', "q"),
        ("count", '{"model": "as2", "f_num": [0, 0, 0, 1]}', "f_den"),
        ("lpoly", '{"model": "hyper_odd", "h": [], "f": [1, 2, 0, 1]}', "p"),
    ], ids=["lpoly-coeffs", "lpoly-q", "as2-f_den", "hyper-p"])
    def test_missing_key_names_the_key_and_the_file(self, capsys, tmp_path, command, content, key):
        bad = tmp_path / "input.json"
        bad.write_text(content)
        code, out, err = run_cli(capsys, *file_argv(command, bad))
        assert (code, out, err) == (1, "", f"error: {bad}: missing key {key!r}\n")

    @pytest.mark.parametrize("command", ["count", "lpoly", "check-div"])
    @pytest.mark.parametrize("content,message", [
        ('{"model": "as2", "f_num": 5, "f_den": [1]}', "f_num: expected an array, got 5"),
        ('{"model": "as2", "f_num": "1001", "f_den": [1]}', "f_num: expected an array, got '1001'"),
        ('{"model": "as2", "f_num": [0, 0, 0, 1], "f_den": {"0": 1}}', "f_den: expected an array, got {'0': 1}"),
        ('{"model": "hyper_odd", "p": 3, "h": null, "f": [1, 2, 0, 1]}', "h: expected an array, got None"),
        ('{"model": "hyper_odd", "p": 3, "h": [], "f": 7}', "f: expected an array, got 7"),
        ('{"model": "hyper_odd", "p": 9, "h": [], "f": [1, 2, 0, 1]}', "9 is not prime"),
    ], ids=["f_num-int", "f_num-string", "f_den-object", "h-null", "f-int", "hyper-p-9"])
    def test_bad_value_names_the_file(self, capsys, tmp_path, command, content, message):
        # a string is not read one character at a time, nor a number
        # iterated into a bare TypeError
        bad = tmp_path / "input.json"
        bad.write_text(content)
        code, out, err = run_cli(capsys, *file_argv(command, bad))
        assert (code, out, err) == (1, "", f"error: {bad}: {message}\n")

    @pytest.mark.parametrize("lc,ld,failure", [
        ({"q": 2, "g": 0, "coeffs": ["1", "1"]}, {"q": 2, "g": 0, "coeffs": ["1"]}, "degree 1 != 2g = 0"),
        ({"q": 3, "g": 1, "coeffs": ["2", "1", "6"]}, {"q": 3, "g": 1, "coeffs": ["2", "1", "6"]},
         "constant term is not 1"),
    ], ids=["degree", "constant-term"])
    def test_check_div_refuses_a_malformed_lpolynomial(self, capsys, tmp_path, lc, ld, failure):
        # neither a "violation" (exit 2) nor an error from deep in the algebra
        paths = []
        for name, obj in (("lc.json", lc), ("ld.json", ld)):
            paths.append(tmp_path / name)
            paths[-1].write_text(json.dumps(obj))
        code, out, err = run_cli(capsys, "check-div", "--lc", str(paths[0]), "--ld", str(paths[1]), "--k", "2")
        assert (code, out) == (1, "")
        assert err == f"error: {paths[0]} is not an L-polynomial: {failure}\n"

    def test_invalid_curve_model(self, capsys, tmp_path):
        bad = tmp_path / "curve.json"
        bad.write_text(json.dumps({"model": "as2", "f_num": [1], "f_den": [0, 0, 1]}))
        code, _, err = run_cli(capsys, "count", "--curve", str(bad), "--m", "2")
        assert code == 1

    @pytest.mark.parametrize("threads", ["0", "-3", "two"])
    @pytest.mark.parametrize(
        "argv",
        [
            ("count", "--curve", str(SAMPLES / "d1.json"), "--m", "3"),
            ("count", "--curve", str(SAMPLES / "hyper3.json"), "--m", "3"),
            ("count", "--curve", str(SAMPLES / "general4.json"), "--m", "3"),
            ("lpoly", "--curve", str(SAMPLES / "general4.json")),
            ("gsum", "--k", "1", "--m", "3"),
            ("verify-dk", "--k", "2"),
            ("check-div", "--lc", str(SAMPLES / "f3_lc.json"), "--ld", str(SAMPLES / "f3_ld.json"), "--k", "6"),
            ("scan-gsum", "--k", "2", "--m", "3"),
            ("counterexample",),
        ],
        ids=["count-d1", "count-hyper3", "count-general4", "lpoly", "gsum", "verify-dk", "check-div",
             "scan-gsum", "counterexample"],
    )
    def test_threads_below_one_rejected(self, capsys, argv, threads):
        code, out, err = run_cli(capsys, *argv, "--threads", threads)
        assert (code, out) == (1, "")
        assert err == f"error: argument --threads: must be an integer >= 1, not {threads!r}\n"

    def test_check_div_k1_rejected(self, capsys):
        code, _, err = run_cli(
            capsys,
            "check-div",
            "--lc", str(SAMPLES / "f3_lc.json"),
            "--ld", str(SAMPLES / "f3_ld.json"),
            "--k", "1",
        )
        assert code == 1

    @pytest.mark.parametrize("fmt", ["json", "table"])
    @pytest.mark.parametrize("bounds", [("0", "5"), ("3", "0"), ("-1", "3")])
    def test_scan_gsum_empty_range_rejected(self, capsys, fmt, bounds):
        k, m = bounds
        code, out, err = run_cli(capsys, "scan-gsum", "--k", k, "--m", m, "--format", fmt)
        assert (code, out) == (1, "")
        assert err == "error: scan bounds k and m must be >= 1\n"

    def test_check_div_horizon_zero_rejected(self, capsys):
        # 0 is refused like any other horizon below 1, not read as "default"
        code, out, err = run_cli(
            capsys,
            "check-div",
            "--lc", str(SAMPLES / "f3_lc.json"),
            "--ld", str(SAMPLES / "f3_ld.json"),
            "--k", "6", "--horizon", "0",
        )
        assert (code, out) == (1, "")
        assert err == "error: horizon must be >= 1\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ("lpoly", "--curve", str(SAMPLES / "d1.json"), "--horizon", "0"),
            ("lpoly", "--curve", str(SAMPLES / "d1.json"), "--horizon", "-5"),
            ("verify-dk", "--k", "2", "--horizon", "0"),
            ("verify-dk", "--k", "2", "--horizon", "-5"),
            ("check-div", "--lc", str(SAMPLES / "f3_lc.json"), "--ld", str(SAMPLES / "f3_ld.json"),
             "--k", "6", "--horizon", "-5"),
        ],
        ids=["lpoly-0", "lpoly-neg", "verify-dk-0", "verify-dk-neg", "check-div-neg"],
    )
    def test_horizon_below_one_rejected(self, capsys, argv):
        # not read as "count to the genus" or "use the default"
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == "error: horizon must be >= 1\n"

    @pytest.mark.parametrize(
        "lc,ld,k,horizon,message",
        [
            ("d3.json", "d1.json", "1", "30", "the divisibility criterion needs k >= 2"),
            ("hyper3.json", "d1.json", "2", "30", "L-polynomials must share the base field size"),
            ("d3.json", "f3_ld.json", "2", "30", "L-polynomials must share the base field size"),
            ("d3.json", "d1.json", "2", "0", "horizon must be >= 1"),
            ("f3_lc.json", "f3_ld.json", "40000", "5",
             "max(horizon, k * (deg L_C + deg L_D)) = 240000 exceeds the bound 4096 "
             "of the divisibility criterion"),
            # curve files: deg L = 2g, and g(D_3) + g(D_1) = 5 + 2
            ("d3.json", "d1.json", "293", "5",
             "max(horizon, k * (deg L_C + deg L_D)) = 4102 exceeds the bound 4096 "
             "of the divisibility criterion"),
            ("d3.json", "d1.json", "2", "4097",
             "max(horizon, k * (deg L_C + deg L_D)) = 4097 exceeds the bound 4096 "
             "of the divisibility criterion"),
        ],
        ids=["k1", "q-curves", "q-mixed", "horizon-0", "reach-lpolys", "reach-curves-k", "reach-curves-horizon"],
    )
    def test_check_div_refused_before_counting(self, capsys, monkeypatch, lc, ld, k, horizon, message):
        from lpdiv import curves

        def refuse(*args, **kwargs):
            raise AssertionError("counted a curve for a refused check")

        monkeypatch.setattr(curves, "count_points", refuse)
        code, out, err = run_cli(
            capsys, "check-div", "--lc", str(SAMPLES / lc), "--ld", str(SAMPLES / ld),
            "--k", k, "--horizon", horizon,
        )
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_check_div_refuses_power_sums_too_large(self, capsys, tmp_path):
        # a genus-1 pair over q = 2^31 - 1 within the reach bound: its power
        # sums and counts grow with log q, so reach * ceil(log2 q) is bounded
        q = 2**31 - 1
        path = tmp_path / "big_q.json"
        path.write_text(json.dumps({"q": q, "g": 1, "coeffs": [1, 0, q]}))
        code, out, err = run_cli(
            capsys, "check-div", "--lc", str(path), "--ld", str(path), "--k", "1024", "--horizon", "4096"
        )
        assert (code, out) == (1, "")
        assert err == (
            "error: max(horizon, k * (deg L_C + deg L_D)) * ceil(log2 q) = 4096 * 31 = 126976 "
            "exceeds the bound 16384 of the divisibility criterion\n"
        )

    def test_parser_is_built_once(self, capsys):
        from lpdiv import cli

        assert cli.build_parser() is cli.build_parser()
        hits = cli.build_parser.cache_info().hits
        run_cli(capsys, "gsum", "--k", "1", "--m", "2")
        run_cli(capsys, "gsum", "--k", "1", "--m", "3", "--format", "table")
        assert cli.build_parser.cache_info().hits == hits + 2


class TestEntryPoint:
    def test_python_m_lpdiv_runs_in_a_subprocess(self):
        src = str(SAMPLES.parent / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-m", "lpdiv", "verify-dk", "--k", "3", "--format", "table", "--threads", "1"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        assert "  quotient: 8t^6 - 4t^3 + 1\n" in proc.stdout


class TestVerifyDkNote:
    def test_k6_writes_nothing_to_stderr(self, capsys, monkeypatch):
        # the k = 6 record is stdout only
        import lpdiv.cli as cli_mod
        from lpdiv.decomp import dk_report_from_counts

        report = dk_report_from_counts(6, oracles.DK6_COUNTS)
        monkeypatch.setattr(cli_mod, "verify_conjecture_dk", lambda *args, **kwargs: report)
        code, out, err = run_cli(capsys, "verify-dk", "--k", "6")
        assert (code, err) == (0, "")
        assert out == (SAMPLES.parent / "dk6_result.json").read_text()

    @pytest.mark.parametrize("k,m", [(7, 65), (22, 2**21 + 1), (100, 2**99 + 1)])
    def test_refused_before_the_curve_is_built(self, capsys, monkeypatch, k, m):
        # D_k has 2^k + 3 coefficients: none is built past the bound
        from lpdiv import decomp

        def refuse(*args, **kwargs):
            raise AssertionError("built a curve whose series exceeds the bound")

        monkeypatch.setattr(decomp, "dk_curve", refuse)
        code, out, err = run_cli(capsys, "verify-dk", "--k", str(k))
        assert (code, out) == (1, "")
        assert err == f"error: m = {m} exceeds the enumeration bound 34\n"


class TestExitCodeTwo:
    def test_violation_verdict_maps_to_exit_two(self, capsys, monkeypatch):
        # a ViolationFound verdict cannot be produced by honest inputs, so
        # force one to pin the exit-code contract
        import lpdiv.cli as cli_mod
        from lpdiv.decomp import check_main_theorem as real_check
        from dataclasses import replace
        from lpdiv.decomp import Verdict

        def forced(*args, **kwargs):
            return replace(real_check(*args, **kwargs), verdict=Verdict.VIOLATION)

        monkeypatch.setattr(cli_mod, "check_main_theorem", forced)
        code, _, _ = run_cli(
            capsys,
            "check-div",
            "--lc", str(SAMPLES / "f3_lc.json"),
            "--ld", str(SAMPLES / "f3_ld.json"),
            "--k", "6",
        )
        assert code == 2

    @pytest.mark.parametrize("fmt", ["json", "table"])
    def test_failed_counterexample_fact_maps_to_exit_two(self, capsys, monkeypatch, fmt):
        # every published fact holds, so force one to fail: the report,
        # overall FAIL, still goes to stdout
        import lpdiv.cli as cli_mod
        from dataclasses import replace
        from lpdiv.decomp import counterexample_f3

        report = replace(counterexample_f3(), not_divisible=False)
        assert not report.ok
        monkeypatch.setattr(cli_mod, "counterexample_f3", lambda: report)
        code, out, err = run_cli(capsys, "counterexample", "--format", fmt)
        assert (code, out, err) == (2, emit_report(report, fmt), "")


class TestThreadResolution:
    def test_default_is_affinity_count(self):
        # the CPUs this process may run on, which under taskset or a cgroup
        # cpuset can be fewer than os.cpu_count()
        from lpdiv.finite_fields import resolve_threads

        assert resolve_threads(None) == len(os.sched_getaffinity(0))
