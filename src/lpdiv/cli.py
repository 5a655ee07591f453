"""Command-line interface: point counts, L-polynomials, exponential sums,
and the divisibility/conjecture verifiers, with deterministic table or JSON
reports.  Extension degrees are bounded by m <= 34, fixed in the field
constructor (a longer count series is refused before its first count), and
odd-characteristic fields by order 2^30.

Exit codes: 0 success (findings included), 1 usage or input errors, 2 for a
theorem-oracle violation (those indicate bugs, not discoveries)."""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache

from .curves import base_field_size, count_points, curve_from_json_dict, genus, gsum
from .decomp import (
    CounterexampleReport,
    DivisibilityReport,
    DkReport,
    GsumTable,
    Verdict,
    check_criterion_inputs,
    check_main_theorem,
    counterexample_f3,
    gsum_invariance_scan,
    json_report,
    verify_conjecture_dk,
)
from .intpoly import format_poly
from .zeta import LPolynomial, curve_lpoly, validate_lpoly

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATION = 2


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _thread_count(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, not {text!r}")
    return int(text)


@cache  # built once per process: parsing leaves the parser as it was
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lpdiv", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="command")
    sub.required = True

    def add(name, help_, curve=False, lpair=False, k=False, m=False, horizon=False):
        p = sub.add_parser(name, help=help_)
        if curve:
            p.add_argument("--curve", required=True, help="curve JSON file")
        if lpair:
            p.add_argument("--lc", required=True, help="curve or L-polynomial JSON file (divisor side)")
            p.add_argument("--ld", required=True, help="curve or L-polynomial JSON file (dividend side)")
        if k:
            p.add_argument("--k", type=int, required=True)
        if m:
            p.add_argument("--m", type=int, required=True)
        if horizon:
            p.add_argument("--horizon", type=int, default=None)
        p.add_argument("--threads", type=_thread_count, default=None, help="threads of the p = 2 Laurent-map kernel (default: CPUs this process may run on)")
        p.add_argument("--format", dest="fmt", choices=("table", "json"), default="json")
        return p

    add("count", "exact point count of a curve over F_{q^m}", curve=True, m=True)
    add("lpoly", "L-polynomial of a curve from exhaustive counts", curve=True, horizon=True)
    add("gsum", "exponential sum of x^(2^k+1)+x^(-1) over GF(2^m)*", k=True, m=True)
    add("verify-dk", "divisibility and quotient structure for the k-th family member", k=True, horizon=True)
    add("check-div", "divisibility criterion on two curve or L-polynomial files", lpair=True, k=True, horizon=True)
    add("scan-gsum", "gcd-dependence scan of the exponential sums (k, m up to bounds)", k=True, m=True)
    add("counterexample", "verify the fixed F_3 counterexample pair")
    return parser


def _load_json(path: str, parse=curve_from_json_dict):
    """parse(the JSON object in the file): an error in the file, a missing
    key or a value of the wrong kind included, names the file."""
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise UsageError(f"{path} does not hold a JSON object")
    try:
        return parse(obj)
    except ValueError as exc:
        raise UsageError(f"{path}: {exc}") from exc


def _curve_or_lpoly(obj: dict):
    return curve_from_json_dict(obj) if "model" in obj else LPolynomial.from_json_dict(obj)


def _load_side(path: str):
    """One check-div input: an object with a "model" key is a curve,
    anything else an L-polynomial, refused unless ``validate_lpoly``
    passes it."""
    side = _load_json(path, _curve_or_lpoly)
    failures = validate_lpoly(side).failures if isinstance(side, LPolynomial) else []
    if failures:
        raise UsageError(f"{path} is not an L-polynomial: {'; '.join(failures)}")
    return side


def emit_report(report, fmt: str = "json") -> str:
    """Deterministic serialization; json mode is byte-stable across runs."""
    if fmt == "json":
        obj = report.to_json_dict() if hasattr(report, "to_json_dict") else report
        return json.dumps(obj, sort_keys=True, indent=2) + "\n"
    return _to_table(report)


def _to_table(report) -> str:
    if isinstance(report, DivisibilityReport):
        lines = [
            f"divisibility check  k={report.k}  q={report.q}  horizon={report.horizon}",
            f"  L_C = {format_poly(report.lc.poly)}",
            f"  L_D = {format_poly(report.ld.poly)}",
        ]
        if report.hyp1_first_fail is None:
            lines.append(f"  hyp 1: counts equal for all m <= {report.horizon} with {report.k} | m excluded")
        else:
            lines.append(f"  hyp 1: FAILS at m = {report.hyp1_first_fail}")
        lines.append(f"  hyp 2: k-th power roots distinct (squarefree): {report.hyp2_squarefree}")
        q_str = format_poly(report.quotient) if report.quotient is not None else "-"
        lines.append(f"  divides: {report.divides}   quotient: {q_str}   in Z[t^k]: {report.quotient_in_tk}")
        lines.append(f"  verdict: {report.verdict.value}")
        return "\n".join(lines) + "\n"
    if isinstance(report, DkReport):
        lines = [
            f"family member k={report.k}  genus={report.genus}  counts to m={report.horizon}",
            f"  L = {format_poly(report.lpoly.poly)}",
            f"  L(k=1) = {format_poly(report.d1_lpoly.poly)}",
            f"  divides: {report.divides}",
        ]
        if report.quotient is not None:
            lines.append(f"  quotient: {format_poly(report.quotient)}")
        st = report.structure
        lines.append(f"  structure: {st.kind}" + (
            "  " + " * ".join(
                f"({format_poly(part)})(t^{p})" for part, p in zip(st.parts, st.primes)
            ) if st.parts else ""))
        lines.append(f"  2-ranks: L {report.lpoly_two_rank}, quotient {report.quotient_two_rank}")
        return "\n".join(lines) + "\n"
    if isinstance(report, GsumTable):
        width = max(len(str(v)) for _, _, v in report.entries) + 1
        header = "k\\m " + "".join(str(m).rjust(width) for m in range(1, report.m_max + 1))
        lines = [header]
        values = {(k, m): v for k, m, v in report.entries}
        for k in range(1, report.k_max + 1):
            lines.append(
                f"{k:<4}" + "".join(str(values[(k, m)]).rjust(width) for m in range(1, report.m_max + 1))
            )
        if report.mismatches:
            lines.append("mismatches: " + ", ".join(f"(k={k}, m={m})" for k, m in report.mismatches))
        else:
            lines.append("all (k, m) consistent with the gcd rule")
        return "\n".join(lines) + "\n"
    if isinstance(report, CounterexampleReport):
        rows = [
            ("both polynomials are valid L-polynomials", report.valid_lpolys),
            (f"counts equal for m <= {report.horizon} coprime to 6", report.counts_equal_coprime_to_6),
            (f"counts differ at m = 2 (s_2: {report.s2_values[0]} vs {report.s2_values[1]})",
             report.counts_differ_at_m2),
            ("L_C does not divide L_D", report.not_divisible),
            ("extensions of L_C stay squarefree (n <= 12)", report.extensions_squarefree),
        ]
        lines = [f"F_3 counterexample: L_C = {format_poly(report.lc.poly)}, L_D = {format_poly(report.ld.poly)}"]
        lines += [f"  [{'PASS' if ok else 'FAIL'}] {text}" for text, ok in rows]
        lines.append(f"  overall: {'PASS' if report.ok else 'FAIL'}")
        return "\n".join(lines) + "\n"
    if isinstance(report, dict):
        return "\n".join(f"{k} = {v}" for k, v in report.items()) + "\n"
    raise TypeError(f"no table form for {type(report).__name__}")


def run(config: argparse.Namespace) -> int:
    """Execute one command, given the namespace ``build_parser`` parses;
    prints the report and returns the exit status."""
    cmd, status = config.command, EXIT_OK
    if cmd == "count":
        curve = _load_json(config.curve)
        n = count_points(curve, config.m, threads=config.threads)
        report = json_report("point_count", q=base_field_size(curve), m=config.m, count=n)
    elif cmd == "lpoly":
        curve = _load_json(config.curve)
        lp = curve_lpoly(curve, config.horizon, threads=config.threads)
        if config.fmt == "json":
            report = json_report("lpolynomial", **lp.to_json_dict(), poly=format_poly(lp.poly, spaced=False))
        else:
            report = {"q": lp.q, "g": lp.g, "L(t)": format_poly(lp.poly)}
    elif cmd == "gsum":
        value = gsum(config.k, config.m, threads=config.threads)
        report = json_report("gsum", k=config.k, m=config.m, value=value)
    elif cmd == "verify-dk":
        report = verify_conjecture_dk(config.k, config.horizon, threads=config.threads)
    elif cmd == "check-div":
        sides = [_load_side(config.lc), _load_side(config.ld)]
        (q_c, g_c), (q_d, g_d) = (
            (side.q, side.g) if isinstance(side, LPolynomial) else (base_field_size(side), genus(side))
            for side in sides
        )
        horizon = max(2 * (g_c + g_d), 1) if config.horizon is None else config.horizon
        # refuse before counting a curve; a valid L-polynomial has degree 2g
        check_criterion_inputs(q_c, q_d, 2 * g_c, 2 * g_d, config.k, horizon)
        lc, ld = (
            side if isinstance(side, LPolynomial) else curve_lpoly(side, horizon, threads=config.threads)
            for side in sides
        )
        report = check_main_theorem(lc, ld, config.k, horizon)
        if report.verdict is Verdict.VIOLATION:
            status = EXIT_VIOLATION
    elif cmd == "scan-gsum":
        report = gsum_invariance_scan(config.k, config.m, threads=config.threads)
    else:  # counterexample, the last of the seven commands the parser admits
        report = counterexample_f3()
        if not report.ok:
            status = EXIT_VIOLATION
    sys.stdout.write(emit_report(report, config.fmt))
    return status


def main(argv=None) -> int:
    try:
        return run(build_parser().parse_args(argv))
    except (UsageError, ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
