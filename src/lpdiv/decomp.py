"""Executable verifiers for L-polynomial divisibility.

The central criterion: if two curves over F_q have the same number of
points over F_{q^m} for every m not divisible by some k >= 2, and the k-th
powers of the reciprocal roots of L_C are pairwise distinct, then L_C
divides L_D and the quotient is a polynomial in t^k.  ``check_main_theorem``
takes two L-polynomials (a curve enters through ``zeta.curve_lpoly``, which
cross-checks every count up to the horizon against the polynomial, so the
implied counts are the curve's own).  It checks the hypotheses (count
equality, read from the counts the polynomials imply; squarefreeness of the
base-extended L_C, which is exactly the root-distinctness condition) and
the conclusion by exact division and coefficient support.

Count equality is reported for m up to a stated horizon, but it is decided
for every m before a violation is declared: on each residue class m = r +
kj with k not dividing r, the difference of the implied counts is a linear
recurrence in j of order at most deg L_C + deg L_D, so equality for m <
k (deg L_C + deg L_D) gives equality for every m.  A verdict of
"TheoremApplies&ViolationFound" is therefore impossible for genuine
L-polynomials; it indicates an implementation bug, and the test suite
treats it as one.

Conjecture harnesses cover the curve family y^2 + y = x^(2^k+1) + x^(-1)
over GF(2): divisibility of L-polynomials by the k=1 member, structured
quotients (a polynomial in t^p for k a prime power p^e; for k = 2^e p^f,
a product A(t^2) B(t^p), where A(t^2) = gcd(Q(t), Q(-t)) finds such a
split whenever one exists, so "no_split" is a proof), and the
gcd-dependence of the associated exponential sums.  Conjecture mismatches
are findings, not errors.

A report's JSON is ``{"schema", "type"}`` plus its fields by name, with
polynomials compact, enums by value, tuples as arrays and nested reports
as objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass
from enum import Enum
from math import gcd as int_gcd

from .curves import count_series, dk_curve, gsum, gsum_exponent
from .finite_fields import DEFAULT_MAX_M, TooLarge
from .gfpoly import factor_int
from .intpoly import (
    IntPoly,
    divides_with_quotient,
    format_poly,
    gcd_primitive,
    squarefree_over_Q,
)
from .zeta import (
    LPolynomial,
    counts_from_lpoly,
    curve_lpoly,
    extension_lpoly,
    lpoly_from_counts,
    mod_p_degree,
    p_rank_manin,
    validate_lpoly,
)

SCHEMA_VERSION = 1
CRITERION_REACH_MAX = 1 << 12  # power sums and implied counts per criterion check
CRITERION_BITS_MAX = 1 << 14  # reach * ceil(log2 q): the bits of q^reach, about those of the largest count


def json_report(type_: str, **values) -> dict:
    """The envelope of every JSON report: schema, type, then the values."""
    return {"schema": SCHEMA_VERSION, "type": type_, **values}


def _json_value(value):
    """A report field as JSON: L-polynomials and IntPoly compact, enums by
    value, tuples as arrays, nested reports as objects of their fields."""
    if isinstance(value, LPolynomial):
        value = value.poly
    if isinstance(value, IntPoly):
        return format_poly(value, spaced=False)
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, tuple):
        return [_json_value(v) for v in value]
    if is_dataclass(value):
        return {f.name: _json_value(getattr(value, f.name)) for f in fields(value)}
    return value


class Verdict(str, Enum):
    HOLDS = "TheoremApplies&Holds"
    VIOLATION = "TheoremApplies&ViolationFound"
    HYPOTHESIS_FAILS = "HypothesisFails"


@dataclass(frozen=True)
class DivisibilityReport:
    """Full record of one divisibility check.

    Hypothesis 1 is an infinite condition.  ``hyp1_counts_equal`` lists the
    count comparisons for m <= horizon; a VIOLATION verdict is only reached
    once the comparison, carried to m = k (deg L_C + deg L_D) - 1, holds
    for every m.  When that longer comparison fails, the verdict is
    HypothesisFails and ``hyp1_first_fail`` is the m it failed at, which
    may lie beyond the horizon.  A HOLDS verdict decides hypothesis 1 for
    every m by itself: L_D = L_C * Q(t^k), and the power sums of Q(t^k)
    vanish at every m not divisible by k."""

    k: int
    horizon: int
    q: int
    lc: LPolynomial
    ld: LPolynomial
    hyp1_counts_equal: tuple[tuple[int, bool], ...]
    hyp1_first_fail: int | None
    hyp2_squarefree: bool
    divides: bool
    quotient: IntPoly | None
    quotient_in_tk: bool
    verdict: Verdict

    def to_json_dict(self) -> dict:
        return json_report("divisibility_report", **_json_value(self), hyp1_certified_up_to=self.horizon)


def check_criterion_inputs(
    q_c: int, q_d: int, deg_c: int, deg_d: int, k: int, horizon: int
) -> None:
    """Raise ValueError unless k >= 2, the base fields agree, horizon >= 1,
    the reach max(horizon, k (deg L_C + deg L_D)) is at most
    ``CRITERION_REACH_MAX`` and reach * ceil(log2 q) at most
    ``CRITERION_BITS_MAX``: the refusals of ``check_main_theorem``, which
    a caller can run before it counts any curve.  The reach bounds how many
    power sums the criterion takes (deg L_C * k for the extension, and
    counts up to the horizon, or below k (deg L_C + deg L_D) when hypothesis
    1 is decided for every m), and reach * log2 q their size: the m-th
    power sum and count have about m * log2 q bits."""
    if k < 2:
        raise ValueError("the divisibility criterion needs k >= 2")
    if q_c != q_d:
        raise ValueError("L-polynomials must share the base field size")
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    reach = max(horizon, k * (deg_c + deg_d))
    if reach > CRITERION_REACH_MAX:
        raise ValueError(
            f"max(horizon, k * (deg L_C + deg L_D)) = {reach} exceeds the "
            f"bound {CRITERION_REACH_MAX} of the divisibility criterion"
        )
    bits = (q_c - 1).bit_length()
    if reach * bits > CRITERION_BITS_MAX:
        raise ValueError(
            f"max(horizon, k * (deg L_C + deg L_D)) * ceil(log2 q) = {reach} * {bits} = "
            f"{reach * bits} exceeds the bound {CRITERION_BITS_MAX} of the divisibility criterion"
        )


def check_main_theorem(
    lc: LPolynomial, ld: LPolynomial, k: int, horizon: int
) -> DivisibilityReport:
    """Run the divisibility criterion on two L-polynomials (``curve_lpoly``
    gives them for curves); hypothesis 1 is read from the counts they
    imply, reported for m <= horizon and decided for every m before a
    violation is declared.  A HOLDS verdict needs no such comparison: L_D =
    L_C * Q(t^k) makes the counts agree at every m not divisible by k.

    Requires k >= 2: with k = 1 the count hypothesis is vacuous and the
    criterion asserts nothing.
    """
    check_criterion_inputs(lc.q, ld.q, lc.poly.degree, ld.poly.degree, k, horizon)
    rows = _compare_counts(lc, ld, (m for m in range(1, horizon + 1) if m % k))
    first_fail = next((m for m, eq in rows if not eq), None)
    hyp2 = squarefree_over_Q(extension_lpoly(lc, k).poly)
    div, quot = divides_with_quotient(lc.poly, ld.poly)
    q_in_tk = bool(div and quot is not None and quot.deflate(k) is not None)
    if first_fail is None and hyp2 and not (div and q_in_tk):
        # decide hypothesis 1 for every m before calling this a violation:
        # each class m = r (mod k) is a recurrence of order <= deg L_C + deg L_D
        reach = max(horizon, k * (lc.poly.degree + ld.poly.degree) - 1)
        every_m = _compare_counts(lc, ld, (m for m in range(1, reach + 1) if m % k))
        first_fail = next((m for m, eq in every_m if not eq), None)
    if first_fail is None and hyp2:
        verdict = Verdict.HOLDS if (div and q_in_tk) else Verdict.VIOLATION
    else:
        verdict = Verdict.HYPOTHESIS_FAILS
    return DivisibilityReport(
        k=k,
        horizon=horizon,
        q=lc.q,
        lc=lc,
        ld=ld,
        hyp1_counts_equal=rows,
        hyp1_first_fail=first_fail,
        hyp2_squarefree=hyp2,
        divides=div,
        quotient=quot,
        quotient_in_tk=q_in_tk,
        verdict=verdict,
    )


def _compare_counts(lc: LPolynomial, ld: LPolynomial, ms) -> tuple[tuple[int, bool], ...]:
    """(m, N_m(C) == N_m(D)) for each m of ``ms``, on the counts the two
    L-polynomials imply."""
    ms = tuple(ms)
    r = max(ms)
    counts_c = counts_from_lpoly(lc, r).counts
    counts_d = counts_from_lpoly(ld, r).counts
    return tuple((m, counts_c[m - 1] == counts_d[m - 1]) for m in ms)


# -- quotient structure ----------------------------------------------------


@dataclass(frozen=True)
class SplitResult:
    """Outcome of a two-prime support split: Q(t) = a(t^p1) * b(t^p2).

    status is "split" (a, b populated) or "no_split" (no such pair of
    integer polynomials exists).
    """

    status: str
    a: IntPoly | None = None
    b: IntPoly | None = None


def split_two_prime(q_poly: IntPoly, p1: int, p2: int) -> SplitResult:
    """Write Q(t) = A(t^p1) * B(t^p2) with integer polynomials, or prove
    that no such pair exists.  One prime must be 2; call the other p.

    The t^2 part is the primitive gcd(Q(t), Q(-t)), signed so that A(0) =
    1, and the split exists iff the cofactor lies in Z[t^p].  This is
    complete: if Q = A(t^2) B(t^p), then Q(-t) = A(t^2) B(-t^p) as p is
    odd, so the gcd is A(t^2) h(t^p) with h = gcd(B(u), B(-u)); h(0) != 0
    and h(-u) = +-h(u) make h even, so the gcd lies in Z[t^2] and the
    cofactor is (B/h)(t^p).  The split returned is the one with the
    largest t^2 part.
    """
    if not q_poly or q_poly[0] != 1:
        raise ValueError("Q(0) must be 1")
    if p1 == p2 or factor_int(p1) != {p1: 1} or factor_int(p2) != {p2: 1}:
        raise ValueError("need two distinct primes")
    if 2 not in (p1, p2):
        raise ValueError("one of the two primes must be 2")
    p = p2 if p1 == 2 else p1
    q_neg = IntPoly((-1) ** i * c for i, c in enumerate(q_poly.coeffs))
    even = gcd_primitive(q_poly, q_neg)
    if even[0] < 0:
        even = -even
    a = even.deflate(2)
    b = divides_with_quotient(even, q_poly)[1].deflate(p)
    if b is None:
        return SplitResult("no_split")
    if a.inflate(2) * b.inflate(p) != q_poly:
        raise AssertionError("split candidate failed re-verification")
    return SplitResult("split", a=a, b=b) if p1 == 2 else SplitResult("split", a=b, b=a)


@dataclass(frozen=True)
class QuotientStructure:
    """Structured factorization of a D_k quotient: for kind "prime_power"
    the quotient equals parts[0](t^primes[0]); for "two_prime" it equals
    parts[0](t^primes[0]) * parts[1](t^primes[1])."""

    kind: str  # unit | prime_power | two_prime | no_split | undivided
    primes: tuple[int, ...] = ()
    parts: tuple[IntPoly, ...] = ()


@dataclass(frozen=True)
class DkReport:
    k: int
    genus: int
    horizon: int
    lpoly: LPolynomial
    d1_lpoly: LPolynomial
    divides: bool
    quotient: IntPoly | None
    structure: QuotientStructure
    lpoly_two_rank: int
    quotient_two_rank: int | None

    def to_json_dict(self) -> dict:
        return json_report("dk_report", **_json_value(self))


def verify_conjecture_dk(k: int, horizon: int | None = None, *, threads: int | None = None) -> DkReport:
    """Compute the L-polynomial of y^2 + y = x^(2^k+1) + x^(-1) from counts,
    divide by the k = 1 member, and analyze the quotient structure.  A
    series past the enumeration bound is refused before D_k is built."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if horizon is not None and horizon < 1:
        raise ValueError("horizon must be >= 1")
    need = max(horizon or 0, (1 << (k - 1)) + 1)
    if need > DEFAULT_MAX_M:
        raise TooLarge(f"m = {need} exceeds the enumeration bound {DEFAULT_MAX_M}")
    counts = count_series(dk_curve(k), need, threads=threads).counts
    return dk_report_from_counts(k, counts)


def dk_report_from_counts(k: int, counts) -> DkReport:
    """The algebra half of ``verify_conjecture_dk``: the L-polynomial of D_k
    from N_1..N_r (r >= genus; extra counts are cross-checked), its quotient
    by the k = 1 member, the quotient structure and the 2-ranks."""
    if k < 1:
        raise ValueError("k must be >= 1")
    g_k = (1 << (k - 1)) + 1
    counts = list(counts)
    ldk = lpoly_from_counts(2, g_k, counts)
    ld1 = curve_lpoly(dk_curve(1), threads=1)
    div, quot = divides_with_quotient(ld1.poly, ldk.poly)
    structure = _quotient_structure(k, quot) if div else QuotientStructure(kind="undivided")
    return DkReport(
        k=k,
        genus=g_k,
        horizon=len(counts),
        lpoly=ldk,
        d1_lpoly=ld1,
        divides=div,
        quotient=quot,
        structure=structure,
        lpoly_two_rank=p_rank_manin(ldk, 2),
        quotient_two_rank=mod_p_degree(quot, 2) if quot is not None else None,
    )


def _quotient_structure(k: int, quot: IntPoly) -> QuotientStructure:
    primes = tuple(sorted(factor_int(k))) if k > 1 else ()
    if not primes or quot.degree == 0:
        return QuotientStructure(kind="unit", primes=primes)
    if len(primes) == 1:
        p = primes[0]
        inner = quot.deflate(p)
        if inner is None:
            return QuotientStructure(kind="no_split", primes=primes)
        return QuotientStructure(kind="prime_power", primes=primes, parts=(inner,))
    if len(primes) > 2:
        raise ValueError(f"k = {k} has more than two prime factors")
    res = split_two_prime(quot, *primes)
    if res.status == "split":
        return QuotientStructure(kind="two_prime", primes=primes, parts=(res.a, res.b))
    return QuotientStructure(kind="no_split", primes=primes)


# -- exponential-sum scan ----------------------------------------------------


@dataclass(frozen=True)
class GsumTable:
    """Exponential sums over a (k, m) rectangle, as ascending (k, m, G_m^(k))
    entries, with every (k, m) whose sum differs from that of
    (gcd(k, m), m) recorded."""

    k_max: int
    m_max: int
    entries: tuple[tuple[int, int, int], ...]
    mismatches: tuple[tuple[int, int], ...]

    def to_json_dict(self) -> dict:
        return json_report("gsum_table", **_json_value(self))


def gsum_invariance_scan(k_max: int, m_max: int, *, threads: int | None = None) -> GsumTable:
    """Tabulate the sums for 1 <= k <= k_max, 1 <= m <= m_max and record
    every (k, m) whose value differs from the gcd(k, m) column.  A nonempty
    mismatch list is a reportable finding, not an error.

    Summed from m = m_max down to 1, so an m_max past the enumeration bound
    is refused, naming m_max, before any sum is taken; the table is in
    ascending order whatever the order of the sums.  The sum of (k, m)
    depends on (``gsum_exponent(k, m)``, m) alone, so each such pair is
    summed once."""
    if k_max < 1 or m_max < 1:
        raise ValueError("scan bounds k and m must be >= 1")
    values: dict[tuple[int, int], int] = {}
    sums: dict[tuple[int, int], int] = {}
    for m in range(m_max, 0, -1):
        for k in range(1, k_max + 1):
            key = (gsum_exponent(k, m), m)
            if key not in sums:
                sums[key] = gsum(k, m, threads=threads)
            values[(k, m)] = sums[key]
    mismatches = [
        (k, m)
        for (k, m), v in sorted(values.items())
        if v != values[(int_gcd(k, m), m)]
    ]
    entries = tuple((k, m, v) for (k, m), v in sorted(values.items()))
    return GsumTable(
        k_max=k_max, m_max=m_max, entries=entries, mismatches=tuple(mismatches)
    )


# -- the fixed F_3 counterexample -------------------------------------------

# Published pair showing that weakening "every m not divisible by k" to
# "every m coprime to k" breaks the divisibility conclusion.  Pinned at the
# L-polynomial level; the source curve equations are carried as unverified
# metadata only (direct counts of the stated equations do not reproduce
# these polynomials, and we do not silently repair them).
F3_LC = LPolynomial(q=3, g=1, poly=IntPoly([1, 1, 3]))
F3_LD = LPolynomial(q=3, g=2, poly=IntPoly([1, 1, -2, 3, 9]))
F3_CURVE_METADATA = {
    "c": "y^2+(2x+1)y=x^3+2x^2+2 over F_3",
    "d": "y^2+(x^2+x+1)y=x^5+x^4+x^2+x+1 over F_3",
    "verified": False,
}
_F3_HORIZON = 25
_F3_EXTENSIONS = 12


@dataclass(frozen=True)
class CounterexampleReport:
    lc: LPolynomial
    ld: LPolynomial
    horizon: int
    valid_lpolys: bool
    counts_equal_coprime_to_6: bool
    counts_differ_at_m2: bool
    s2_values: tuple[int, int]
    not_divisible: bool
    extensions_squarefree: bool
    curve_equations_metadata: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return (
            self.valid_lpolys
            and self.counts_equal_coprime_to_6
            and self.counts_differ_at_m2
            and self.not_divisible
            and self.extensions_squarefree
        )

    def to_json_dict(self) -> dict:
        return json_report("counterexample_f3", **_json_value(self), ok=self.ok)


def counterexample_f3() -> CounterexampleReport:
    """Verify every published fact about the F_3 pair: equal counts for all
    m <= 25 coprime to 6, a count difference at m = 2, non-divisibility,
    and squarefreeness of every base extension of L_C up to n = 12."""
    lc, ld = F3_LC, F3_LD
    equal = dict(_compare_counts(lc, ld, range(1, _F3_HORIZON + 1)))
    div, _ = divides_with_quotient(lc.poly, ld.poly)
    squarefree_ext = all(
        squarefree_over_Q(extension_lpoly(lc, n).poly)
        for n in range(1, _F3_EXTENSIONS + 1)
    )
    return CounterexampleReport(
        lc=lc,
        ld=ld,
        horizon=_F3_HORIZON,
        valid_lpolys=validate_lpoly(lc).ok and validate_lpoly(ld).ok,
        counts_equal_coprime_to_6=all(eq for m, eq in equal.items() if int_gcd(m, 6) == 1),
        counts_differ_at_m2=not equal[2],
        s2_values=(lc.power_sums(2)[1], ld.power_sums(2)[1]),
        not_divisible=not div,
        extensions_squarefree=squarefree_ext,
        curve_equations_metadata=dict(F3_CURVE_METADATA),
    )
