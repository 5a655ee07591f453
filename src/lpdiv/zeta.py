"""L-polynomials: construction from point counts, base extension, p-rank,
and structural validation.

An L-polynomial L(t) of a genus-g curve over F_q has degree 2g, constant
term 1, satisfies the functional equation a_{2g-i} = q^{g-i} a_i, and its
reciprocal roots alpha_i (the Frobenius eigenvalues) have |alpha_i| =
sqrt(q) and determine every count through

    #C(F_{q^m}) = q^m + 1 - sum_i alpha_i^m.

Everything here goes through exact integer Newton recursions on power sums;
no roots are ever extracted.
"""

from __future__ import annotations

from dataclasses import dataclass

from .curves import CurveModel, PointCountSeries, base_field_size, count_series, genus, json_array, json_int, json_key
from .intpoly import (
    IntPoly,
    NotPowerSums,
    inverse_newton,
    poly_from_power_sums,
    power_sums_from_poly,
)


class NotConsistent(ValueError):
    """Counts do not come from any valid L-polynomial (inexact Newton step,
    Weil-bound violation, or a functional-equation contradiction)."""


@dataclass(frozen=True)
class LPolynomial:
    """An integer polynomial tagged with base-field size q and genus g.

    Construction does not validate: ``validate_lpoly`` exists precisely to
    check candidate inputs, so malformed claims must be representable.
    """

    q: int
    g: int
    poly: IntPoly

    def power_sums(self, r: int) -> list[int]:
        return power_sums_from_poly(self.poly, r)

    def to_json_dict(self) -> dict:
        return {"q": self.q, "g": self.g, "coeffs": [str(c) for c in self.poly.coeffs]}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "LPolynomial":
        """Numbers are JSON integers or decimal strings, and ``coeffs`` is
        an array of them; anything else, or a missing key, raises
        ValueError."""

        def read(value, key):
            return int(value) if isinstance(value, str) else json_int(value, key)

        coeffs = json_array(obj, "coeffs")
        return cls(
            q=read(json_key(obj, "q"), "q"),
            g=read(json_key(obj, "g"), "g"),
            poly=IntPoly(read(c, "coeffs") for c in coeffs),
        )


def _check_weil_sums(sums, q: int, g: int) -> None:
    for m, s in enumerate(sums, start=1):
        if s * s > 4 * g * g * q**m:
            raise NotConsistent(
                f"power sum s_{m} = {s} violates the Weil bound for q={q}, g={g}"
            )


def lpoly_from_counts(q: int, g: int, counts) -> LPolynomial:
    """Recover the L-polynomial from N_1..N_g (extra counts, if supplied,
    are cross-checked against the completed polynomial).

    s_m = q^m + 1 - N_m gives the power sums of the reciprocal roots; the
    inverse Newton recursion gives a_1..a_g; the functional equation fills
    a_{g+1}..a_{2g}.  The half a_0..a_g may end in zeros (a_g = 0 for
    D_3, D_4 and D_5), so the degree check of ``poly_from_power_sums`` does
    not apply to it.
    """
    counts = list(counts)
    if len(counts) < g:
        raise ValueError(f"need at least g = {g} counts, got {len(counts)}")
    sums = [q**m + 1 - counts[m - 1] for m in range(1, g + 1)]
    _check_weil_sums(sums, q, g)
    try:
        half = inverse_newton(sums, g)
    except NotPowerSums as exc:
        raise NotConsistent(f"Newton step {exc}") from exc
    coeffs = [half[j] for j in range(g + 1)]
    coeffs += [q ** (j - g) * coeffs[2 * g - j] for j in range(g + 1, 2 * g + 1)]
    lp = LPolynomial(q=q, g=g, poly=IntPoly(coeffs))
    _cross_check_counts(lp, counts)
    return lp


def curve_lpoly(curve: CurveModel, horizon: int | None = None, *, threads: int | None = None) -> LPolynomial:
    """The L-polynomial of a curve from its counts N_1..N_r, r =
    max(horizon, genus, 1); the counts beyond the genus are cross-checked
    against the polynomial."""
    if horizon is not None and horizon < 1:
        raise ValueError("horizon must be >= 1")
    g = genus(curve)
    counts = count_series(curve, max(horizon or 0, g, 1), threads=threads).counts
    return lpoly_from_counts(base_field_size(curve), g, counts)


def _cross_check_counts(lp: LPolynomial, counts) -> None:
    implied = counts_from_lpoly(lp, len(counts)).counts
    for m, (got, want) in enumerate(zip(counts, implied), start=1):
        if got != want:
            raise NotConsistent(
                f"count N_{m} = {got} contradicts the completed polynomial "
                f"(functional equation implies {want})"
            )


def counts_from_lpoly(lp: LPolynomial, r: int) -> PointCountSeries:
    """N_m = q^m + 1 - s_m for m = 1..r."""
    if r < 1:
        raise ValueError("horizon must be >= 1")
    counts, q_m = [], 1
    for s in lp.power_sums(r):
        q_m *= lp.q  # q^m, one product per m
        counts.append(q_m + 1 - s)
    return PointCountSeries(q=lp.q, counts=tuple(counts))


def extension_lpoly(lp: LPolynomial, n: int) -> LPolynomial:
    """L-polynomial of the same curve base-extended to F_{q^n}: the
    reciprocal roots are raised to the n-th power.  Computed by taking
    every n-th power sum and rebuilding with the inverse Newton recursion,
    so the route stays in exact integers.  The degree is read from the
    polynomial, not from its claimed genus."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return lp
    d = lp.poly.degree
    sums = lp.power_sums(max(d, 1) * n)  # power_sums needs r >= 1, also for L = 1
    sub = [sums[n * m - 1] for m in range(1, d + 1)]
    try:
        poly = poly_from_power_sums(sub, d)
    except NotPowerSums as exc:  # cannot happen for genuine L-polynomials
        raise NotConsistent(f"extension power sums are inconsistent: {exc}") from exc
    return LPolynomial(q=lp.q**n, g=lp.g, poly=poly)


def mod_p_degree(f: IntPoly, p: int) -> int:
    """Degree of f mod p (the zero reduction has degree 0 here: it cannot
    occur for polynomials with constant term 1)."""
    deg = 0
    for i, c in enumerate(f.coeffs):
        if c % p:
            deg = i
    return deg


def p_rank_manin(lp: LPolynomial, p: int) -> int:
    """p-rank of the Jacobian, as the degree of the mod-p reduction of the
    L-polynomial (Manin)."""
    q = lp.q
    if q < 2 or p < 2:
        raise ValueError("need q = p^a with p prime")
    while q % p == 0:
        q //= p
    if q != 1:
        raise ValueError(f"{p} is not the characteristic underlying q = {lp.q}")
    return mod_p_degree(lp.poly, p)


@dataclass(frozen=True)
class LValidation:
    ok: bool
    failures: tuple[str, ...]


def validate_lpoly(lp: LPolynomial) -> LValidation:
    """Structural checks, all exact: constant term 1, degree 2g, functional
    equation."""
    failures = []
    poly = lp.poly
    if poly[0] != 1:
        failures.append("constant term is not 1")
    if poly.degree != 2 * lp.g:
        failures.append(f"degree {poly.degree} != 2g = {2 * lp.g}")
    else:
        g, q = lp.g, lp.q
        for i in range(g + 1):
            if poly[2 * g - i] != q ** (g - i) * poly[i]:
                failures.append("functional equation fails at index " + str(i))
                break
    return LValidation(ok=not failures, failures=tuple(failures))
