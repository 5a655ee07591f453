"""Curve models, genus and p-rank formulas, and exact point counting over
extension fields.

Two models are supported:

* ``ArtinSchreierCurve``: y^2 + y = f(x) over GF(2), f a rational map in
  reduced form (every pole, including infinity, of odd order);
* ``OddHyperellipticCurve``: y^2 + h(x) y = f(x) over GF(p) for odd p,
  with 4f + h^2 squarefree.

Counts are for the smooth projective model.  For Artin-Schreier curves the
affine enumeration reduces to a character sum: summing 1 + (-1)^Tr(f(x))
over non-poles counts affine points, each rational pole of f carries
exactly one rational place in every extension, and the place above x =
infinity follows the same trace rule (or is a single ramified place when f
has a pole there).  The pole-place contributions cancel against the
excluded x values, leaving N_m = 2^m + char_sum + (infinity term).

For odd hyperelliptic curves each x carries 1 + chi(4f(x) + h(x)^2)
points, chi the quadratic character.  Fields of order up to
``LOG_TABLE_MAX`` are walked as x = g^i in numpy index chunks: x^e is a
gather from the power table, 4f + h^2 a digitwise sum mod p, and chi(v)
= (-1)^log(v).  Larger fields take chi from Euler's criterion, one x at a
time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gfpoly
from .finite_fields import (
    DEFAULT_MAX_M,
    LOG_TABLE_MAX,
    FiniteField,
    NoPrime,
    RationalMap,
    TooLarge,
    char_sum,
    make_field,
)


_ODD_CHUNK = 1 << 15  # x values per step of the odd-p counting kernel


class NotReduced(ValueError):
    """An Artin-Schreier right side has a pole of even order."""


@dataclass(frozen=True)
class ArtinSchreierCurve:
    """y^2 + y = f(x) over GF(2)."""

    f: RationalMap

    def __post_init__(self):
        if self.f.p != 2:
            raise ValueError("Artin-Schreier model requires characteristic 2")
        _pole_places(self.f)  # raises NotReduced on an even pole order

    def to_json_dict(self) -> dict:
        return {"model": "as2", "f_num": list(self.f.num), "f_den": list(self.f.den)}


@dataclass(frozen=True)
class OddHyperellipticCurve:
    """y^2 + h(x) y = f(x) over GF(p), p odd."""

    p: int
    h: tuple[int, ...]
    f: tuple[int, ...]

    def __init__(self, p: int, h, f):
        if gfpoly.factor_int(p) != {p: 1}:
            raise NoPrime(f"{p} is not prime")
        if p == 2:
            raise ValueError("use ArtinSchreierCurve in characteristic 2")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "h", gfpoly.normalize(h, p))
        object.__setattr__(self, "f", gfpoly.normalize(f, p))
        rhs = self.squared_rhs()
        if gfpoly.degree(rhs) < 1:
            raise ValueError("right side 4f + h^2 must be nonconstant")
        if not gfpoly.squarefree(rhs, p):
            raise ValueError("right side 4f + h^2 is not squarefree")

    def squared_rhs(self) -> gfpoly.GFPoly:
        """4f + h^2: the right side after completing the square."""
        return gfpoly.add(
            gfpoly.normalize([4 * c for c in self.f], self.p),
            gfpoly.mul(self.h, self.h, self.p),
            self.p,
        )

    def to_json_dict(self) -> dict:
        return {"model": "hyper_odd", "p": self.p, "h": list(self.h), "f": list(self.f)}


CurveModel = ArtinSchreierCurve | OddHyperellipticCurve


def curve_from_json_dict(obj: dict) -> CurveModel:
    model = obj.get("model")
    if model == "as2":
        return ArtinSchreierCurve(RationalMap(2, tuple(obj["f_num"]), tuple(obj["f_den"])))
    if model == "hyper_odd":
        return OddHyperellipticCurve(int(obj["p"]), tuple(obj["h"]), tuple(obj["f"]))
    raise ValueError(f"unknown curve model {model!r}")


@dataclass(frozen=True)
class PointCountSeries:
    """N_1..N_r on the smooth projective model over F_{q^m}."""

    q: int
    counts: tuple[int, ...]


def _pole_places(f: RationalMap) -> list[tuple[int, int]]:
    """(place degree, pole order) for every pole place of f, infinity
    included.  Raises NotReduced when any order is even."""
    places = []
    for factor, mult in gfpoly.factor(f.den, f.p):
        places.append((gfpoly.degree(factor), mult))
    d_inf = gfpoly.degree(f.num) - gfpoly.degree(f.den)
    if d_inf > 0:
        places.append((1, d_inf))
    for deg, order in places:
        if order % 2 == 0:
            raise NotReduced(f"pole of even order {order} (place degree {deg})")
    return places


def base_field_size(c: CurveModel) -> int:
    return 2 if isinstance(c, ArtinSchreierCurve) else c.p


def genus(c: CurveModel) -> int:
    """Genus of the smooth projective model.

    Artin-Schreier: Riemann-Hurwitz for the degree-2 cover ramified at the
    poles of f gives 2g - 2 = -4 + sum over pole places of deg * (order + 1),
    so g = (sum deg * (order + 1)) / 2 - 1.  Odd hyperelliptic with right
    side F of degree n: g = floor((n - 1) / 2).
    """
    if isinstance(c, ArtinSchreierCurve):
        total = sum(deg * (order + 1) for deg, order in _pole_places(c.f))
        return total // 2 - 1
    return (gfpoly.degree(c.squared_rhs()) - 1) // 2


def two_rank_deuring(c: ArtinSchreierCurve) -> int:
    """2-rank of the Jacobian via Deuring-Shafarevich: (s - 1) * (p - 1)
    where s counts the geometric poles of f."""
    if not isinstance(c, ArtinSchreierCurve):
        raise TypeError("Deuring-Shafarevich 2-rank applies to the y^2+y=f(x) model")
    s = sum(deg for deg, _ in _pole_places(c.f))
    return s - 1


def count_points(
    c: CurveModel,
    m: int,
    *,
    threads: int | None = None,
    max_m: int = DEFAULT_MAX_M,
) -> int:
    """#C(F_{q^m}) on the smooth projective model, exactly."""
    if m < 1:
        raise ValueError("extension degree must be >= 1")
    if m > max_m:
        raise TooLarge(f"m = {m} exceeds the enumeration bound {max_m}")
    if isinstance(c, ArtinSchreierCurve):
        field = make_field(2, m)
        s = char_sum(field, c.f, threads=threads, max_m=max_m)
        return (1 << m) + s + _infinity_points_as2(c.f, m)
    return _count_hyper_odd(c, m)


def _infinity_points_as2(f: RationalMap, m: int) -> int:
    d_inf = gfpoly.degree(f.num) - gfpoly.degree(f.den)
    if d_inf > 0:
        return 1  # ramified: one place in every extension
    if d_inf < 0:
        return 2  # f(inf) = 0, trace 0: split
    return 2 if m % 2 == 0 else 0  # f(inf) = 1: split iff Tr_m(1) = 0


def _count_hyper_odd(c: OddHyperellipticCurve, m: int) -> int:
    field = make_field(c.p, m)
    rhs = c.squared_rhs()
    if field.order <= LOG_TABLE_MAX:
        exps, logs = field.small_log_tables()
        chi = lambda v: -1 if logs[v] & 1 else 1
        total = _affine_count_walk(field, rhs, exps, logs)
    else:  # Euler's criterion
        p, modulus = c.p, field.modulus
        half = (field.order - 1) // 2
        chi = lambda v: 1 if field.pow_el(v, half) == 1 else -1
        total = 0
        for x in field.elements():
            # Horner for 4f + h^2 at x, in GF(p)[t] modulo the field modulus
            xt = gfpoly.decode(x, p)
            val: gfpoly.GFPoly = ()
            for coef in reversed(rhs):
                val = gfpoly.mod(gfpoly.add(gfpoly.mul(val, xt, p), (coef,), p), modulus, p)
            total += 1 if not val else 1 + chi(gfpoly.encode(val, p))
    deg = gfpoly.degree(rhs)
    if deg % 2 == 1:
        total += 1
    else:
        total += 1 + chi(rhs[-1])
    return total


def _affine_count_walk(
    field: FiniteField, rhs: gfpoly.GFPoly, exps: np.ndarray, logs: np.ndarray
) -> int:
    """Sum over x in the field of 1 + chi(F(x)), F = rhs, chi(0) = 0.

    x = g^i is walked in index chunks: x^e = exps[e*i mod n], so F(x) is
    the digitwise sum mod p of the scaled digits of one gather per nonzero
    term, and chi(v) = (-1)^logs[v]."""
    p, n = field.p, field.order - 1
    f0 = rhs[0]
    total = 1 if f0 == 0 else 2 - 2 * int(logs[f0] & 1)  # x = 0
    terms = [(e, coef) for e, coef in enumerate(rhs) if e and coef]
    for lo in range(0, n, _ODD_CHUNK):
        i = np.arange(lo, min(lo + _ODD_CHUNK, n), dtype=np.int64)
        digits = np.zeros((len(i), field.m), dtype=np.int64)
        digits[:, 0] = f0
        for e, coef in terms:
            digits += coef * field.bulk_decode(exps[e * i % n])
        v = field.bulk_encode(digits % p)
        zero = v == 0
        square = ~zero & (logs[v] & 1 == 0)
        total += int(np.count_nonzero(zero)) + 2 * int(np.count_nonzero(square))
    return total


def count_series(
    c: CurveModel,
    r: int,
    *,
    threads: int | None = None,
    max_m: int = DEFAULT_MAX_M,
) -> PointCountSeries:
    """N_1..N_r, each checked against the Weil bound |N - q^m - 1| <=
    2g sqrt(q^m) before it is returned."""
    q = base_field_size(c)
    g = genus(c)
    counts = []
    for m in range(1, r + 1):
        n = count_points(c, m, threads=threads, max_m=max_m)
        if (n - q**m - 1) ** 2 > 4 * g * g * q**m:
            raise RuntimeError(
                f"count N_{m} = {n} violates the Weil bound for genus {g}; "
                "this indicates a counting bug"
            )
        counts.append(n)
    return PointCountSeries(q=q, counts=tuple(counts))


def dk_map(k: int) -> RationalMap:
    """x^(2^k+1) + x^(-1) over GF(2), as (x^(2^k+2) + 1) / x."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return _dk_rhs(k)


def _dk_rhs(j: int) -> RationalMap:
    """x^(2^j+1) + x^(-1) for any j >= 0 (j = 0 gives x^2 + x^(-1))."""
    e = (1 << j) + 2
    return RationalMap(2, (1,) + (0,) * (e - 1) + (1,), (0, 1))


def dk_curve(k: int) -> ArtinSchreierCurve:
    """The curve y^2 + y = x^(2^k+1) + x^(-1) over GF(2); genus 2^(k-1)+1."""
    return ArtinSchreierCurve(dk_map(k))


def gsum(
    k: int,
    m: int,
    *,
    threads: int | None = None,
    max_m: int = DEFAULT_MAX_M,
) -> int:
    """The exponential sum over GF(2^m)^* of (-1)^Tr(x^(2^k+1) + x^(-1)).

    x^(2^k) = x^(2^(k mod m)) on GF(2^m), so the sum is taken for
    x^(2^(k mod m)+1) + x^(-1), whose size does not grow with k."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if m > max_m:
        raise TooLarge(f"m = {m} exceeds the enumeration bound {max_m}")
    if k < 1:
        raise ValueError("k must be >= 1")
    return char_sum(make_field(2, m), _dk_rhs(k % m), threads=threads, max_m=max_m)
