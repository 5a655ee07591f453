"""Curve models, genus, and exact point counting over extension fields.

Two models are supported:

* ``ArtinSchreierCurve``: y^2 + y = f(x) over GF(2), f a rational map in
  reduced form (every pole, including infinity, of odd order) with at
  least one pole;
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
points, chi the quadratic character.  One walk (``_odd_walk``) serves
every field size: over a chunk of x = g^i, the digits of 4f + h^2 are one
matmul of fixed digit rows of g^(e*j) (``FiniteField.geometric_rows``) by
digit matrices over GF(p), and chi is a lookup in a bitmap of the squares
g^(2i), filled by the same walk.  Memory is the bitmap (one byte per
element) plus per-chunk rows; orders above ``POWER_TABLE_MAX`` = 2^30 are
refused, so the bitmap stays within 1 GiB.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gfpoly
from .finite_fields import (
    POWER_TABLE_MAX,
    FiniteField,
    NoPrime,
    RationalMap,
    TooLarge,
    char_sum,
    make_field,
    resolve_threads,
)


_ODD_CHUNK = 1 << 14  # most x values per chunk of the odd-p counting walk


class NotReduced(ValueError):
    """An Artin-Schreier right side has a pole of even order."""


@dataclass(frozen=True)
class ArtinSchreierCurve:
    """y^2 + y = f(x) over GF(2), f a ``RationalMap`` (over GF(2) by
    construction) with at least one pole and every pole of odd order."""

    f: RationalMap

    def __post_init__(self):
        if not _pole_places(self.f):  # raises NotReduced on an even pole order
            raise ValueError("right side f must have a pole (a constant f gives no curve)")


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


CurveModel = ArtinSchreierCurve | OddHyperellipticCurve


def json_int(value, key: str) -> int:
    """A JSON integer; floats and booleans raise ValueError instead of being
    read as some other integer."""
    if type(value) is not int:
        raise ValueError(f"{key}: expected an integer, got {value!r}")
    return value


def json_key(obj: dict, key: str):
    """obj[key]; a missing key raises ValueError naming it."""
    try:
        return obj[key]
    except KeyError:
        raise ValueError(f"missing key {key!r}") from None


def json_array(obj: dict, key: str) -> list:
    """obj[key], a JSON array; a missing key or any other value (a string
    or a number included) raises ValueError naming the key."""
    value = json_key(obj, key)
    if not isinstance(value, list):
        raise ValueError(f"{key}: expected an array, got {value!r}")
    return value


def curve_from_json_dict(obj: dict) -> CurveModel:
    model = obj.get("model")
    if model == "as2":
        num, den = (tuple(json_int(c, key) for c in json_array(obj, key)) for key in ("f_num", "f_den"))
        return ArtinSchreierCurve(RationalMap(num, den))
    if model == "hyper_odd":
        h, f = (tuple(json_int(c, key) for c in json_array(obj, key)) for key in ("h", "f"))
        return OddHyperellipticCurve(json_int(json_key(obj, "p"), "p"), h, f)
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
    for factor, mult in gfpoly.factor(f.den, 2):
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


def count_points(c: CurveModel, m: int, *, threads: int | None = None) -> int:
    """#C(F_{q^m}) on the smooth projective model, exactly.  m above the
    enumeration bound ``DEFAULT_MAX_M`` = 34 raises TooLarge, and so do
    odd-p fields beyond the walk's int64 range or of order above
    ``POWER_TABLE_MAX`` = 2^30; threads below 1 raise ValueError."""
    if m < 1:
        raise ValueError("extension degree must be >= 1")
    threads = resolve_threads(threads)
    if isinstance(c, ArtinSchreierCurve):
        field = make_field(2, m)
        s = char_sum(field, c.f, threads=threads)
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
    rhs = c.squared_rhs()
    order = c.p**m
    if len(rhs) * m * c.p**2 >= 1 << 63:  # a bound on the walk's digit sums
        raise TooLarge(f"GF({c.p}^{m}) exceeds the exact int64 range of the counting walk")
    if order > POWER_TABLE_MAX:  # the squares bitmap takes one byte per element
        raise TooLarge(f"GF({c.p}^{m}) exceeds the order cap {POWER_TABLE_MAX} of the counting walk")
    field = make_field(c.p, m)
    n = field.order - 1
    length = min(_ODD_CHUNK, n, 1 << (n.bit_length() + 5) // 2)  # about 6 sqrt(n), capped
    tensor = field.mul_tensor()  # for every digit matrix of the count
    # digits of g^k for every k <= e * length, e a term of rhs or of x^2
    powers = field.geometric_rows(field.generator, max(len(rhs) - 1, 2) * length + 1, tensor)
    squares = np.zeros(field.order, dtype=bool)  # the nonzero squares g^(2i)
    for v in _odd_walk(field, tensor, powers, length, (0, 0, 1), n // 2):
        squares[v] = True
    chi = lambda v: 0 if v == 0 else 1 if squares[v] else -1
    total = 1 + chi(rhs[0])  # x = 0
    for v in _odd_walk(field, tensor, powers, length, rhs, n):
        total += int(np.count_nonzero(v == 0)) + 2 * int(np.count_nonzero(squares[v]))
    return total + (1 if gfpoly.degree(rhs) % 2 == 1 else 1 + chi(rhs[-1]))  # infinity


def _odd_walk(
    field: FiniteField, tensor: np.ndarray, powers: np.ndarray, length: int, poly: gfpoly.GFPoly, count
):
    """Codes of poly(g^i) for i < count, one array per chunk of ``length``
    indices; powers[k] is the digit row of g^k for every k <= deg(poly) *
    length, and tensor the field's ``mul_tensor()``.

    For i = s + j the digits of c*x^e are those of g^(e*j), rows taken
    from powers, times the digit matrix of y -> c*g^(e*s)*y (advanced by
    that of g^(e*length) per chunk), so a chunk is one int64 matmul over
    all terms (numpy's own loop, not a BLAS with threads of its own): exact
    while (deg + 1) * m * p^2 stays below 2^63."""
    p, m = field.p, field.m
    terms = [(e, coef) for e, coef in enumerate(poly) if e and coef]
    rows = np.concatenate([powers[: e * length : e] for e, _ in terms], axis=1)
    mats = field.mul_matrices(field.bulk_decode(np.array([coef for _, coef in terms])), tensor)
    jumps = field.mul_matrices(powers[[e * length for e, _ in terms]], tensor)
    for s in range(0, count, length):
        digits = rows[: count - s] @ mats.reshape(-1, m)
        digits[:, 0] += poly[0]
        yield field.bulk_encode(digits % p)
        mats = mats @ jumps % p


def count_series(c: CurveModel, r: int, *, threads: int | None = None) -> PointCountSeries:
    """N_1..N_r, each checked against the Weil bound |N - q^m - 1| <=
    2g sqrt(q^m) before it is returned.

    Counted from m = r down to 1.  Every bound caps m from above (the field
    constructor's m <= 34, ``char_sum``'s table bound, the odd-p walk's
    int64 and order caps), so a series past one is refused by its first
    count, whose error names m = r."""
    q = base_field_size(c)
    g = genus(c)
    counts = []
    for m in range(r, 0, -1):
        n = count_points(c, m, threads=threads)
        if (n - q**m - 1) ** 2 > 4 * g * g * q**m:
            raise RuntimeError(
                f"count N_{m} = {n} violates the Weil bound for genus {g}; "
                "this indicates a counting bug"
            )
        counts.append(n)
    return PointCountSeries(q=q, counts=tuple(reversed(counts)))


def dk_map(k: int) -> RationalMap:
    """x^(2^k+1) + x^(-1) over GF(2), as (x^(2^k+2) + 1) / x."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return _dk_rhs(k)


def _dk_rhs(j: int) -> RationalMap:
    """x^(2^j+1) + x^(-1) for any j >= 0 (j = 0 gives x^2 + x^(-1))."""
    e = (1 << j) + 2
    return RationalMap((1,) + (0,) * (e - 1) + (1,), (0, 1))


def dk_curve(k: int) -> ArtinSchreierCurve:
    """The curve y^2 + y = x^(2^k+1) + x^(-1) over GF(2); genus 2^(k-1)+1."""
    return ArtinSchreierCurve(dk_map(k))


def gsum_exponent(k: int, m: int) -> int:
    """The i with G_m^(k) the sum of x^(2^i+1) + x^(-1), so G_m^(k) depends
    on (i, m) alone.  On GF(2^m), x^(2^k) = x^(2^j), j = k mod m, and
    Tr(x^(2^j+1)) is Tr(x^(2^(m-j)+1)), its image under y -> y^(2^(m-j)),
    so i = min(j, -j mod m) <= m/2."""
    return min(k % m, -k % m)


def gsum(k: int, m: int, *, threads: int | None = None) -> int:
    """The exponential sum over GF(2^m)^* of (-1)^Tr(x^(2^k+1) + x^(-1)),
    summed as x^(2^i+1) + x^(-1), i = ``gsum_exponent(k, m)`` <= 17: at
    most 2^17 + 3 terms."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if k < 1:
        raise ValueError("k must be >= 1")
    return char_sum(make_field(2, m), _dk_rhs(gsum_exponent(k, m)), threads=threads)
