"""Independent reference routes used as test oracles.

Everything here recomputes results by definition or brute force, using at
most the scalar field primitives, so the fast library paths are checked
against genuinely different computations."""

from __future__ import annotations

from fractions import Fraction

from lpdiv.finite_fields import POLE, FiniteField, eval_rational_map, make_field
from lpdiv.intpoly import IntPoly
from lpdiv.zeta import LPolynomial

# -- polynomials over GF(p), self-contained (no lpdiv.gfpoly) ---------------


def _norm(f, p):
    f = [c % p for c in f]
    while f and f[-1] == 0:
        f.pop()
    return tuple(f)


def _polymul(a, b, p):
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return _norm(out, p)


def _polymod(a, b, p):
    a = list(a)
    inv = pow(b[-1], p - 2, p)
    while len(a) >= len(b):
        if a[-1] % p == 0:
            a.pop()
            continue
        c = (a[-1] * inv) % p
        off = len(a) - len(b)
        for i, bi in enumerate(b):
            a[off + i] = (a[off + i] - c * bi) % p
        while a and a[-1] % p == 0:
            a.pop()
    return _norm(a, p)


def _monic_polys(deg, p):
    for v in range(p**deg):
        coeffs = []
        x = v
        for _ in range(deg):
            coeffs.append(x % p)
            x //= p
        yield tuple(coeffs) + (1,)


def is_irreducible_bruteforce(f, p) -> bool:
    """Trial division by every monic polynomial up to half the degree."""
    deg = len(f) - 1
    if deg < 1:
        return False
    for d in range(1, deg // 2 + 1):
        for cand in _monic_polys(d, p):
            if not _polymod(f, cand, p):
                return False
    return True


def first_irreducible(p, m):
    """Lexicographically-first monic irreducible of degree m over GF(p)."""
    for cand in _monic_polys(m, p):
        if is_irreducible_bruteforce(cand, p):
            return cand
    raise AssertionError


# -- traces and character sums by definition --------------------------------


def trace_by_definition(field: FiniteField, x: int) -> int:
    """x + x^p + ... + x^(p^(m-1)) via repeated Frobenius."""
    acc = 0
    y = x
    for _ in range(field.m):
        acc = field.add(acc, y)
        y = field.pow_el(y, field.p)
    return acc


def naive_char_sum(field: FiniteField, f) -> int:
    total = 0
    for x in field.elements():
        v = eval_rational_map(field, f, x)
        if v is POLE:
            continue
        total += 1 if field.trace(v) == 0 else -1
    return total


# -- per-(x, y) point counting ----------------------------------------------


def naive_count_as2(curve, m: int) -> int:
    """Count solutions of y^2 + y = f(x) pair by pair, then add one place
    per rational pole of f and the solutions above x = infinity."""
    field = make_field(2, m)
    lhs = [field.add(field.mul(y, y), y) for y in field.elements()]
    total = 0
    for x in field.elements():
        fx = eval_rational_map(field, curve.f, x)
        if fx is POLE:
            total += 1
        else:
            total += lhs.count(fx)
    deg_num = len(curve.f.num) - 1
    deg_den = len(curve.f.den) - 1
    if deg_num > deg_den:
        total += 1
    else:
        f_inf = 1 if deg_num == deg_den else 0
        total += lhs.count(f_inf)
    return total


def naive_count_hyper(curve, m: int) -> int:
    """Count solutions of y^2 + h(x) y = f(x) pair by pair; at infinity,
    count square roots of the leading coefficient of 4f + h^2 by
    enumeration.  GF(p^m) is GF(p)[t] modulo ``first_irreducible(p, m)``,
    with schoolbook multiply-and-reduce on coefficient tuples here: neither
    ``FiniteField`` nor ``lpdiv.gfpoly`` is used."""
    p = curve.p
    modulus = first_irreducible(p, m)

    def mul(a, b):
        return _polymod(_polymul(a, b, p), modulus, p)

    def add(a, b):
        if len(a) < len(b):
            a, b = b, a
        return _norm([c + (b[i] if i < len(b) else 0) for i, c in enumerate(a)], p)

    def evaluate(coeffs, x):
        acc = ()
        for c in reversed(coeffs):
            acc = add(mul(acc, x), (c,))
        return acc

    elements = [_norm(coeffs[:-1], p) for coeffs in _monic_polys(m, p)]
    squares = [mul(y, y) for y in elements]
    total = 0
    for x in elements:
        hx = evaluate(curve.h, x)
        fx = evaluate(curve.f, x)
        for y, y2 in zip(elements, squares):
            if add(y2, mul(hx, y)) == fx:
                total += 1
    rhs = add(_norm([4 * c for c in curve.f], p), _polymul(curve.h, curve.h, p))
    if (len(rhs) - 1) % 2 == 1:
        total += 1
    else:
        total += squares.count((rhs[-1],))
    return total


# -- integer polynomial oracles ----------------------------------------------


def fraction_gcd(a: IntPoly, b: IntPoly) -> IntPoly:
    """Monic gcd over Q by the plain Euclidean algorithm, then primitive
    integer form with positive leading coefficient."""
    fa = [Fraction(c) for c in a.coeffs]
    fb = [Fraction(c) for c in b.coeffs]

    def rem(u, v):
        u = u[:]
        while len(u) >= len(v) and any(u):
            while u and u[-1] == 0:
                u.pop()
            if len(u) < len(v):
                break
            c = u[-1] / v[-1]
            off = len(u) - len(v)
            for i, vi in enumerate(v):
                u[off + i] -= c * vi
            while u and u[-1] == 0:
                u.pop()
        return u

    while any(fb):
        fa, fb = fb, rem(fa, fb)
        while fb and fb[-1] == 0:
            fb.pop()
    if not any(fa):
        raise AssertionError("gcd oracle called with two zero polynomials")
    from math import gcd as igcd, lcm

    denom = 1
    for c in fa:
        denom = lcm(denom, c.denominator)
    ints = [int(c * denom) for c in fa]
    g = 0
    for c in ints:
        g = igcd(g, c)
    if ints[-1] < 0:
        g = -g
    return IntPoly(c // g for c in ints)


def fraction_divides(d: IntPoly, n: IntPoly):
    """Long division over Q; returns (divides over Z, quotient)."""
    if not n:
        return True, IntPoly()
    if n.degree < d.degree:
        return False, None
    num = [Fraction(c) for c in n.coeffs]
    quot = [Fraction(0)] * (n.degree - d.degree + 1)
    for top in range(n.degree, d.degree - 1, -1):
        c = num[top] / d.lead
        quot[top - d.degree] = c
        for i, dc in enumerate(d.coeffs):
            num[top - d.degree + i] -= c * dc
    if any(num) or any(q.denominator != 1 for q in quot):
        return False, None
    return True, IntPoly(int(q) for q in quot)


# -- synthetic Weil polynomials ----------------------------------------------


def make_weil_lpoly(rng, q: int, g: int) -> LPolynomial:
    """Random product of g quadratic factors 1 - a t + q t^2 with
    |a| <= 2 sqrt(q): a valid L-polynomial by construction."""
    amax = int((4 * q) ** 0.5)
    while amax * amax > 4 * q:
        amax -= 1
    poly = IntPoly([1])
    for _ in range(g):
        a = rng.randint(-amax, amax)
        poly = poly * IntPoly([1, -a, q])
    return LPolynomial(q=q, g=g, poly=poly)


# -- recorded counts -----------------------------------------------------------

# N_1..N_33 of D_6 : y^2 + y = x^65 + x^(-1) over GF(2^m), as recorded by
# the first complete k = 6 count series (660 s with an earlier kernel).  They
# pin the genus-33 algebra, and the current kernel, without recounting here.
DK6_COUNTS = (
    4, 8, 4, 16, 24, 56, 88, 256, 616, 1168, 2072, 4096, 8168, 16304, 34104,
    65152, 131720, 266960, 522200, 1046816, 2089000, 4206320, 8388472,
    16770496, 33543624, 67104656, 134183704, 268397152, 536960872,
    1073886256, 2147472056, 4294690048, 8590189832,
)
