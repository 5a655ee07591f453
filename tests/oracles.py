"""Independent reference routes used as test oracles.

Everything here recomputes results by definition or brute force, on
arithmetic of its own (GF(p)[t] on coefficient tuples, integer polynomials
over Q), so the fast library paths are checked against genuinely different
computations."""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from math import prod

import numpy as np

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


# -- GF(p^m) on coefficient tuples -------------------------------------------


class TupleField:
    """GF(p^m) as GF(p)[t] modulo ``modulus`` (``first_irreducible(p, m)``
    by default), elements as ascending coefficient tuples without trailing
    zeros, multiplied by schoolbook multiply-and-reduce; neither
    ``FiniteField`` nor ``lpdiv.gfpoly`` is used.  Up to ``TABLE_MAX``
    elements, the powers of a generator found by brute force are tabulated
    once, so that enumerations multiply by table lookups."""

    TABLE_MAX = 1 << 12

    def __init__(self, p, m, modulus=None):
        self.p, self.m, self.order = p, m, p**m
        self.modulus = tuple(modulus) if modulus is not None else first_irreducible(p, m)
        self._exps, self._logs = [], {}
        # Tr is GF(p)-linear, so its values on the basis t^0..t^(m-1), each
        # the sum of that element's m Frobenius powers, fix it
        self._basis_traces = [self.frobenius_trace((0,) * j + (1,)) for j in range(m)]
        if self.order <= self.TABLE_MAX:
            self._tabulate()

    def _tabulate(self):
        # the powers of the first element of multiplicative order p^m - 1
        for g in map(self.element, range(1, self.order)):
            powers, x = [(1,)], g
            while x != (1,):
                powers.append(x)
                x = self.mul(x, g)
            if len(powers) == self.order - 1:
                self._exps, self._logs = powers, {y: i for i, y in enumerate(powers)}
                return
        raise AssertionError("no generator found")

    def element(self, code):
        """The tuple of the base-p digits of an integer code (the library's
        encoding)."""
        digits = []
        for _ in range(self.m):
            digits.append(code % self.p)
            code //= self.p
        return _norm(digits, self.p)

    def code(self, a):
        return sum(c * self.p**i for i, c in enumerate(a))

    def elements(self):
        return [self.element(v) for v in range(self.order)]

    def add(self, a, b):
        if len(a) < len(b):
            a, b = b, a
        return _norm([c + (b[i] if i < len(b) else 0) for i, c in enumerate(a)], self.p)

    def mul(self, a, b):
        if not a or not b:
            return ()
        if self._logs:
            return self._exps[(self._logs[a] + self._logs[b]) % (self.order - 1)]
        return _polymod(_polymul(a, b, self.p), self.modulus, self.p)

    def power(self, a, e):
        r = (1,)
        for bit in bin(e)[2:]:
            r = self.mul(r, r)
            if bit == "1":
                r = self.mul(r, a)
        return r

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero")
        return self.power(a, self.order - 2)

    def evaluate(self, coeffs, x):
        acc = ()
        for c in reversed(coeffs):
            acc = self.add(self.mul(acc, x), _norm((c,), self.p))
        return acc

    def frobenius_trace(self, a):
        """Tr(a) = a + a^p + ... + a^(p^(m-1)), as an int in GF(p)."""
        acc = ()
        for _ in range(self.m):
            acc = self.add(acc, a)
            a = self.power(a, self.p)
        if len(acc) > 1:
            raise AssertionError("trace left the prime field")
        return acc[0] if acc else 0

    def trace(self, a):
        """``frobenius_trace``, taken linearly from the basis values."""
        return sum(c * t for c, t in zip(a, self._basis_traces)) % self.p


@lru_cache(maxsize=None)
def tuple_field(p, m, modulus=None) -> TupleField:
    return TupleField(p, m, modulus)


# -- the 2-rank by Deuring-Shafarevich ---------------------------------------


def two_rank_deuring(curve) -> int:
    """2-rank of the Jacobian of y^2 + y = f(x) by Deuring-Shafarevich: s - 1,
    s the number of geometric poles of f.  The finite poles are the distinct
    roots of the denominator, whose number is the sum of the degrees of its
    monic irreducible factors, found here by trial division; infinity is a
    pole when the numerator has the larger degree."""
    num, den = _norm(curve.f.num, 2), _norm(curve.f.den, 2)
    s = sum(
        d
        for d in range(1, len(den))
        for cand in _monic_polys(d, 2)
        if not _polymod(den, cand, 2) and is_irreducible_bruteforce(cand, 2)
    )
    return s + (len(num) > len(den)) - 1


# -- traces and character sums by definition --------------------------------


def trace_by_definition(field, x: int) -> int:
    """Tr(x) of the code x of ``field``, in a ``TupleField`` on the same
    modulus (only the field's p, m and modulus are read)."""
    oracle = tuple_field(field.p, field.m, field.modulus)
    return oracle.trace(oracle.element(x))


def trace_dual(field, c: int) -> int:
    """The mask M(c) with Tr(c*y) = parity(y & M(c)) for every y, as the
    XOR of the p = 2 field's masks ``_dual_masks`` over the set bits of c:
    the scalar reference of M that the kernels read through byte tables."""
    out = 0
    for i, mask in enumerate(field._dual_masks):
        if c >> i & 1:
            out ^= mask
    return out


def eval_map(field: TupleField, f, x):
    """f(x) = num(x) * den(x)^(-1) for a rational map f, or None at a pole."""
    den = field.evaluate(f.den, x)
    return field.mul(field.evaluate(f.num, x), field.inv(den)) if den else None


def naive_char_sum(m: int, f) -> int:
    """Sum of (-1)^Tr(f(x)) over GF(2^m), poles left out."""
    field = tuple_field(2, m)
    values = [eval_map(field, f, x) for x in field.elements()]
    return sum(1 - 2 * field.trace(v) for v in values if v is not None)


# -- per-(x, y) point counting ----------------------------------------------


def naive_count_as2(curve, m: int) -> int:
    """Count solutions of y^2 + y = f(x) pair by pair, then add one place
    per rational pole of f and the solutions above x = infinity."""
    field = tuple_field(2, m)
    lhs = Counter(field.add(field.mul(y, y), y) for y in field.elements())
    total = 0
    for x in field.elements():
        fx = eval_map(field, curve.f, x)
        total += 1 if fx is None else lhs[fx]  # one place above a pole
    deg_num = len(curve.f.num) - 1
    deg_den = len(curve.f.den) - 1
    if deg_num > deg_den:
        total += 1
    else:
        total += lhs[(1,) if deg_num == deg_den else ()]
    return total


def naive_count_hyper(curve, m: int) -> int:
    """Count solutions of y^2 + h(x) y = f(x) pair by pair; at infinity,
    count square roots of the leading coefficient of 4f + h^2 by
    enumeration."""
    p = curve.p
    field = tuple_field(p, m)
    elements = field.elements()
    squares = [field.mul(y, y) for y in elements]
    total = 0
    for x in elements:
        hx = field.evaluate(curve.h, x)
        fx = field.evaluate(curve.f, x)
        for y, y2 in zip(elements, squares):
            if field.add(y2, field.mul(hx, y)) == fx:
                total += 1
    rhs = field.add(_norm([4 * c for c in curve.f], p), _polymul(curve.h, curve.h, p))
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


def roots_on_circle(lp: LPolynomial) -> bool:
    """Every root of L has modulus q^(-1/2) (so every reciprocal root has
    modulus sqrt(q)), to a relative tolerance of 1e-6, by numpy's
    floating-point roots.  It needs simple roots: repeated roots are
    ill-conditioned (at genus 33, L_{D_6} with its repeated part of degree
    8 fails), so such an L is checked through its squarefree factors."""
    if lp.poly.degree < 1:
        return True
    roots = np.roots([float(c) for c in reversed(lp.poly.coeffs)])
    target = lp.q**-0.5
    return max(abs(abs(r) - target) for r in roots) <= 1e-6 * target


def fraction_power_sums(f: IntPoly, r: int) -> list[Fraction]:
    """Power sums s_1..s_r of the reciprocal roots of f over Q: Newton's
    identities on the monic-at-zero f / f(0), in exact fractions."""
    b = [Fraction(c, f.coeffs[0]) for c in f.coeffs]
    sums = [Fraction(0)] * (r + 1)
    for n in range(1, r + 1):
        sums[n] = -n * b[n] if n < len(b) else Fraction(0)
        sums[n] -= sum(b[j] * sums[n - j] for j in range(1, min(n, len(b))))
    return sums[1:]


# -- the count identity for every m ------------------------------------------


def norm_to_tk(f: IntPoly, k: int) -> IntPoly:
    """The product of f(z t) over the k-th roots of unity z, as a polynomial
    in u = t^k: the determinant of multiplication by f on Z[t], a free
    Z[u]-module with basis 1, t, .., t^(k-1), expanded by permutations.  For
    an L-polynomial this is the L-polynomial of the degree-k extension, got
    without power sums or Newton steps."""
    if k < 1:
        raise ValueError("k must be >= 1")
    parts = [IntPoly(f.coeffs[r::k]) for r in range(k)]  # f = sum_r t^r parts[r](t^k)
    u = IntPoly([0, 1])
    # column c is t^c f: the t^(r + c) parts[r] term lands in row (r + c) mod k,
    # times u when r + c wraps past k - 1
    matrix = [[IntPoly() for _ in range(k)] for _ in range(k)]
    for c in range(k):
        for r in range(k):
            wrap, row = divmod(r + c, k)
            matrix[row][c] = parts[r] * u if wrap else parts[r]
    det = IntPoly()
    for perm in permutations(range(k)):
        inversions = sum(perm[i] > perm[j] for i in range(k) for j in range(i + 1, k))
        term = IntPoly([(-1) ** inversions])
        for c, row in enumerate(perm):
            term = term * matrix[row][c]
        det = det + term
    return det


def master_identity_check(lc: LPolynomial, ld: LPolynomial, k: int) -> bool:
    """The polynomial identity L_C^k * L_D^(k)(t^k) == L_D^k * L_C^(k)(t^k),
    with L^(k) the L-polynomial of the degree-k extension.  Taking
    logarithms shows it holds exactly when the counts agree for every m not
    divisible by k, so it decides hypothesis 1 of the divisibility
    criterion for all m at once."""
    if lc.q != ld.q:
        raise ValueError("L-polynomials must share the base field size")
    lhs = prod([lc.poly] * k, start=IntPoly([1])) * norm_to_tk(ld.poly, k).inflate(k)
    rhs = prod([ld.poly] * k, start=IntPoly([1])) * norm_to_tk(lc.poly, k).inflate(k)
    return lhs == rhs


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
