"""Independent references for every benchmark operation.

Nothing here imports lpdiv.  Counts come from three routes that share no
code with the program:

* recorded data: the genus-33 D_6 count series and the published k = 1..5
  quotients, copied here so that regenerating the repository's own result
  files cannot move the reference;
* brute force: a small GF(p^m) implementation that enumerates a curve at
  the few degrees m <= g its L-polynomial needs;
* the L-polynomial itself: built from N_1..N_g by the Newton identities, it
  predicts every larger N_m exactly.

Integer polynomials are ascending coefficient lists.
"""

from __future__ import annotations

import re

# L-polynomial of D_1 : y^2 + y = x^3 + x^(-1) over GF(2): 4t^4 + 2t^3 + t + 1.
D1 = [1, 1, 0, 2, 4]

# Published quotients L_{D_k} / L_{D_1}.
PUBLISHED_QUOTIENTS = {
    1: [1],
    2: [1, 0, 2],
    3: [1, 0, 0, -4, 0, 0, 8],
    4: [1, 0, 2] + [0] * 9 + [64, 0, 128],
    5: [1] + [0] * 4 + [4] + [0] * 19 + [4096] + [0] * 4 + [32768],
}

# Recorded N_1..N_33 of D_6 : y^2 + y = x^65 + x^(-1) over GF(2) (genus 33).
DK6_COUNTS = (
    4, 8, 4, 16, 24, 56, 88, 256, 616, 1168, 2072, 4096, 8168, 16304, 34104,
    65152, 131720, 266960, 522200, 1046816, 2089000, 4206320, 8388472,
    16770496, 33543624, 67104656, 134183704, 268397152, 536960872,
    1073886256, 2147472056, 4294690048, 8590189832,
)

# Published F_3 pair: equal counts for every m coprime to 6, yet L_C does not
# divide L_D.
F3_LC = [1, 1, 3]
F3_LD = [1, 1, -2, 3, 9]

# Recorded two-prime split of the D_6 quotient: A(t^2) * B(t^3).
DK6_SPLIT_B = [1, -4, 8]


# -- integer polynomials and the Newton identities ---------------------------


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def inflate(a, k):
    """a(t^k)."""
    out = [0] * ((len(a) - 1) * k + 1)
    for i, c in enumerate(a):
        out[i * k] = c
    return out


def trim(a):
    a = list(a)
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    return a


def lpoly_from_counts(q: int, g: int, counts) -> list[int]:
    """L(t) from N_1..N_g: Newton for a_1..a_g, functional equation for the
    rest."""
    s = [q**m + 1 - counts[m - 1] for m in range(1, g + 1)]
    e = [1] + [0] * g
    for n in range(1, g + 1):
        acc = sum((-1) ** (i - 1) * e[n - i] * s[i - 1] for i in range(1, n + 1))
        if acc % n:
            raise ValueError(f"counts are not those of a genus-{g} curve (step {n})")
        e[n] = acc // n
    a = [(-1) ** j * e[j] for j in range(g + 1)]
    return a + [q ** (j - g) * a[2 * g - j] for j in range(g + 1, 2 * g + 1)]


def counts_from_lpoly(q: int, lpoly, r: int) -> list[int]:
    """N_1..N_r implied by L(t) = prod (1 - alpha_i t)."""
    d = len(lpoly) - 1
    e = [(-1) ** j * lpoly[j] for j in range(d + 1)]
    s = []
    for m in range(1, r + 1):
        acc = (-1) ** (m - 1) * m * e[m] if m <= d else 0
        acc += sum((-1) ** (i - 1) * e[i] * s[m - i - 1] for i in range(1, min(m - 1, d) + 1))
        s.append(acc)
    return [q**m + 1 - s[m - 1] for m in range(1, r + 1)]


def dk_lpoly(k: int) -> list[int]:
    """L_{D_k} for k <= 6, from published or recorded data only."""
    if k <= 5:
        return poly_mul(D1, PUBLISHED_QUOTIENTS[k])
    if k == 6:
        return lpoly_from_counts(2, 33, DK6_COUNTS)
    raise ValueError("no reference L-polynomial for k > 6")


def dk_gsums(k: int, m_max: int) -> list[int]:
    """G_m^(k) = N_m(D_k) - 2^m - 1 for m = 1..m_max."""
    counts = counts_from_lpoly(2, dk_lpoly(k), m_max)
    return [n - 2**m - 1 for m, n in enumerate(counts, start=1)]


_TERM = re.compile(r"([+-]?)(\d*)(t(?:\^(\d+))?)?")


def parse_poly(text: str) -> list[int]:
    """Ascending coefficients of a compact descending rendering such as
    "16t^8+8t^6-t+1"."""
    out: dict[int, int] = {}
    pos = 0
    while pos < len(text):
        match = _TERM.match(text, pos)
        if not match or match.end() == pos:
            raise ValueError(f"cannot parse polynomial {text!r} at {pos}")
        sign, mag, var, exp = match.groups()
        coeff = int(mag) if mag else 1
        deg = (int(exp) if exp else 1) if var else 0
        out[deg] = out.get(deg, 0) + (-coeff if sign == "-" else coeff)
        pos = match.end()
    return trim([out.get(i, 0) for i in range(max(out, default=0) + 1)])


# -- GF(p)[x] helpers (ascending coefficient lists) --------------------------


def gfp_trim(a, p):
    a = [c % p for c in a]
    while a and a[-1] == 0:
        a.pop()
    return a


def gfp_mod(a, b, p):
    a = gfp_trim(a, p)
    inv = pow(b[-1], p - 2, p)
    while len(a) >= len(b):
        c = a[-1] * inv % p
        shift = len(a) - len(b)
        for i, bc in enumerate(b):
            a[shift + i] = (a[shift + i] - c * bc) % p
        a = gfp_trim(a, p)
    return a


def gfp_gcd(a, b, p):
    a, b = gfp_trim(a, p), gfp_trim(b, p)
    while b:
        a, b = b, gfp_mod(a, b, p)
    return a


def gfp_squarefree(f, p) -> bool:
    df = gfp_trim([i * c for i, c in enumerate(f)][1:], p)
    return bool(df) and len(gfp_gcd(f, df, p)) == 1


def _irreducible(p: int, m: int) -> list[int]:
    """First monic irreducible of degree m over GF(p), by trial division."""

    def monic(deg):
        for v in range(p**deg):
            digits = []
            for _ in range(deg):
                digits.append(v % p)
                v //= p
            yield digits + [1]

    for cand in monic(m):
        if all(gfp_mod(cand, d, p) for deg in range(1, m // 2 + 1) for d in monic(deg)):
            return cand
    raise AssertionError("unreachable: irreducibles exist in every degree")


class SmallField:
    """GF(p^m) by brute force: elements are coefficient tuples, arithmetic is
    schoolbook modulo the first irreducible.  Meant for q^m of a few hundred."""

    def __init__(self, p: int, m: int):
        self.p, self.m = p, m
        self.modulus = _irreducible(p, m)
        self.order = p**m

    def elements(self):
        for v in range(self.order):
            digits = []
            for _ in range(self.m):
                digits.append(v % self.p)
                v //= self.p
            yield tuple(digits)

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def mul(self, a, b):
        r = gfp_mod(poly_mul(list(a), list(b)), self.modulus, self.p)
        return tuple(r + [0] * (self.m - len(r)))

    def const(self, c):
        return tuple([c % self.p] + [0] * (self.m - 1))

    def power(self, a, e):
        r = self.const(1)
        while e:
            if e & 1:
                r = self.mul(r, a)
            a = self.mul(a, a)
            e >>= 1
        return r

    def is_zero(self, a):
        return not any(a)

    def horner(self, coeffs, x):
        acc = self.const(0)
        for c in reversed(coeffs):
            acc = self.add(self.mul(acc, x), self.const(c))
        return acc

    def trace(self, a):
        """Absolute trace, as an element of GF(p)."""
        acc, y = self.const(0), a
        for _ in range(self.m):
            acc = self.add(acc, y)
            y = self.power(y, self.p)
        if any(acc[1:]):
            raise ArithmeticError("trace left the prime field")
        return acc[0]


def as2_count(num, den, m: int) -> int:
    """#C(F_{2^m}) for y^2 + y = num/den with a pole at infinity and only
    odd-order finite poles: two or no points over each regular x, one over
    each finite pole, one at infinity."""
    if len(gfp_trim(num, 2)) <= len(gfp_trim(den, 2)):
        raise ValueError("reference count needs a pole at infinity")
    field = SmallField(2, m)
    total = 1
    for x in field.elements():
        d = field.horner(den, x)
        if field.is_zero(d):
            total += 1
            continue
        f = field.mul(field.horner(num, x), field.power(d, field.order - 2))
        total += 1 + (-1) ** field.trace(f)
    return total


def hyper_count(f, p: int, m: int) -> int:
    """#C(F_{p^m}) for y^2 = f(x), deg f odd: one point at infinity."""
    if len(gfp_trim(f, p)) % 2:
        raise ValueError("reference count needs an odd-degree right side")
    field = SmallField(p, m)
    half = (field.order - 1) // 2
    one = field.const(1)
    total = 1
    for x in field.elements():
        v = field.horner(f, x)
        if field.is_zero(v):
            total += 1
        else:
            total += 2 if field.power(v, half) == one else 0
    return total
