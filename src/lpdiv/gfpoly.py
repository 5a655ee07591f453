"""Dense polynomial arithmetic over the prime field GF(p).

Polynomials are tuples of ints in [0, p), ascending by degree, with no
trailing zeros; the zero polynomial is the empty tuple.  Everything here
is exact and sized for small inputs (curve denominators, field moduli),
not for bulk work.
"""

from __future__ import annotations

GFPoly = tuple[int, ...]


def normalize(coeffs, p: int) -> GFPoly:
    out = [c % p for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def degree(f: GFPoly) -> int:
    """Degree, with deg 0 = -1 by convention."""
    return len(f) - 1


def add(a: GFPoly, b: GFPoly, p: int) -> GFPoly:
    n = max(len(a), len(b))
    return normalize(
        [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)], p
    )


def sub(a: GFPoly, b: GFPoly, p: int) -> GFPoly:
    n = max(len(a), len(b))
    return normalize(
        [(a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0) for i in range(n)], p
    )


def mul(a: GFPoly, b: GFPoly, p: int) -> GFPoly:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return normalize(out, p)


def divmod_(a: GFPoly, b: GFPoly, p: int) -> tuple[GFPoly, GFPoly]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(a)
    q = [0] * max(len(a) - len(b) + 1, 1)
    inv_lead = pow(b[-1], p - 2, p)
    while len(r) >= len(b) and any(r):
        while r and r[-1] % p == 0:
            r.pop()
        if len(r) < len(b):
            break
        shift = len(r) - len(b)
        factor = (r[-1] * inv_lead) % p
        q[shift] = factor
        for i, bi in enumerate(b):
            r[shift + i] = (r[shift + i] - factor * bi) % p
    return normalize(q, p), normalize(r, p)


def mod(a: GFPoly, b: GFPoly, p: int) -> GFPoly:
    return divmod_(a, b, p)[1]


def gcd(a: GFPoly, b: GFPoly, p: int) -> GFPoly:
    while b:
        a, b = b, mod(a, b, p)
    if a:
        inv_lead = pow(a[-1], p - 2, p)
        a = normalize([c * inv_lead for c in a], p)
    return a


def derivative(f: GFPoly, p: int) -> GFPoly:
    return normalize([i * f[i] for i in range(1, len(f))], p)


def pow_mod(base: GFPoly, e: int, modulus: GFPoly, p: int) -> GFPoly:
    result: GFPoly = (1,)
    base = mod(base, modulus, p)
    while e:
        if e & 1:
            result = mod(mul(result, base, p), modulus, p)
        base = mod(mul(base, base, p), modulus, p)
        e >>= 1
    return result


def evaluate(f: GFPoly, a: int, p: int) -> int:
    """f(a) in GF(p), by Horner."""
    acc = 0
    for c in reversed(f):
        acc = (acc * a + c) % p
    return acc


def is_irreducible(f: GFPoly, p: int) -> bool:
    """Rabin's test: x^(p^n) = x mod f, and x^(p^(n/r)) - x coprime to f
    for every prime r dividing n.  A root in GF(p) is a linear factor, so
    the p field points are tried first: most reducible candidates stop
    there, before any modular power."""
    n = degree(f)
    if n < 1:
        return False
    if n == 1:
        return True
    if any(evaluate(f, a, p) == 0 for a in range(p)):
        return False
    x: GFPoly = (0, 1)
    if pow_mod(x, p**n, f, p) != mod(x, f, p):
        return False
    for r in factor_int(n):
        h = sub(pow_mod(x, p ** (n // r), f, p), x, p)
        if degree(gcd(h, f, p)) != 0:
            return False
    return True


def factor_int(n: int) -> dict[int, int]:
    """Prime factorization by trial division (fine for n <= ~2^40).  Empty
    for n < 2, so n is prime exactly when ``factor_int(n) == {n: 1}``."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def encode(f: GFPoly, p: int) -> int:
    v = 0
    for c in reversed(f):
        v = v * p + c
    return v


def decode(v: int, p: int) -> GFPoly:
    out = []
    while v:
        out.append(v % p)
        v //= p
    return tuple(out)


def monic_polys(deg: int, p: int):
    """All monic degree-`deg` polynomials, ascending by encoded value of the
    non-leading part (the canonical enumeration order used everywhere)."""
    for v in range(p**deg):
        yield decode(v, p) + (0,) * (deg - len(decode(v, p))) + (1,)


def factor(f: GFPoly, p: int) -> list[tuple[GFPoly, int]]:
    """Factorization into monic irreducibles with multiplicities, by trial
    division in enumeration order (small degrees only)."""
    if not f:
        raise ValueError("cannot factor the zero polynomial")
    inv_lead = pow(f[-1], p - 2, p)
    f = normalize([c * inv_lead for c in f], p)
    factors: list[tuple[GFPoly, int]] = []
    d = 1
    while degree(f) >= 2 * d:
        for cand in monic_polys(d, p):
            mult = 0
            while True:
                q, r = divmod_(f, cand, p)
                if r:
                    break
                f, mult = q, mult + 1
            if mult:
                factors.append((cand, mult))
            if degree(f) < 2 * d:
                break
        d += 1
    if degree(f) >= 1:
        factors.append((f, 1))
    return factors


def squarefree(f: GFPoly, p: int) -> bool:
    """No repeated roots over the algebraic closure (odd p: gcd(f, f') test;
    a vanishing derivative means f is a p-th power, hence not squarefree)."""
    if not f:
        raise ValueError("zero polynomial")
    if degree(f) == 0:
        return True
    df = derivative(f, p)
    if not df:
        return False
    return degree(gcd(f, df, p)) == 0
