"""Exact arithmetic and structure detection for integer polynomials.

Coefficients are arbitrary-precision ints (they grow like q^(n*g) in the
pipelines built on top of this).  Division, gcd and the Newton recursions
are all exact; an inexact division is an error, never a rounding.
"""

from __future__ import annotations

from math import gcd as int_gcd


class ZeroDivisor(ZeroDivisionError):
    """Division of polynomials by the zero polynomial."""


class ZeroConstantTerm(ValueError):
    """Power sums of reciprocal roots need a nonzero constant term."""


class NotPowerSums(ValueError):
    """The inverse Newton recursion met an inexact division: the input
    sequence is not the power sums of any degree-d integer polynomial."""


class IntPoly:
    """Dense integer polynomial, ascending coefficients, normalized so the
    highest stored coefficient is nonzero; () is the zero polynomial."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        object.__setattr__(self, "coeffs", tuple(int(c) for c in coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("IntPoly is immutable")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def lead(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return IntPoly(
            (self.coeffs[i] if i < len(self.coeffs) else 0)
            + (other.coeffs[i] if i < len(other.coeffs) else 0)
            for i in range(n)
        )

    def __neg__(self):
        return IntPoly(-c for c in self.coeffs)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPoly(c * other for c in self.coeffs)
        if not self or not other:
            return IntPoly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPoly(out)

    __rmul__ = __mul__

    def __getitem__(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def derivative(self) -> "IntPoly":
        return IntPoly(i * self.coeffs[i] for i in range(1, len(self.coeffs)))

    def content(self) -> int:
        c = 0
        for a in self.coeffs:
            c = int_gcd(c, a)
        return c

    def primitive_part(self) -> "IntPoly":
        """Content stripped, leading coefficient made positive."""
        if not self:
            return self
        c = self.content()
        if self.lead < 0:
            c = -c
        return IntPoly(a // c for a in self.coeffs)

    def inflate(self, k: int) -> "IntPoly":
        """f(t) -> f(t^k)."""
        if k < 1:
            raise ValueError("k must be >= 1")
        if k == 1 or not self:
            return self
        out = [0] * (k * self.degree + 1)
        for i, c in enumerate(self.coeffs):
            out[k * i] = c
        return IntPoly(out)

    def deflate(self, k: int) -> "IntPoly | None":
        """The h with self = h(t^k), or None if some nonzero coefficient
        sits at an index not divisible by k."""
        if k < 1:
            raise ValueError("k must be >= 1")
        if k == 1:
            return self
        if any(c and i % k for i, c in enumerate(self.coeffs)):
            return None
        return IntPoly(self.coeffs[i] for i in range(0, len(self.coeffs), k))

    def scale_div(self, d: int) -> "IntPoly":
        """Exact coefficientwise division; raises ArithmeticError otherwise."""
        out = []
        for c in self.coeffs:
            q, r = divmod(c, d)
            if r:
                raise ArithmeticError("inexact coefficient division")
            out.append(q)
        return IntPoly(out)

    def shift(self, k: int) -> "IntPoly":
        """Multiply by t^k."""
        if not self:
            return self
        return IntPoly((0,) * k + self.coeffs)

    def __repr__(self):
        return f"IntPoly({list(self.coeffs)})"

    def __str__(self):
        return format_poly(self)


ONE = IntPoly([1])


def format_poly(f: IntPoly, spaced: bool = True) -> str:
    """Render in conventional descending form, e.g. "4t^4 + 2t^3 + t + 1"
    (spaced) or "4t^4+2t^3+t+1" (compact)."""
    if not f:
        return "0"
    parts = []
    for i in range(f.degree, -1, -1):
        c = f[i]
        if c == 0:
            continue
        mag = abs(c)
        if i == 0:
            body = str(mag)
        elif i == 1:
            body = "t" if mag == 1 else f"{mag}t"
        else:
            body = f"t^{i}" if mag == 1 else f"{mag}t^{i}"
        if not parts:
            parts.append(body if c > 0 else "-" + body)
        elif spaced:
            parts.append((" + " if c > 0 else " - ") + body)
        else:
            parts.append(("+" if c > 0 else "-") + body)
    return "".join(parts)


def divides_with_quotient(d: IntPoly, n: IntPoly) -> tuple[bool, IntPoly | None]:
    """Exact division test over Z[t]: True iff n = d * q with q in Z[t].
    Long division in Z: if q is in Z[t], every step divides exactly, so the
    first inexact step proves that it is not."""
    if not d:
        raise ZeroDivisor("division by the zero polynomial")
    if not n:
        return True, IntPoly()
    if n.degree < d.degree:
        return False, None
    rem = list(n.coeffs)
    quot = [0] * (n.degree - d.degree + 1)
    for top in range(n.degree, d.degree - 1, -1):
        coef, r = divmod(rem[top], d.lead)
        if r:
            return False, None
        quot[top - d.degree] = coef
        if coef:
            for i, dc in enumerate(d.coeffs):
                rem[top - d.degree + i] -= coef * dc
    if any(rem):
        return False, None
    return True, IntPoly(quot)


def _pseudo_rem(a: IntPoly, b: IntPoly) -> IntPoly:
    # prem: lc(b)^(deg a - deg b + 1) * a mod b, computed without fractions.
    lb = b.lead
    r = a
    e = a.degree - b.degree + 1
    while r and r.degree >= b.degree:
        r = r * lb - (b * r.lead).shift(r.degree - b.degree)
        e -= 1
    if e > 0:
        r = r * (lb**e)
    return r


def gcd_primitive(a: IntPoly, b: IntPoly) -> IntPoly:
    """Primitive generator of the gcd ideal over Q, positive leading
    coefficient.  Subresultant polynomial-remainder sequence, so every
    intermediate value stays an integer polynomial."""
    if not a and not b:
        raise ValueError("gcd of two zero polynomials")
    if not a:
        return b.primitive_part()
    if not b:
        return a.primitive_part()
    a = a.primitive_part()
    b = b.primitive_part()
    if a.degree < b.degree:
        a, b = b, a
    g = h = 1
    while True:
        delta = a.degree - b.degree
        r = _pseudo_rem(a, b)
        if not r:
            return b.primitive_part()
        if r.degree == 0:
            return ONE
        a, b = b, r.scale_div(g * h**delta)
        g = a.lead
        h = (g**delta) // (h ** (delta - 1)) if delta > 0 else h


def squarefree_over_Q(f: IntPoly) -> bool:
    """True iff f has no repeated complex root (gcd with derivative is
    constant)."""
    if not f:
        raise ValueError("zero polynomial")
    if f.degree <= 0:
        return True
    return gcd_primitive(f, f.derivative()).degree == 0


def power_sums_from_poly(f: IntPoly, r: int) -> list[int]:
    """Newton identities: power sums s_1..s_r of the reciprocal roots of f
    (the alpha_i with f = f(0) * prod(1 - alpha_i t)), by s_n = -(n f_n +
    sum over 0 < j < n of f_j s_(n-j)) / f(0).  Raises ValueError at the
    first s_n that is not an integer."""
    if not f or f[0] == 0:
        raise ZeroConstantTerm("reciprocal roots need f(0) != 0")
    if r < 1:
        raise ValueError("need r >= 1")
    c = f.coeffs
    d = f.degree
    sums = [0] * (r + 1)
    for n_ in range(1, r + 1):
        acc = n_ * c[n_] if n_ <= d else 0
        for j in range(1, min(n_ - 1, d) + 1):
            acc += c[j] * sums[n_ - j]
        s, rem = divmod(-acc, c[0])
        if rem:
            raise ValueError("power sums are not integral for this polynomial")
        sums[n_] = s
    return sums[1:]


def inverse_newton(s, d: int) -> IntPoly:
    """Inverse Newton: 1 - e_1 t + e_2 t^2 - ... + (-1)^d e_d t^d, with e_n
    the elementary symmetric functions of reciprocal roots whose power sums
    are s_1..s_d.  Its degree may fall below d (e_d = 0).  Raises
    NotPowerSums when an intermediate division by n is inexact."""
    s = list(s)
    if len(s) < d:
        raise ValueError(f"need at least {d} power sums, got {len(s)}")
    e = [1] + [0] * d
    for n_ in range(1, d + 1):
        acc = 0
        sign = 1
        for i in range(1, n_ + 1):
            acc += sign * e[n_ - i] * s[i - 1]
            sign = -sign
        q, rem = divmod(acc, n_)
        if rem:
            raise NotPowerSums(f"e_{n_} is not an integer")
        e[n_] = q
    return IntPoly((-1) ** j * e[j] for j in range(d + 1))


def poly_from_power_sums(s, d: int) -> IntPoly:
    """The unique degree-d polynomial prod(1 - alpha_i t) whose reciprocal-
    root power sums are s_1..s_d.  Raises NotPowerSums when an intermediate
    division by n is inexact or the degree collapses."""
    f = inverse_newton(s, d)
    if f.degree < d:
        raise NotPowerSums(f"degree collapses below {d}")
    return f
