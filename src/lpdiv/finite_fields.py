"""Exact arithmetic in GF(p^m) for small p, with bulk character-sum kernels
for p = 2 and bulk digit arithmetic for odd p.

Elements are plain ints: for p = 2 the bits are coordinates in the power
basis of the modulus (``gfpoly`` works on coefficient tuples only, so this
int encoding lives here); for odd p the base-p digits are
(``gfpoly.encode``).  The only scalar operations are ``mul``, ``pow_el``
and, for p = 2, ``_square``, which build the constants the bulk kernels
start from; no map is evaluated one element at a time here (the test
oracles do that, on arithmetic of their own).  Each characteristic has
one bulk representation: uint64 codes for p = 2, multiplied by constants
through byte tables (``_mul_tables``, one build for any number of
constants), and int64 digit rows for odd p.  ``bulk_decode``/
``bulk_encode`` convert codes to digit rows and back, ``mul_matrices``
gives the m x m digit matrices over GF(p) of multiplications by
constants (from the digit tensor ``mul_tensor``, which an odd-p count
builds once), and ``geometric_rows`` the digit rows of the powers of a
constant by doubling with those matrices, from which the odd-p counting
walk starts (``geometric_block`` is their p = 2 counterpart).  A field is
its (p, m): the modulus is always the lexicographically first monic
irreducible of degree m and the generator the least one, so
``make_field(p, m)`` caches fields by (p, m).  For odd p both are
searched for (factoring p^m - 1 for the generator); for p = 2 they are
read, with g^-1, from the table ``_GF2_FIELDS``, which the tests check
against the search for every m, so a p = 2 field costs only its O(m^2)
trace masks.  A ``FiniteField`` is immutable after construction and safe
to share.  No field of degree above the enumeration bound
``DEFAULT_MAX_M`` = 34 can be built, so no count beyond it can start.

The p = 2 character-sum kernel walks the multiplicative group as powers of
the field generator g.  ``char_sum`` routes each map to one of two
realizations:

* a packed kernel, for every map with a monomial denominator (a Laurent
  polynomial sum of c_e x^e) at every m.  Tr(c*y) is GF(2)-linear in y, so
  it equals parity(y & M(c)), where the trace-dual mask M(c) is the XOR of
  m precomputed masks over the set bits of c (the trace bilinear form,
  which is symmetric: Tr(c*y) = parity(c & M(y)) too).  Indices are cut
  into blocks of L = 2^ceil(m/2), within [64, 4096] (``_block_length``),
  so small fields do not pay for long tables.  In block t each exponent
  contributes g^(e*i) = c_t * T_e[j] with T_e[j] = g^(e*j), j < L, fixed.
  Bit k of M(T_e[j]), over j, Tr(t^k*T_e[j]) = parity(T_e[j] & M(t^k)),
  is a row of L bits packed 64 to a uint64 word (``_trace_rows``), and
  Four-Russians tables (``_xor_tables``, one build for every exponent)
  hold the XOR of every subset of 8 consecutive rows, so the L trace bits
  of a block are one gather per byte of c_t and exponent, and the block
  adds L - 2*popcount.  The blocks are cut into chunks of ``_STARTS``, the
  unit of work, of at most L blocks for every m <= 34: block s of a chunk
  starts at the chunk's first start times the step G_e^s, G_e = g^(e*L).
  So one ``geometric_block`` of the bases g^e and the G_e gives every T_e
  and step (``_block_powers``), one gather per doubling for all of them.
  The other constants are ``pow_el``: the bases, the G_e and the leaps
  G_e^_STARTS from a chunk's starts to the next (powers of two, squarings
  only), and each worker's first start g^(e*i), i its first index.  A
  count builds two tables whatever L (the doubling constants and the bit
  rows), one more of the leaps when it has more than one chunk, and a
  worker one to multiply the steps by its first start when that is not 1.
  A negative exponent e raises g^-1 to -e.  Up to ``threads`` threads of
  this process, no more than the CPUs it may run on or the chunks (one
  chunk and no thread up to 2^24 elements), share the chunks, the field
  and the tables; numpy's gathers, XORs and popcounts run without the
  GIL.  Each takes a contiguous run of chunks, gathers ``_BATCH`` blocks
  at a time into two buffers of its own, and masks the bits of the last
  block past the range end, so any index range [lo, hi) can be summed.
  Memory is bounded by these chunk sizes, not by the field.  Partial
  sums are exact ints, so the result does not depend on the partitioning;
* a table kernel, for denominators that are not monomials, at
  m <= ``TABLE_MAX_M``.  The map has coefficients in GF(2), so f(x^2) =
  f(x)^2 and Tr(y^2) = Tr(y): the sign at x = g^i is constant on each
  orbit i -> 2i mod n = 2^m - 1, which rotates the m bits of i.  Only
  orbit representatives are walked (``_orbit_walk``), an eighth of the
  group: R3, the 2^(m-3) indices with top bits 100, each of weight m/c3,
  c3 its cyclic 100 patterns (every orbit with a cyclic 00 meets R3 in
  c3*p/m indices, p its size), and the F(m - 1) indices with top bits 10
  and no cyclic 00, F the Fibonacci numbers (10946 at m = 22), each of
  weight m/c2, c2 its cyclic 10 pairs; i = 0 (x = 1) and x = 0 are summed
  on their own.  One chunked walk of g (``power_tables``) computes g^k and
  g^-k together for k <= n/2, in chunks of ``_TABLE_CHUNK``, and fills
  the only order-sized table, inv[y] = 1/y (uint32), scattered both ways.
  As each chunk passes, the terms x^e of N and D at the walked x = g^i,
  the powers e*i mod n, are XORed into two accumulators over the walk: on
  R3 they step by e, so each term takes strided slices of the chunk.  So
  a count holds about 5 bytes per element: 4 of inv and 2 uint32 per
  walked index.  Then, in pieces of ``_TABLE_CHUNK``, Tr(N/D) is
  parity(N & M(inv[D])), M applied through byte tables of the masks built
  once per count, so only to the 2^(m-3) + F(m - 1) + 1 denominators the
  walk reads.  The signs are summed per class (``_orbit_classes``) into
  S_k, and m * S_k / c is added for each class of weight m/c in exact
  integers, an S_k with m * S_k not a multiple of c raising RuntimeError
  as a counting bug (``_orbit_total``).  The tables are built per call
  and not kept on the (cached, shared) field; building them is most of a
  count.  Beyond that bound such maps raise ``TooLarge``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import gfpoly
from .gfpoly import factor_int

DEFAULT_MAX_M = 34
TABLE_MAX_M = 22
_TABLE_CHUNK = 1 << 15  # indices per step of the table kernel and its table walk
_STARTS = 1 << 12  # block starts of the packed kernel computed at once
_BATCH = 1 << 10  # blocks of the packed kernel gathered at once
LOG_TABLE_MAX = 1 << 20
POWER_TABLE_MAX = 1 << 30

# GF(2^m) for 1 <= m <= DEFAULT_MAX_M: (the modulus without its leading
# t^m, encoded; the generator g; g^-1).  The modulus and g are what
# ``_default_modulus`` and ``_find_generator``, which build the odd-p
# fields, return at p = 2 (the lexicographically first monic irreducible,
# the least generator), so a p = 2 field is built without searching or
# factoring 2^m - 1; the tests re-run both searches for every m.
_GF2_FIELDS = {
    1: (0x0, 1, 0x1),
    2: (0x3, 2, 0x3),
    3: (0x3, 2, 0x5),
    4: (0x3, 2, 0x9),
    5: (0x5, 2, 0x12),
    6: (0x3, 2, 0x21),
    7: (0x3, 2, 0x41),
    8: (0x1b, 3, 0xf6),
    9: (0x3, 7, 0x16c),
    10: (0x9, 2, 0x204),
    11: (0x5, 2, 0x402),
    12: (0x9, 3, 0xff8),
    13: (0x1b, 2, 0x100d),
    14: (0x21, 7, 0x1b60),
    15: (0x3, 2, 0x4001),
    16: (0x2b, 3, 0xffe6),
    17: (0x9, 2, 0x10004),
    18: (0x9, 10, 0x35553),
    19: (0x27, 2, 0x40013),
    20: (0x9, 2, 0x80004),
    21: (0x5, 2, 0x100002),
    22: (0x3, 2, 0x200001),
    23: (0x21, 2, 0x400010),
    24: (0x1b, 2, 0x80000d),
    25: (0x9, 2, 0x1000004),
    26: (0x1b, 3, 0x3fffff6),
    27: (0x27, 2, 0x4000013),
    28: (0x3, 7, 0x6db6db6),
    29: (0x5, 2, 0x10000002),
    30: (0x3, 19, 0x226bc4d6),
    31: (0x9, 2, 0x40000004),
    32: (0x8d, 3, 0xffffff84),
    33: (0x4b, 3, 0x1ffffffc6),
    34: (0x1b, 3, 0x3fffffff6),
}


class NoPrime(ValueError):
    """The requested characteristic is not a prime number."""


class TooLarge(ValueError):
    """An enumeration exceeds one of the fixed bounds."""


def resolve_threads(threads: int | None) -> int:
    if threads is not None:
        if threads < 1:
            raise ValueError("threads must be >= 1")
        return threads
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


@dataclass(frozen=True)
class RationalMap:
    """A rational function num(x)/den(x) over GF(2), the field of every
    Artin-Schreier right side.

    Stored reduced: num and den share no factor over GF(2) (so den, like
    every nonzero polynomial over GF(2), is monic).  Construct with
    ascending coefficient sequences, read mod 2.
    """

    num: tuple[int, ...]
    den: tuple[int, ...]

    def __init__(self, num, den=(1,)):
        num_n = gfpoly.normalize(num, 2)
        den_n = gfpoly.normalize(den, 2)
        if not den_n:
            raise ZeroDivisionError("rational map with zero denominator")
        g = gfpoly.gcd(num_n, den_n, 2)
        if gfpoly.degree(g) > 0:
            num_n = gfpoly.divmod_(num_n, g, 2)[0]
            den_n = gfpoly.divmod_(den_n, g, 2)[0]
        object.__setattr__(self, "num", num_n)
        object.__setattr__(self, "den", den_n)

    def laurent_exponents(self) -> tuple[int, ...] | None:
        """Exponent multiset of f as a Laurent polynomial, or None when the
        denominator is not a monomial."""
        support = [i for i, c in enumerate(self.den) if c]
        if len(support) != 1:
            return None
        j = support[0]
        return tuple(e - j for e, c in enumerate(self.num) if c)


def _xor_tables(rows: np.ndarray, axis: int = 0) -> np.ndarray:
    """Four-Russians tables of a GF(2)-linear map given by the images of the
    basis bits 1 << k, ``rows`` a uint64 array whose axis ``axis`` runs
    over k: that axis becomes the two axes (ceil(k/8), 256) of the tables,
    and tables[..., b, v, ...] is the XOR of the rows 8b + i over the set
    bits i of the byte v.  So a table of each of several maps is one build,
    and tables[j] is the table of map j when the row axis is not the first."""
    axis %= rows.ndim
    pre, k, post = rows.shape[:axis], rows.shape[axis], rows.shape[axis + 1 :]
    nbytes = (k + 7) // 8
    padded = np.zeros(pre + (nbytes * 8,) + post, dtype=np.uint64)
    padded[(slice(None),) * axis + (slice(0, k),)] = rows
    padded = padded.reshape(pre + (nbytes, 8, 1) + post)
    tables = np.empty(pre + (nbytes, 256) + post, dtype=np.uint64)
    lead = (slice(None),) * (axis + 1)
    tables[lead + (0,)] = 0
    for i in range(8):
        low, high = lead + (slice(0, 1 << i),), lead + (slice(1 << i, 2 << i),)
        np.bitwise_xor(tables[low], padded[lead + (i,)], out=tables[high])
    return tables


def _code_bytes(codes: np.ndarray) -> np.ndarray:
    """The bytes of each code, in little-endian order whatever the host's,
    at the codes' own width: shape codes.shape + (itemsize,), uint8."""
    codes_le = np.ascontiguousarray(codes, dtype=codes.dtype.newbyteorder("<"))
    return codes_le.view(np.uint8).reshape(codes_le.shape + (codes_le.itemsize,))


def _xor_gather(tables: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """The map of ``_xor_tables`` (row axis first) applied to every code:
    the XOR over b of tables[b][byte b of the code], in the tables' dtype
    (uint32 codes take half the traffic of uint64)."""
    code_bytes = _code_bytes(codes)
    out = np.take(tables[0], code_bytes[..., 0], axis=0)
    for b in range(1, len(tables)):
        out ^= np.take(tables[b], code_bytes[..., b], axis=0)
    return out


class FiniteField:
    """GF(p^m) with a fixed monic irreducible modulus and a known generator
    of the multiplicative group."""

    def __init__(self, p: int, m: int):
        if m > DEFAULT_MAX_M:  # before any modulus search or factoring
            raise TooLarge(f"m = {m} exceeds the enumeration bound {DEFAULT_MAX_M}")
        if p != 2 and factor_int(p) != {p: 1}:
            raise NoPrime(f"{p} is not prime")
        if m < 1:
            raise ValueError("extension degree must be >= 1")
        self.p = p
        self.m = m
        self.order = p**m
        if p == 2:  # the search's results, read from the table
            low, self.generator, self._generator_inv = _GF2_FIELDS[m]
            self._top_bit = 1 << m
            self._mod_int = low | self._top_bit
            self.modulus = gfpoly.decode(self._mod_int, 2)
            self._low_terms = tuple(i for i in range(m) if low >> i & 1)  # t^m = sum of t^i
            self._dual_masks = self._build_dual_masks()
        else:  # t^i mod the modulus, i < 2m - 1: y -> c*y maps t^j to sum c_k t^(j+k)
            self.modulus = _default_modulus(p, m)
            self.generator = self._find_generator()
            monomials = ((0,) * i + (1,) for i in range(2 * m - 1))
            self._reduced = tuple(gfpoly.encode(gfpoly.mod(t, self.modulus, p), p) for t in monomials)

    # -- scalar arithmetic ------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        if self.p == 2:  # a*b mod the modulus on codes: a*t^i for each set bit i of b
            top, modulus = self._top_bit, self._mod_int
            r = 0
            while b:
                if b & 1:
                    r ^= a
                b >>= 1
                a <<= 1
                if a & top:
                    a ^= modulus
            return r
        p = self.p
        prod = gfpoly.mul(gfpoly.decode(a, p), gfpoly.decode(b, p), p)
        return gfpoly.encode(gfpoly.mod(prod, self.modulus, p), p)

    def _square(self, a: int) -> int:
        """a*a for p = 2 without the bit-serial ``mul``: a polynomial over
        GF(2) squares term by term, so bit i of a moves to bit 2i (read as
        base 4, the binary digits of a spread out), and the terms h*t^m of
        degree m and up fold back as h times the modulus's low terms."""
        x = int(format(a, "b"), 4)
        while x >> self.m:
            h = x >> self.m
            x &= self._top_bit - 1
            for i in self._low_terms:
                x ^= h << i
        return x

    def pow_el(self, a: int, e: int) -> int:
        """a^e from the top bit of e down: a power of two is squarings only."""
        if e < 0:
            raise ValueError("exponent must be >= 0")
        square = self._square if self.p == 2 else lambda y: self.mul(y, y)
        r = a if e else 1
        for bit in format(e, "b")[1:]:
            r = square(r)
            if bit == "1":
                r = self.mul(r, a)
        return r

    def __repr__(self):
        return f"FiniteField(p={self.p}, m={self.m})"

    # -- construction helpers ---------------------------------------------

    def _find_generator(self) -> int:
        n = self.order - 1
        if n == 1:
            return 1
        prime_divs = sorted(factor_int(n))
        for cand in range(2, self.order):
            if all(self.pow_el(cand, n // r) != 1 for r in prime_divs):
                return cand
        raise AssertionError("no generator found; modulus not irreducible?")

    def _build_dual_masks(self) -> tuple[int, ...]:
        # Bit j of mask i is Tr(t^(i+j)).  The traces s_k = Tr(t^k) are the
        # power sums of the roots of the modulus t^m + a_(m-1) t^(m-1) + ...
        # + a_0, so over GF(2) Newton's identities give them from its
        # coefficients: s_0 = m mod 2, s_k = k*a_(m-k) + sum over 0 < i < k
        # of a_(m-i) s_(k-i) for k <= m, and s_k = sum over 0 < i <= m of
        # a_(m-i) s_(k-i) beyond (t^k = sum of a_(m-i) t^(k-i) there).
        # ``coeffs`` holds a_(m-i) at bit i - 1 and ``window`` s_(k-i) at bit
        # i - 1 for 0 < i < k, never s_0, which enters only through k*a_(m-k).
        # Bit k of ``traces`` is s_k, k < 2m - 1: O(m^2) bit operations.
        m = self.m
        low = self._mod_int ^ self._top_bit
        coeffs = int(format(low, f"0{m}b")[::-1], 2)
        traces = m & 1
        window = 0
        for k in range(1, 2 * m - 1):
            s = (window & coeffs).bit_count() & 1
            if k <= m:
                s ^= k & low >> (m - k) & 1
            window = (window << 1 | s) & (self._top_bit - 1)
            traces |= s << k
        return tuple(traces >> i & (self._top_bit - 1) for i in range(m))

    # -- bulk kernels -------------------------------------------------------

    def _mul_tables(self, consts) -> np.ndarray:
        """Four-Russians tables of y -> c*y for every constant c of a
        sequence (p = 2), shape (len(consts), ceil(m/8), 256): tables[j] is
        the table of consts[j], and one build serves them all.  Their rows
        c*t^k, k < m, come from one Python int holding every c in a 64-bit
        lane: a shift multiplies each lane by t, and the lanes' bit m,
        times the modulus, reduces them all at once."""
        lanes = len(consts)
        x = int.from_bytes(np.asarray(consts, dtype="<u8").tobytes(), "little")
        ones = int.from_bytes((b"\x01" + bytes(7)) * lanes, "little")  # bit 0 of every lane
        rows = []
        for _ in range(self.m):
            rows.append(x.to_bytes(8 * lanes, "little"))
            x <<= 1
            x ^= (x >> self.m & ones) * self._mod_int
        rows = np.frombuffer(b"".join(rows), dtype="<u8").reshape(self.m, lanes)
        return _xor_tables(rows.T, axis=-1)

    def mul_tensor(self) -> np.ndarray:
        """For odd p, the digits of t^(j+k) at [k, j] (shape (m, m, m)): the
        digit matrix of y -> c*y is digits(c) @ tensor (``mul_matrices``).
        Built on every call and not kept, so a count builds it once and
        passes it on."""
        k = np.arange(self.m)
        return self.bulk_decode(np.array(self._reduced))[k[:, None] + k]

    def mul_matrices(self, digits: np.ndarray, tensor: np.ndarray) -> np.ndarray:
        """For odd p, the m x m digit matrix over GF(p) of y -> c*y for each
        digit row of c (shape (..., m) -> (..., m, m)), from the field's
        ``mul_tensor()``: the digits of c*y are digits(y) @ matrix mod p."""
        m = self.m
        return (digits @ tensor.reshape(m, m * m)).reshape(digits.shape[:-1] + (m, m)) % self.p

    def power_tables(self, sums=(), run=range(0), points=()) -> tuple[np.ndarray, np.ndarray]:
        """(inv, values) for p = 2, both uint32: inv[y] = 1/y, with inv[0]
        = 0, and values[s, j] the XOR of g^(e*i mod n), n = order - 1, over
        the exponents e >= 0 of sums[s], at the j-th walked index i: those of
        the range ``run``, then those of ``points``.  Called with no
        arguments, just inv, 4 bytes per element.  One chunked walk of g
        fills both: its chunk [lo, lo + k) of k <= n // 2 holds g^k, a
        geometric block of ``_TABLE_CHUNK`` powers of g times g^lo, beside
        g^-k = g^(n - k), the powers of g^-1 times g^-lo (that block is
        the first one read backwards, times one constant; the chunk starts
        are geometric blocks of their own, and every constant is multiplied
        through one table build), so every power g^0..g^(n-1) passes once,
        and inv is scattered both ways.  As a chunk passes, the powers e*i mod n in it are XORed into
        values: over the run they step by e, strided slices of the chunk
        between wrap-arounds (``_xor_run``), and at the points they are
        found by a sorted search.  Orders above ``POWER_TABLE_MAX`` = 2^30
        raise TooLarge, so codes fit uint32 and indices int32; odd p raises
        ValueError.  Built on every call and not kept, so the caller owns
        and drops them; the trace-dual map M is left to the caller."""
        if self.order > POWER_TABLE_MAX:
            raise TooLarge(f"power tables capped at order {POWER_TABLE_MAX}")
        if self.p != 2:
            raise ValueError("power tables are implemented for p = 2 only")
        n = self.order - 1
        half = n // 2  # k <= half walked up, n - k >= half + 1 down
        chunk = min(_TABLE_CHUNK, half + 1)
        block = self.geometric_block(self.generator, chunk)
        leaps = [self.pow_el(r, chunk) for r in (self.generator, self._generator_inv)]
        # the starts g^lo and g^-lo, interleaved (tables 2t and 2t + 1 for
        # chunk t), then g^-(chunk - 1) = g^-chunk * g, for g^-j = g^-(chunk
        # - 1) * g^(chunk - 1 - j), j < chunk
        consts = self.geometric_block(leaps, -(-(half + 1) // chunk)).T.reshape(-1)
        starts = self._mul_tables([*consts, self.mul(leaps[1], self.generator)]).astype(np.uint32)
        blocks = np.array([block, _xor_gather(starts[-1], block[::-1])], dtype=np.uint32)
        points = np.asarray(points, dtype=np.int64)
        values = np.zeros((len(sums), len(run) + len(points)), dtype=np.uint32)
        on_run = []  # (row of values over the run, e) for 0 < e < n
        dests, targets = [np.zeros(0, dtype=np.int32)], [np.zeros(0, dtype=np.int32)]  # at the points
        for s, exponents in enumerate(sums):
            for e in exponents:
                e %= n
                if e == 0:  # x^0 = 1 at every x
                    values[s] ^= 1
                    continue
                on_run.append((values[s, : len(run)], e))
                dests.append(s * values.shape[1] + len(run) + np.arange(len(points), dtype=np.int32))
                targets.append((e * points % n).astype(np.int32))
        # the flat index into values of each power wanted at the points, by
        # power: each term's are a few ascending runs, which a stable sort merges
        targets = np.concatenate(targets)
        order = np.argsort(targets, kind="stable")
        dests, targets = np.concatenate(dests)[order], targets[order]
        flat = values.reshape(-1)
        inv = np.zeros(self.order, dtype=np.uint32)
        for t, lo in enumerate(range(0, half + 1, chunk)):
            k = min(chunk, half + 1 - lo)
            up = _xor_gather(starts[2 * t], blocks[0, :k])  # g^(lo + j)
            down = _xor_gather(starts[2 * t + 1], blocks[1, :k])  # g^-(lo + j)
            np.put(inv, up, down)  # np.put scatters faster than assigning through an index array
            np.put(inv, down, up)
            # powers lo.. and n - lo - k + 1.., up to n - lo; g^n = g^0 is already in up
            for window, t0 in ((up, lo), (down[::-1][: k - (lo == 0)], n - lo - k + 1)):
                for row, e in on_run:
                    _xor_run(row, window, t0, e, n, run.start)
                first, last = targets.searchsorted(np.array([t0, t0 + len(window)], dtype=targets.dtype))
                np.bitwise_xor.at(flat, dests[first:last], window[targets[first:last] - t0])
        return inv, values

    def bulk_decode(self, codes: np.ndarray) -> np.ndarray:
        """Base-p digits of each code (``gfpoly.decode`` padded to m), one
        int64 row per element."""
        powers = self.p ** np.arange(self.m, dtype=np.int64)
        return codes.astype(np.int64)[:, None] // powers % self.p

    def bulk_encode(self, digits: np.ndarray) -> np.ndarray:
        """Codes of digit rows with entries in [0, p): the inverse of
        ``bulk_decode``."""
        return digits @ (self.p ** np.arange(self.m, dtype=np.int64))

    def geometric_rows(self, ratio: int, length: int, tensor: np.ndarray) -> np.ndarray:
        """For odd p, the digit rows of ratio^k for k < length, shape
        (length, m): by repeated doubling, each step multiplying the filled
        prefix by the m x m digit matrix of ratio^filled (from the field's
        ``mul_tensor()``), which is squared after every step."""
        out = np.zeros((length, self.m), dtype=np.int64)
        out[:1, 0] = 1
        step_matrix = self.mul_matrices(self.bulk_decode(np.array([ratio])), tensor)[0]
        filled = 1
        while filled < length:  # step_matrix is that of ratio^filled
            step = min(filled, length - filled)
            out[filled : filled + step] = out[:step] @ step_matrix % self.p
            filled += step
            step_matrix = step_matrix @ step_matrix % self.p
        return out

    def geometric_block(self, ratio, length: int) -> np.ndarray:
        """[ratio^0, ratio^1, ..., ratio^(length-1)] as uint64 codes, or for
        a sequence of ratios one such row for each, shape (ratios, length);
        p = 2 only (``geometric_rows`` is the odd-p counterpart).  By
        doubling: step s multiplies the first 2^s powers of every ratio by
        its ratio^(2^s), all these constants coming from squaring chains
        (``_square``) and multiplied through one table build
        (``_mul_tables``), so a step is one gather for every ratio."""
        if self.p != 2:
            raise ValueError("geometric blocks of codes are implemented for p = 2 only")
        ratios = [int(r) for r in np.atleast_1d(ratio)]
        steps = max(length - 1, 0).bit_length()  # doublings up to length
        out = np.zeros((length, len(ratios)), dtype=np.uint64)  # [k, ratio], so a prefix is contiguous
        out[:1] = 1
        if steps:
            consts = []
            for r in ratios:  # r^(2^s) for s < steps
                consts.append(r)
                for _ in range(steps - 1):
                    consts.append(self._square(consts[-1]))
            tables = self._mul_tables(consts)
            flat, nbytes = tables.reshape(-1), tables.shape[1]
            # per byte b, where the table of each ratio's r^(2^s), s = 0, starts
            offsets = (np.arange(nbytes)[:, None] + np.arange(len(ratios)) * steps * nbytes) * 256
            filled = 1
            while filled < length:  # offsets point at the tables of r^filled
                step = min(filled, length - filled)
                code_bytes = _code_bytes(out[:step])
                new = out[filled : filled + step]  # indices in range: "clip" writes out= unbuffered
                np.take(flat, code_bytes[..., 0] + offsets[0], out=new, mode="clip")
                for b in range(1, nbytes):
                    new ^= np.take(flat, code_bytes[..., b] + offsets[b])
                filled += step
                offsets += nbytes * 256
        out = np.ascontiguousarray(out.T)
        return out if np.ndim(ratio) else out[0]

    # -- small-field log tables (odd p) -------------------------------------

    def small_log_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """(exps, logs) for fields of order at most ``LOG_TABLE_MAX`` (larger
        orders raise TooLarge), both int64: exps[i] = g^i for i < order - 1
        and logs its inverse permutation (logs[0] is unused), 16 bytes per
        element.  Built on every call and not kept on the (cached, shared)
        field."""
        if self.order > LOG_TABLE_MAX:
            raise TooLarge(f"log tables capped at order {LOG_TABLE_MAX}")
        if self.p == 2:
            exps = self.geometric_block(self.generator, self.order - 1).astype(np.int64)
        else:
            exps = self.bulk_encode(self.geometric_rows(self.generator, self.order - 1, self.mul_tensor()))
        logs = np.zeros(self.order, dtype=np.int64)
        logs[exps] = np.arange(self.order - 1)
        return exps, logs


@lru_cache(maxsize=None)
def _default_modulus(p: int, m: int) -> tuple[int, ...]:
    # Lexicographically-first monic irreducible: scan by encoded value of the
    # non-leading coefficients.
    for cand in gfpoly.monic_polys(m, p):
        if gfpoly.is_irreducible(cand, p):
            return cand
    raise AssertionError(f"no irreducible polynomial of degree {m} over GF({p})")


@lru_cache(maxsize=128)  # a field is rebuilt equal (same modulus and generator) after eviction
def make_field(p: int, m: int) -> FiniteField:
    """GF(p^m), cached (the 128 most recently used) and shared (fields are
    immutable).  A field is its (p, m): the modulus is always the default."""
    return FiniteField(p, m)


def char_sum(
    field: FiniteField,
    f: RationalMap,
    *,
    threads: int | None = None,
    table_max_m: int = TABLE_MAX_M,
) -> int:
    """Sum of (-1)^Tr(f(x)) over every x in GF(2^m) where the map f, over
    GF(2), is defined; a field of odd characteristic raises ValueError.

    Exact, and independent of how the enumeration is chunked.  Every field
    is within the enumeration bound (the constructor refuses m above
    ``DEFAULT_MAX_M``); maps whose denominator is not a monomial are also
    refused above ``table_max_m``, and threads below 1 on every route.
    """
    threads = resolve_threads(threads)
    if field.p != 2:
        raise ValueError("character sums are implemented for p = 2 only")
    exponents = f.laurent_exponents()
    if exponents is not None:
        n = field.order - 1
        return _zero_point_term(field, f) + _stream_range(field, exponents, 0, n, threads)
    if field.m > table_max_m:
        raise TooLarge(
            f"m = {field.m} exceeds the bound m <= {table_max_m} for maps whose "
            "denominator is not a monomial (table_max_m is an argument of the "
            "library's char_sum, not a command-line option)"
        )
    return _char_sum_table(field, f)


def _zero_point_term(field: FiniteField, f: RationalMap) -> int:
    if not f.den[0]:
        return 0  # x = 0 is a pole
    f0 = f.num[0] if f.num else 0
    return -1 if f0 and field.m % 2 else 1  # Tr(f(0)) = f(0) * m mod 2


def _xor_run(out: np.ndarray, window: np.ndarray, t0: int, e: int, n: int, a: int) -> None:
    """out[j] ^= window[(e*(a + j) mod n) - t0] for each j < len(out) whose
    power e*(a + j) mod n, 0 < e < n, lies in [t0, t0 + len(window)), with
    t0 + len(window) <= n.  Between wrap-arounds, w = e*i // n fixed, the
    powers step by e: each wrap's are a strided slice of the window, so no
    index array is built."""
    b, size = a + len(out), len(window)
    if b == a or size == 0:
        return
    for w in range(e * a // n, e * (b - 1) // n + 1):
        base = w * n + t0  # the i of this wrap with e*i in [base, base + size)
        lo, hi = max(a, -(-base // e)), min(b, -(-(base + size) // e))
        if lo < hi:
            out[lo - a : hi - a] ^= window[e * lo - base :: e][: hi - lo]


def _orbit_walk(m: int) -> tuple[range, np.ndarray]:
    """The orbit representatives of i -> 2i mod n, n = 2^m - 1, which
    rotates the m bits of i (every orbit but {0}, which is not walked):

    * R3, the range of indices whose top three bits are 100, 2^(m-3) of
      them.  An orbit with a cyclic 00 has a 1 before a run of zeros, so a
      rotation into R3: it meets R3 in c*p/m indices, p its size and c its
      cyclic 100 patterns (``_cyclic_triples``), one rotation per pattern;
    * the rest, the sorted indices whose top bits are 10 and whose bits
      hold no cyclic 00, F(m - 1) of them (Fibonacci): those of the other
      orbits, which meet this set in c*p/m indices, c the cyclic 10 pairs
      (``_cyclic_pairs``).  Each 0 there is followed by a 1, so for m >= 3
      their top bits are 101, outside R3.

    So the walk covers an eighth of the group plus F(m - 1) indices."""
    top = 1 << (m - 1)
    if m < 2:
        return range(top, top), np.zeros(0, dtype=np.int64)
    ones, zeros = np.zeros(0, dtype=np.int64), np.array([0b10])  # by their last bit
    for _ in range(m - 2):  # append a bit, never 0 after 0; bit 0 wraps to the top 1
        ones, zeros = np.concatenate([ones, zeros]) << 1 | 1, ones << 1
    return range(top, top + (top >> 2)), np.sort(np.concatenate([ones, zeros]))


def _cyclic_triples(i: np.ndarray, m: int) -> np.ndarray:
    """c3(i), the cyclic 100 patterns (bit j set, bits j-1 and j-2 clear)
    of each m-bit index i in R3 (``_orbit_walk``).  Bit m-1 is set there,
    so no wrapped pattern occurs, and bits 0 and 1 are masked out."""
    return np.bitwise_count(i & ~(i << 1) & ~(i << 2) & ((1 << m) - 4))


def _cyclic_pairs(i: np.ndarray, m: int) -> np.ndarray:
    """c2(i), the cyclic 10 pairs (bit j set, bit j-1 clear) of each m-bit
    index i whose top bits are 10.  Bit m-1 is set there, so the wrapped
    pair (bit 0 set, bit m-1 clear) never occurs, and bit 0 is masked out."""
    return np.bitwise_count(i & ~(i << 1) & ((1 << m) - 2))


def _orbit_classes(m: int, run: range, rest: np.ndarray):
    """The classes of the walked indices of ``_orbit_walk``, in walk order
    and in pieces of at most ``_TABLE_CHUNK``: c3(i) over R3, then m + 1 +
    c2(i) over the rest, so class k has weight m/(k mod (m + 1))."""
    for lo in range(run.start, run.stop, _TABLE_CHUNK):
        yield _cyclic_triples(np.arange(lo, min(lo + _TABLE_CHUNK, run.stop), dtype=np.int64), m)
    for lo in range(0, len(rest), _TABLE_CHUNK):
        yield m + 1 + _cyclic_pairs(rest[lo : lo + _TABLE_CHUNK], m)


def _orbit_total(m: int, by_class) -> int:
    """The sum over every orbit but {0} from the sign sums S_k of the walked
    indices by class (``_orbit_classes``): an orbit of size p whose indices
    have class k meets the walk in c*p/m of them, c = k mod (m + 1), so m
    * S_k is a multiple of c and the orbits add m * S_k / c.  A remainder
    raises RuntimeError, as a counting bug."""
    total = 0
    for k, s in enumerate(by_class):
        c = k % (m + 1)
        q, r = divmod(m * s, c) if c else (0, s)
        if r:
            raise RuntimeError(
                f"orbit sum over GF(2^{m}) with weight {m}/{c}, {m} * {s}, is not "
                f"a multiple of {c}; this indicates a counting bug"
            )
        total += q
    return total


def _char_sum_table(field: FiniteField, f: RationalMap) -> int:
    m = field.m
    run, rest = _orbit_walk(m)
    terms = [[e for e, c in enumerate(poly) if c] for poly in (f.num, f.den)]
    inv, (num_vals, den_vals) = field.power_tables(terms, run, rest)
    masks = _xor_tables(np.array(field._dual_masks, dtype=np.uint64)).astype(np.uint32)

    def signs(num, den):
        # (-1)^Tr(N/D), 0 at the poles: Tr(N/D) = parity(N & M(1/D)), and
        # D = 0 reads M(inv[0]) = 0
        odd = np.bitwise_count(num & _xor_gather(masks, np.take(inv, den))) & np.uint8(1)
        return (den != 0).astype(np.int8) - 2 * odd.astype(np.int8)

    # x = 0, and x = 1 = g^0, where N and D are their numbers of terms mod 2
    at_one = np.array([[len(t) & 1] for t in terms], dtype=np.uint32)
    total = _zero_point_term(field, f) + int(signs(*at_one)[0])
    # f(x^2) = f(x)^2 and Tr(y^2) = Tr(y), so the sign is constant on each
    # orbit i -> 2i mod n: per class, sign sums over the walked indices
    by_class = np.zeros(2 * (m + 1), dtype=np.int64)
    lo = 0
    for classes in _orbit_classes(m, run, rest):
        hi = lo + len(classes)
        # float64 sums of at most _TABLE_CHUNK = 2^15 terms +-1 are exact
        by_class += np.bincount(classes, signs(num_vals[lo:hi], den_vals[lo:hi]), 2 * (m + 1)).astype(np.int64)
        lo = hi
    return total + _orbit_total(m, by_class.tolist())


def _block_length(m: int) -> int:
    """Indices per block of the packed kernel: 2^ceil(m/2), within
    [64, 4096], so small fields do not pay for long tables."""
    return 1 << min(12, max(6, (m + 1) // 2))


def _block_powers(field: FiniteField, exponents: tuple[int, ...], length: int, blocks: int):
    """The constants of the packed kernel for ``blocks`` blocks of
    ``length`` indices in chunks of ``_STARTS`` blocks, per exponent e:
    (bases, powers, steps, leaps), bases[e] = g^e, powers[e][j] =
    g^(e*j), j < length, steps[e][s] = G_e^s, s < the blocks of a chunk,
    G_e = g^(e*length), and leaps[e] = G_e^_STARTS (none for one chunk);
    the powers and steps are one geometric block of the g^e and G_e."""
    n = field.order - 1
    per_chunk = min(_STARTS, blocks)
    bases = [field.pow_el(field.generator if e >= 0 else field._generator_inv, abs(e) % n) for e in exponents]
    giants = [field.pow_el(base, length) for base in bases] if blocks > 1 else []
    leaps = [field.pow_el(giant, per_chunk) for giant in giants] if blocks > per_chunk else []
    rows = field.geometric_block(bases + giants, length)
    k = len(bases)
    steps = rows[k:, :per_chunk] if giants else rows[:, :1]
    return bases, rows[:k], steps, leaps


def _mul_rows(tables: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Every code of row e of ``rows`` times the constant of tables[e]
    (``FiniteField._mul_tables``)."""
    return np.array([_xor_gather(t, row) for t, row in zip(tables, rows)])


def _trace_rows(field: FiniteField, codes: np.ndarray) -> np.ndarray:
    """Bit k of M(y) = Tr(t^k * y) = parity(y & M(t^k)) for each code y of
    each row of ``codes``, over the row, packed 8 to a byte little-endian:
    shape (rows, m, ceil(len / 8)), uint8."""
    masks = np.array(field._dual_masks, dtype=np.uint64)[:, None]
    odd = np.bitwise_count(codes[:, None, :] & masks) & np.uint8(1)
    return np.packbits(odd, axis=-1, bitorder="little")


def _stream_range(field: FiniteField, exponents: tuple[int, ...], lo: int, hi: int, threads: int = 1) -> int:
    """Sum of (-1)^Tr(sum of x^e) over x = g^i for lo <= i < hi, in up to
    ``threads`` threads, no more than the CPUs this process may run on."""
    if not exponents or hi == lo:
        return hi - lo  # f = 0, or nothing to sum
    length = _block_length(field.m)
    blocks = -(-(hi - lo) // length)
    # x = g^(lo + t*length + j) gives x^e = c_t * T_e[j], T_e[j] = g^(e*j)
    bases, powers, steps, leaps = _block_powers(field, exponents, length, blocks)
    # Tr(c_t * T_e[j]) = parity(c_t & M(T_e[j])): bit k of M(T_e[j]), over
    # j, packed 64 to a word, is row k of exponent e's tables
    tables = _xor_tables(_trace_rows(field, powers).view(np.uint64), axis=1)
    leap_tables = field._mul_tables(leaps) if leaps else None
    per_chunk, nbytes = steps.shape[1], tables.shape[1]
    chunks = -(-blocks // per_chunk)
    tail = np.packbits(np.arange(length) < hi - lo - (blocks - 1) * length, bitorder="little").view(np.uint64)
    workers = min(threads, resolve_threads(None), chunks)

    def count(worker: int) -> int:
        # The first chunk's starts are the steps times g^(e*i), i its first
        # index, later ones the ones before times the leaps.  A block's
        # trace bits, the XOR over e and b of tables[e][b][byte b of c_t],
        # are gathered into the worker's two buffers (mode="clip" lets take
        # write out= unbuffered).  Threads wait for the GIL after each numpy
        # call, so a chunk's start bytes become intp rows once, and the
        # gathers call ndarray.take, not the np.take wrapper.
        run = range(chunks * worker // workers, chunks * (worker + 1) // workers)
        first = [field.pow_el(base, lo + run.start * per_chunk * length) for base in bases]
        starts = _mul_rows(field._mul_tables(first), steps) if any(c != 1 for c in first) else steps
        acc_buffer, part_buffer = np.empty((2, min(_BATCH, per_chunk), tables.shape[-1]), dtype=np.uint64)
        ones = 0
        for c in run:
            if c > run.start:
                starts = _mul_rows(leap_tables, starts)
            cnt = min(per_chunk, blocks - c * per_chunk)
            indices = _code_bytes(starts[:, :cnt])[..., :nbytes].transpose(0, 2, 1).astype(np.intp, order="C")
            for s in range(0, cnt, _BATCH):
                acc, part = acc_buffer[: cnt - s], part_buffer[: cnt - s]
                for e, (table, rows) in enumerate(zip(tables, indices[..., s : s + _BATCH])):
                    for b, (table_b, row) in enumerate(zip(table, rows)):  # the first gather sets acc
                        table_b.take(row, axis=0, out=part if e or b else acc, mode="clip")
                        if e or b:
                            acc ^= part
                if c * per_chunk + s + len(acc) == blocks:  # the last block stops at hi
                    acc[-1] &= tail
                ones += int(np.bitwise_count(acc).sum())
        return ones

    if workers == 1:
        return hi - lo - 2 * count(0)
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(workers) as pool:
        return hi - lo - 2 * sum(pool.map(count, range(workers)))
