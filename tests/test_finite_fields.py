import concurrent.futures
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from lpdiv import finite_fields, gfpoly
from lpdiv.curves import OddHyperellipticCurve, count_points, dk_curve, dk_map
from lpdiv.finite_fields import (
    NoPrime,
    RationalMap,
    TooLarge,
    char_sum,
    factor_int,
    make_field,
    resolve_threads,
)

import oracles


def trace(field, y: int) -> int:
    """Tr(y) over GF(2) through the library's masks: Tr(1*y) = parity(y & M(1))."""
    return (y & oracles.trace_dual(field, 1)).bit_count() & 1


X3_PLUS_INV = RationalMap((1, 0, 0, 0, 1), (0, 1))  # x^3 + 1/x
X5_PLUS_INV = RationalMap((1, 0, 0, 0, 0, 0, 1), (0, 1))  # x^5 + 1/x
D6_MAP = dk_map(6)  # x^65 + 1/x: exponent 65 >= 2^m - 1 for m <= 6
QUARTER_MAPS = ((65, -1), (7, -3), (1, -9))  # D_6, x^7 + x^-3 and x + x^-9, as exponents


def _mul_power(field, a: int, e: int) -> int:
    """a^e by square-and-multiply through ``mul`` alone, e >= 0."""
    r = 1
    while e:
        if e & 1:
            r = field.mul(r, a)
        a = field.mul(a, a)
        e >>= 1
    return r


def _running_products(field, a: int, count: int, start: int = 1) -> list[int]:
    """[start * a^k for k < count], one ``mul`` per step."""
    out = []
    for _ in range(count):
        out.append(start)
        start = field.mul(start, a)
    return out


def _fibonacci(k: int) -> int:
    """F(k), F(0) = 0 and F(1) = 1."""
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a


def _laurent(terms) -> RationalMap:
    """Sum of x^e over the exponents in terms, as num / x^j."""
    j = max(0, -min(terms))
    num = [0] * (max(terms) + j + 1)
    for e in terms:
        num[e + j] ^= 1
    return RationalMap(num, [0] * j + [1])


class TestMakeField:
    def test_prime_field(self):
        f = make_field(2, 1)
        assert f.order == 2
        assert len(f.modulus) == 2 and f.modulus[-1] == 1

    @pytest.mark.parametrize("p,m,expected", [(2, 4, (1, 1, 0, 0, 1)), (3, 2, (1, 0, 1))])
    def test_default_modulus_is_first_irreducible(self, p, m, expected):
        assert oracles.first_irreducible(p, m) == expected
        assert make_field(p, m).modulus == expected

    @pytest.mark.parametrize("p,m", [(2, 3), (2, 8), (3, 3), (5, 2), (7, 1)])
    def test_default_modulus_matches_bruteforce(self, p, m):
        assert make_field(p, m).modulus == oracles.first_irreducible(p, m)

    # non-leading part of the default modulus (encoded) and the generator,
    # pinned where the brute-force oracle is too slow to rebuild them
    DEFAULT_MODULI_2 = {
        17: 9, 18: 9, 19: 39, 20: 9, 21: 5, 22: 3, 23: 33, 24: 27, 25: 9,
        26: 27, 27: 39, 28: 3, 29: 5, 30: 3, 31: 9, 32: 141, 33: 75, 34: 27,
    }
    GENERATORS_2 = {
        17: 2, 18: 10, 19: 2, 20: 2, 21: 2, 22: 2, 23: 2, 24: 2, 25: 2,
        26: 3, 27: 2, 28: 7, 29: 2, 30: 19, 31: 2, 32: 3, 33: 3, 34: 3,
    }

    @pytest.mark.parametrize("m", range(17, 35))
    def test_default_modulus_and_generator_pinned(self, m):
        f = make_field(2, m)
        assert f.modulus == gfpoly.decode(self.DEFAULT_MODULI_2[m] | 1 << m, 2)
        assert f.generator == self.GENERATORS_2[m]

    @pytest.mark.parametrize("m", range(1, finite_fields.DEFAULT_MAX_M + 1))
    def test_field_table_equals_the_search(self, m):
        # the search that builds odd-p fields, run at p = 2
        f = finite_fields.FiniteField(2, m)
        assert f.modulus == finite_fields._default_modulus(2, m)
        assert f.generator == f._find_generator()
        assert f.mul(f.generator, f._generator_inv) == 1

    def test_field_table_covers_exactly_the_bound(self):
        assert sorted(finite_fields._GF2_FIELDS) == list(range(1, finite_fields.DEFAULT_MAX_M + 1))

    def test_p2_build_runs_no_search(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("searched or factored")

        monkeypatch.setattr(finite_fields, "_default_modulus", refuse)
        monkeypatch.setattr(finite_fields, "factor_int", refuse)
        monkeypatch.setattr(finite_fields.FiniteField, "_find_generator", refuse)
        monkeypatch.setattr(gfpoly, "is_irreducible", refuse)
        monkeypatch.setattr(gfpoly, "factor_int", refuse)
        for m in range(1, finite_fields.DEFAULT_MAX_M + 1):
            f = finite_fields.FiniteField(2, m)  # not the cached make_field
            assert (f.order, len(f.modulus)) == (2**m, m + 1)

    @pytest.mark.parametrize("p,max_deg", [(2, 12), (3, 6), (5, 4)])
    def test_is_irreducible_matches_trial_division(self, p, max_deg):
        for deg in range(max_deg + 1):
            for f in gfpoly.monic_polys(deg, p):
                assert gfpoly.is_irreducible(f, p) == oracles.is_irreducible_bruteforce(f, p), f

    def test_composite_characteristic_rejected(self):
        with pytest.raises(NoPrime):
            make_field(4, 2)

    @pytest.mark.parametrize("p", [2, 3])
    def test_extension_degree_below_one_rejected(self, p):
        with pytest.raises(ValueError, match=r"^extension degree must be >= 1$"):
            make_field(p, 0)

    def test_reducible_modulus_rejected(self):
        # no root in GF(2), so the root test passes it and Rabin's test must not
        product = gfpoly.mul(make_field(2, 11).modulus, make_field(2, 13).modulus, 2)
        assert not gfpoly.is_irreducible(product, 2)

    @pytest.mark.parametrize("p,m", [(2, 1), (2, 4), (2, 8), (2, 11), (3, 2), (3, 4), (5, 3)])
    def test_generator_has_full_order(self, p, m):
        f = make_field(p, m)
        n = f.order - 1
        if n == 1:
            assert f.generator == 1
            return
        assert f.pow_el(f.generator, n) == 1
        for r in factor_int(n):
            assert f.pow_el(f.generator, n // r) != 1

    def test_factor_int_and_primality_match_naive(self):
        for n in range(-2, 2000):
            naive_prime = n >= 2 and all(n % d for d in range(2, n))
            fac = factor_int(n)
            assert (fac == {n: 1}) == naive_prime, n
            if n < 2:
                assert fac == {}
                continue
            prod = 1
            for r, e in fac.items():
                assert all(r % d for d in range(2, r)), (n, r)
                prod *= r**e
            assert prod == n

    @pytest.mark.parametrize("p", [-2, 0, 1, 9])
    def test_non_prime_characteristic_rejected(self, p):
        with pytest.raises(NoPrime):
            finite_fields.FiniteField(p, 1)

    def test_evicted_field_is_rebuilt_equal(self):
        maxsize = make_field.cache_info().maxsize
        assert maxsize is not None and maxsize >= 64
        first = make_field(3, 5)
        primes = [q for q in range(5, 10_000) if factor_int(q) == {q: 1}][:maxsize]
        assert len(primes) == maxsize
        for q in primes:
            make_field(q, 1)
        again = make_field(3, 5)
        assert again is not first
        assert (again.modulus, again.generator) == (first.modulus, first.generator)

    def test_field_json_roundtrip(self):
        f = make_field(2, 4)
        assert f.modulus == (1, 1, 0, 0, 1)
        assert make_field(2, 4) is f  # cached instances are shared


class TestFieldArithmetic:
    @pytest.mark.parametrize("p,m", [(2, 4), (3, 2), (3, 3), (5, 2)])
    def test_inverse_exhaustive(self, p, m):
        # the oracle's inverses, on its own arithmetic, are inverses for mul
        f = make_field(p, m)
        o = oracles.tuple_field(p, m, f.modulus)
        for x in range(1, f.order):
            assert f.mul(x, o.code(o.inv(o.element(x)))) == 1

    @pytest.mark.parametrize("p,m", [(2, 5), (3, 3), (5, 2)])
    def test_ring_axioms_sampled(self, p, m):
        f = make_field(p, m)
        o = oracles.tuple_field(p, m, f.modulus)

        def add(a, b):
            return o.code(o.add(o.element(a), o.element(b)))

        rng = random.Random(7)
        for _ in range(100):
            a, b, c = (rng.randrange(f.order) for _ in range(3))
            assert f.mul(a, b) == f.mul(b, a) == o.code(o.mul(o.element(a), o.element(b)))
            assert f.mul(a, f.mul(b, c)) == f.mul(f.mul(a, b), c)
            assert f.mul(a, add(b, c)) == add(f.mul(a, b), f.mul(a, c))

    @pytest.mark.parametrize("p,m", [(3, 2), (5, 2), (3, 3)])
    def test_odd_add_neg_digitwise_exhaustive(self, p, m):
        # Sums and negatives of codes are digitwise mod p on the arrays of
        # bulk_decode, as the odd-p counting walk adds its terms.
        f = make_field(p, m)
        o = oracles.tuple_field(p, m, f.modulus)
        digits = f.bulk_decode(np.arange(f.order))
        for a in range(f.order):
            assert f.bulk_encode(-digits[a] % p) == o.code(o.mul((p - 1,), o.element(a)))
            sums = f.bulk_encode((digits[a] + digits) % p).tolist()
            assert sums == [o.code(o.add(o.element(a), o.element(b))) for b in range(f.order)]

    @pytest.mark.parametrize("p,m", [(3, 4), (5, 2), (7, 1), (3, 9), (5, 4), (3, 5), (5, 3)])
    def test_small_log_tables_are_inverse(self, p, m):
        f = make_field(p, m)
        exps, logs = f.small_log_tables()
        assert (exps.dtype, logs.dtype) == (np.int64, np.int64)
        if f.order <= oracles.TupleField.TABLE_MAX:
            o = oracles.tuple_field(p, m, f.modulus)
            g = o.element(f.generator)
            assert exps.tolist() == [o.code(o.power(g, i)) for i in range(f.order - 1)]
        assert sorted(exps) == list(range(1, f.order))
        assert all(logs[x] == i for i, x in enumerate(exps))
        assert all(f.mul(exps[i], f.generator) == exps[i + 1] for i in range(f.order - 2))

    @pytest.mark.parametrize("p,m", [(3, 1), (3, 3), (5, 2), (7, 2)])
    def test_mul_matrices_exhaustive(self, p, m):
        f = make_field(p, m)
        digits = f.bulk_decode(np.arange(f.order))
        mats = f.mul_matrices(digits, f.mul_tensor())
        for c in range(f.order):
            want = [f.mul(c, y) for y in range(f.order)]
            assert f.bulk_encode(digits @ mats[c] % p).tolist() == want

    @pytest.mark.parametrize("p,m", [(3, 1), (3, 2), (3, 3), (3, 4), (5, 2), (7, 2)])
    @pytest.mark.parametrize("length", [0, 1, 2, 17, 100])
    def test_geometric_rows_are_powers(self, p, m, length):
        # the doubling against pow_el for every k; 100 > order for the
        # smallest fields, so the rows also run past the group's order
        f = make_field(p, m)
        for ratio in (0, 1, f.generator):
            rows = f.geometric_rows(ratio, length, f.mul_tensor())
            assert rows.shape == (length, m) and rows.dtype == np.int64
            assert ((0 <= rows) & (rows < p)).all()
            assert f.bulk_encode(rows).tolist() == [f.pow_el(ratio, k) for k in range(length)]

    @pytest.mark.parametrize("m", range(1, finite_fields.DEFAULT_MAX_M + 1))
    def test_square_and_mul_tables_match_mul(self, m):
        field = make_field(2, m)
        rng = random.Random(m)
        ys = [0, 1, field.generator, field.order - 1] + [rng.randrange(field.order) for _ in range(60)]
        assert [field._square(y) for y in ys] == [field.mul(y, y) for y in ys]
        consts = [0, 1, field.generator, field.order - 1] + [rng.randrange(field.order) for _ in range(5)]
        tables = field._mul_tables(consts)
        assert tables.shape == (len(consts), (m + 7) // 8, 256)
        codes = np.array(ys, dtype=np.uint64)
        for c, table in zip(consts, tables):
            assert finite_fields._xor_gather(table, codes).tolist() == [field.mul(c, y) for y in ys]

    @pytest.mark.parametrize("p,m", [(2, 1), (2, 5), (2, 9), (2, 17), (2, 34), (3, 3), (5, 2)])
    @pytest.mark.parametrize("length", [0, 1, 2, 3, 64, 100])
    def test_geometric_block_of_several_ratios(self, p, m, length):
        # one row per ratio, each equal to its running products and to the
        # block of that ratio alone; 0 and 1 among the ratios.  Odd p has
        # digit rows (``geometric_rows``), no geometric block of codes.
        field = make_field(p, m)
        rng = random.Random(p * 100 + m)
        ratios = [0, 1, field.generator] + [rng.randrange(field.order) for _ in range(2)]
        if p != 2:
            with pytest.raises(ValueError, match="p = 2 only"):
                field.geometric_block(ratios, length)
            return
        rows = field.geometric_block(ratios, length)
        assert rows.shape == (len(ratios), length) and rows.dtype == np.uint64
        for r, row in zip(ratios, rows):
            assert row.tolist() == _running_products(field, r, length)
            assert field.geometric_block(r, length).tolist() == row.tolist()
        # from a start of each row, with squaring chains one term longer
        # than the doublings, as the packed kernel passes them
        starts = [rng.randrange(field.order) for _ in ratios]
        chains = [field._squares(r, max(length - 1, 0).bit_length() + 1) for r in ratios]
        rows = field.geometric_block(ratios, length, chains=chains, start=starts)
        for r, start, row in zip(ratios, starts, rows):
            assert row.tolist() == _running_products(field, r, length, start)

    def test_odd_count_builds_one_tensor(self, monkeypatch):
        # the digit tensor of y -> c*y is built once per count and shared by
        # the powers and both walks, not rebuilt per digit matrix
        built = []
        mul_tensor = finite_fields.FiniteField.mul_tensor

        def counted(self):
            built.append(1)
            return mul_tensor(self)

        monkeypatch.setattr(finite_fields.FiniteField, "mul_tensor", counted)
        curve = OddHyperellipticCurve(5, (0, 1), (2, 1, 0, 3, 0, 1))
        for m in (1, 2, 3):
            built.clear()
            assert count_points(curve, m) == oracles.naive_count_hyper(curve, m)
            assert len(built) == 1

    def test_small_log_tables_capped(self, monkeypatch):
        monkeypatch.setattr(finite_fields, "LOG_TABLE_MAX", 8)
        with pytest.raises(TooLarge):
            make_field(3, 2).small_log_tables()
        assert len(make_field(2, 3).small_log_tables()[1]) == 8


class TestTrace:
    def test_prime_field_identity(self):
        f = make_field(2, 1)
        assert trace(f, 1) == 1
        assert trace(f, 0) == 0

    def test_gf4_values(self):
        f = make_field(2, 2)
        w = f.generator
        assert trace(f, w) == 1  # w + w^2 = 1
        assert trace(f, 1) == 0  # 1 + 1 = 0

    @pytest.mark.parametrize("m", range(1, 13))
    def test_mask_trace_equals_definition_exhaustive(self, m):
        f = make_field(2, m)
        for x in range(f.order):
            assert trace(f, x) == oracles.trace_by_definition(f, x)

    @pytest.mark.parametrize("m", range(13, 35))
    def test_masks_equal_definition_sampled(self, m):
        f = make_field(2, m)
        rng = random.Random(m)
        for _ in range(200):
            c, y = rng.randrange(f.order), rng.randrange(f.order)
            assert trace(f, y) == oracles.trace_by_definition(f, y)
            tr = oracles.trace_by_definition(f, f.mul(c, y))
            assert tr == (y & oracles.trace_dual(f, c)).bit_count() & 1

    @pytest.mark.parametrize("m", range(1, 9))
    def test_trace_dual_mask_exhaustive(self, m):
        f = make_field(2, m)
        for c in range(f.order):
            mask = oracles.trace_dual(f, c)
            for y in range(f.order):
                assert trace(f, f.mul(c, y)) == (y & mask).bit_count() & 1

    @pytest.mark.parametrize("m", range(1, 11))
    def test_trace_rows_equal_trace_dual(self, m):
        # bit k of M(y) for every code y, in two rows (the field's codes and
        # the same reversed), against ``oracles.trace_dual`` one element at a time
        f = make_field(2, m)
        codes = np.arange(f.order, dtype=np.uint64)
        codes = np.stack([codes, codes[::-1]])
        rows = finite_fields._trace_rows(f, codes)
        assert rows.shape == (2, m, -(-f.order // 8))
        bits = np.unpackbits(rows, axis=-1, count=f.order, bitorder="little")
        for row, row_codes in zip(bits, codes.tolist()):
            assert row.T.tolist() == [[oracles.trace_dual(f, c) >> k & 1 for k in range(m)] for c in row_codes]

    @pytest.mark.parametrize("p,m", [(2, 6), (2, 9), (3, 3), (5, 2)])
    def test_linearity_and_frobenius(self, p, m):
        # The oracle takes Tr linearly from its values on a basis; the full
        # definition agrees on sums, and Frobenius (the library's pow_el)
        # leaves it unchanged.
        f = make_field(p, m)
        o = oracles.tuple_field(p, m, f.modulus)
        rng = random.Random(11)
        for _ in range(200):
            x, y = rng.randrange(f.order), rng.randrange(f.order)
            s = o.add(o.element(x), o.element(y))
            tr_x, tr_y = o.trace(o.element(x)), o.trace(o.element(y))
            assert o.frobenius_trace(s) == o.trace(s) == (tr_x + tr_y) % p
            assert oracles.trace_by_definition(f, f.pow_el(x, p)) == tr_x


class TestEvalRationalMap:
    # Maps are evaluated point by point only in the oracles.
    def test_pole_at_zero(self):
        assert oracles.eval_map(oracles.tuple_field(2, 1), X3_PLUS_INV, ()) is None

    def test_gf2_value(self):
        assert oracles.eval_map(oracles.tuple_field(2, 1), X3_PLUS_INV, (1,)) == ()  # 1 + 1

    def test_gf4_value(self):
        f = make_field(2, 2)
        o = oracles.tuple_field(2, 2, f.modulus)
        w = f.generator
        expected = 1 ^ f.mul(w, w)  # w^3 = 1 and w^(-1) = w^2
        assert o.code(oracles.eval_map(o, X3_PLUS_INV, o.element(w))) == expected


class TestRationalMap:
    def test_common_factor_removed(self):
        f = RationalMap((0, 1, 1), (0, 1, 1, 1))  # x(x+1) / x(x^2+x+1)
        assert f.num == (1, 1)
        assert f.den == (1, 1, 1)

    def test_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            RationalMap((1,), ())

    def test_laurent_exponents(self):
        assert X3_PLUS_INV.laurent_exponents() == (-1, 3)
        assert RationalMap((1, 1), (1, 1, 1)).laurent_exponents() is None


class TestCharSum:
    def test_hand_values(self):
        assert char_sum(make_field(2, 1), X3_PLUS_INV) == 1
        assert char_sum(make_field(2, 2), X3_PLUS_INV) == -1
        assert char_sum(make_field(2, 1), X5_PLUS_INV) == 1

    @pytest.mark.parametrize("m", range(1, 13))
    def test_kernel_equals_naive_exhaustive(self, m):
        field = make_field(2, m)
        for f in (
            X3_PLUS_INV,
            RationalMap((0, 0, 0, 1)),  # the polynomial x^3
            RationalMap((1,), (1, 1)),  # 1/(x+1)
            RationalMap((1, 0, 1), (0, 1, 1)),  # (1+x^2)/(x+x^2) reduces
        ):
            assert char_sum(field, f) == oracles.naive_char_sum(m, f)

    @pytest.mark.parametrize("m", range(1, 13))
    def test_laurent_kernel_equals_naive_exhaustive(self, m):
        field = make_field(2, m)
        maps = [
            _laurent([3, -1, 0]),  # constant term
            _laurent([-3]),  # a single negative term
            _laurent([1]),  # a single term
            _laurent([5, 2, -2, -7]),
            RationalMap(()),  # f = 0
        ]
        if m <= 6:
            maps.append(D6_MAP)
        for f in maps:
            assert f.laurent_exponents() is not None
            assert char_sum(field, f) == oracles.naive_char_sum(m, f)

    @pytest.mark.parametrize("m", [8, 11, 12, *range(13, 19)])
    def test_laurent_kernel_equals_table_kernel(self, m):
        field = make_field(2, m)
        for f in (D6_MAP, X3_PLUS_INV, X5_PLUS_INV, _laurent([7, -3, 0])):
            want = finite_fields._char_sum_table(field, f)
            for threads in (1, 2, 3):
                assert char_sum(field, f, threads=threads) == want, (f, threads)

    @pytest.mark.parametrize(
        "batch,chunk",
        [(finite_fields._BATCH, finite_fields._STARTS), (3, 5)],
        ids=["default", "small"],
    )
    def test_range_partition_is_deterministic(self, monkeypatch, batch, chunk):
        # (3, 5): batches and chunks of blocks that do not divide the 64
        # blocks of the whole range, nor each other.
        monkeypatch.setattr(finite_fields, "_BATCH", batch)
        monkeypatch.setattr(finite_fields, "_STARTS", chunk)
        field = make_field(2, 12)
        n = field.order - 1
        exps = D6_MAP.laurent_exponents()

        def run(bounds):
            return sum(
                finite_fields._stream_range(field, exps, lo, hi)
                for lo, hi in zip(bounds, bounds[1:])
            )

        whole = run([0, n])
        assert whole == char_sum(field, D6_MAP)  # x = 0 is a pole
        for bounds in ([0, 1, n], [0, 777, 2048, 2049, n], [0, 99, 201, 3001, n - 1, n]):
            assert run(bounds) == whole

    @pytest.mark.parametrize("m", range(1, finite_fields.DEFAULT_MAX_M + 1))
    def test_block_starts_fit_one_block(self, m):
        # the starts of a chunk's blocks come from the geometric block of a
        # block's powers, so a chunk has at most one block's length of
        # blocks; the quarter walk's 2^(m-2) indices, m >= 8, are whole
        # blocks of its length
        length = finite_fields._block_length(m)
        blocks = -(-(2**m - 1) // length)
        assert min(finite_fields._STARTS, blocks) <= length
        if m >= 8:
            length = finite_fields._block_length(m - 2)
            assert 2 ** (m - 2) % length == 0
            assert min(finite_fields._STARTS, 2 ** (m - 2) // length) <= length

    @pytest.mark.parametrize("m", range(1, finite_fields.DEFAULT_MAX_M + 1))
    def test_pow_el_of_a_power_of_two_squares_only(self, monkeypatch, m):
        # y^(2^a), as G_e = (g^e)^L and the leaps G_e^_STARTS are raised,
        # against a chain of products, with no call of ``mul`` in pow_el
        field = make_field(2, m)
        rng = random.Random(m)
        ys = [0, 1, field.generator] + [rng.randrange(field.order) for _ in range(20)]
        for a in (0, 1, finite_fields._block_length(m).bit_length() - 1, 12):
            want = []
            for y in ys:
                for _ in range(a):
                    y = field.mul(y, y)
                want.append(y)
            with monkeypatch.context() as patch:
                patch.setattr(finite_fields.FiniteField, "mul", None)
                assert [field.pow_el(y, 1 << a) for y in ys] == want, a

    @staticmethod
    def _exponent_sets(n: int):
        # 1, 2 and 3 exponents at once: negative, at least n, = 0 mod n
        return ((-1,), (n + 5, -3), (65, 0, -n - 2), (n, -2 * n, 7))

    @staticmethod
    def _see_cpus(monkeypatch, cpus: int):
        # the CPUs this process may run on, as the packed kernel sees them
        monkeypatch.setattr(finite_fields.os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)

    @pytest.mark.parametrize("m", range(1, finite_fields.DEFAULT_MAX_M + 1))
    def test_block_powers_equal_running_products(self, monkeypatch, m):
        # the bases g^e, the powers g^(e*(lo + j)), j < L, the steps G_e^s,
        # s < 3, G_e = g^(e*L), and the leap G_e^3 of the packed kernel
        # against running products through ``mul``, over 7 blocks in chunks
        # of 3, from lo = 0, a random lo and the quarter walk's 2^(m-1)
        monkeypatch.setattr(finite_fields, "_STARTS", 3)
        field = make_field(2, m)
        n, length = field.order - 1, finite_fields._block_length(m)
        rng = random.Random(m)
        for exponents, lo in zip(self._exponent_sets(n), (0, rng.randrange(n), 2 ** (m - 1), 0)):
            bases, powers, steps, leaps = finite_fields._block_powers(field, exponents, length, 7, lo)
            k = len(exponents)
            assert powers.shape == (k, length) and steps.shape == (k, 3)
            assert len(bases) == len(leaps) == k
            for e, b, row, row_steps, leap in zip(exponents, bases, powers, steps, leaps):
                base = _mul_power(field, field.generator, e % n)  # g^-k = g^(n - k)
                first = _mul_power(field, base, lo)
                assert b == base and row.tolist() == _running_products(field, base, length, first), (m, e, lo)
                giant_powers = _running_products(field, _mul_power(field, base, length), 4)
                assert row_steps.tolist() == giant_powers[:3] and leap == giant_powers[3], (m, e)
            # one block: no step but the first, no leap
            _, _, steps, leaps = finite_fields._block_powers(field, exponents, length, 1, lo)
            assert steps.tolist() == [[1]] * k and leaps == []

    @pytest.mark.parametrize("m", range(1, finite_fields.DEFAULT_MAX_M + 1))
    def test_stream_range_with_partial_last_block_equals_the_definition(self, monkeypatch, m):
        # a range from lo > 0 over two whole blocks and a partial third
        # (the rest of the group where it is shorter), batches of one block
        # and chunks of two, against signs from running products through
        # ``mul`` and the trace mask of 1
        monkeypatch.setattr(finite_fields, "_STARTS", 2)
        monkeypatch.setattr(finite_fields, "_BATCH", 1)
        field = make_field(2, m)
        n, length = field.order - 1, finite_fields._block_length(m)
        rng = random.Random(-m)
        lo = rng.randrange(1, n) if n > 1 else 0
        hi = min(n, lo + 2 * length + rng.randrange(1, length))
        for exponents in self._exponent_sets(n):
            values = [0] * (hi - lo)
            for e in exponents:
                base = _mul_power(field, field.generator, e % n)
                for k, y in enumerate(_running_products(field, base, hi - lo, _mul_power(field, base, lo))):
                    values[k] ^= y
            want = sum(1 - 2 * trace(field, y) for y in values)
            assert finite_fields._stream_range(field, exponents, lo, hi) == want, (m, exponents)

    @staticmethod
    def _walk(walk: str, field, exponents, threads: int = 1) -> int:
        # the full walk over every index, or the quarter walk, called
        # directly rather than through the route of char_sum
        if walk == "full":
            return finite_fields._stream_range(field, exponents, 0, field.order - 1, threads)
        return finite_fields._quarter_walk(field, exponents, threads)

    @pytest.mark.parametrize("m", [6, 16, 24])
    def test_packed_count_set_up_budget(self, monkeypatch, m):
        # A count of D_6 (two exponents) builds two tables whatever the
        # block length L (64, 256 and 4096 here): one of every doubling
        # constant, one of the bit rows (a parity per code and mask).  Its
        # scalar products raise the bases to their exponents; squarings do
        # not go through ``mul``, and no doubling step builds a table.
        self._assert_set_up_budget(monkeypatch, "full", m)

    @pytest.mark.parametrize("m", [8, 16, 24])
    def test_quarter_walk_set_up_budget(self, monkeypatch, m):
        # The same budget with L = 64, 64 and 2048: the quarter walk's first
        # start g^(e*2^(m-1)) is the first term of its powers, not a third
        # table.
        self._assert_set_up_budget(monkeypatch, "quarter", m)

    def _assert_set_up_budget(self, monkeypatch, walk, m):
        field = make_field(2, m)
        exponents = D6_MAP.laurent_exponents()
        want = self._walk(walk, field, exponents)
        builds, products = [], []
        xor_tables, mul = finite_fields._xor_tables, finite_fields.FiniteField.mul

        def counted_tables(*args, **kwargs):
            builds.append(1)
            return xor_tables(*args, **kwargs)

        def counted_mul(self, a, b):
            products.append(1)
            return mul(self, a, b)

        monkeypatch.setattr(finite_fields, "_xor_tables", counted_tables)
        monkeypatch.setattr(finite_fields.FiniteField, "mul", counted_mul)
        assert self._walk(walk, field, exponents) == want
        assert len(builds) == 2
        assert len(products) <= 4

    @pytest.mark.parametrize("walk,squares", [("full", 52), ("quarter", 72)])
    def test_one_squaring_chain_per_exponent(self, monkeypatch, walk, squares):
        # A D_6 count at m = 24: g^65 takes 6 squarings in pow_el.  The full
        # walk (L = 2^12, one chunk) squares each g^e 12 times, for its
        # doubling constants and G_e = g^(e*L), and each G_e 11 times: 6 +
        # 2 * (12 + 11) = 52, where squaring g^e and G_e again for the
        # doubling constants took 74.  The quarter walk (L = 2^11) carries
        # each g^e's chain on to g^(e*2^23), its first start: 6 + 2 * (23 +
        # 10) = 72.
        field = make_field(2, 24)
        exponents = D6_MAP.laurent_exponents()
        want = self._walk(walk, field, exponents)
        calls = []
        square = finite_fields.FiniteField._square

        def counted_square(self, a):
            calls.append(1)
            return square(self, a)

        monkeypatch.setattr(finite_fields.FiniteField, "_square", counted_square)
        assert self._walk(walk, field, exponents) == want
        assert len(calls) == squares

    @pytest.mark.parametrize("m,workers", [(7, 1), (10, 1), (10, 2), (10, 3)])
    def test_stream_subranges_equal_the_definition(self, monkeypatch, m, workers):
        # ranges that start past 0, with chunks and batches of blocks that
        # do not divide the range (GF(2^10) has 16 blocks), so the longer
        # ranges of GF(2^10) span two and three chunks, shared among 1, 2
        # and 3 threads, each against its sum by definition
        monkeypatch.setattr(finite_fields, "_BATCH", 2)
        monkeypatch.setattr(finite_fields, "_STARTS", 3)
        self._see_cpus(monkeypatch, workers)
        field = make_field(2, m)
        oracle = oracles.tuple_field(2, m, field.modulus)
        n = field.order - 1
        powers = [(1,)]  # g^i, i < n
        for _ in range(n - 1):
            powers.append(oracle.mul(powers[-1], oracle.element(field.generator)))
        cuts = sorted({0, 1, 63, 64, 65, 100, 101, 5 * 64 + 7, n // 2, n - 1, n} & set(range(n + 1)))
        for f in (D6_MAP, _laurent([5, 2, -2, -7]), _laurent([3, -1, 0])):
            exps = f.laurent_exponents()
            signs = [1 - 2 * oracle.trace(oracles.eval_map(oracle, f, x)) for x in powers]
            pieces = [finite_fields._stream_range(field, exps, lo, hi, workers) for lo, hi in zip(cuts, cuts[1:])]
            assert pieces == [sum(signs[lo:hi]) for lo, hi in zip(cuts, cuts[1:])], f
            assert sum(pieces) + finite_fields._zero_point_term(field, f) == oracles.naive_char_sum(m, f)

    @pytest.mark.parametrize("m", range(8, 27))
    def test_quarter_walk_equals_full_walk(self, m):
        field = make_field(2, m)
        for exponents in QUARTER_MAPS:
            assert self._walk("quarter", field, exponents) == self._walk("full", field, exponents), (m, exponents)

    @pytest.mark.parametrize("m", range(23, 28))
    def test_quarter_walk_matches_recorded_dk6_counts(self, m):
        # x = 0 is a pole of D_6 and one point lies over infinity, so N_m =
        # 2^m + 1 + the sum over the multiplicative group
        field = make_field(2, m)
        assert (1 << m) + 1 + self._walk("quarter", field, D6_MAP.laurent_exponents()) == oracles.DK6_COUNTS[m - 1]

    @pytest.mark.parametrize("m,workers", [(9, 1), (11, 1), (11, 2), (11, 3)])
    def test_quarter_walk_in_chunks_and_threads_equals_the_definition(self, monkeypatch, m, workers):
        # Batches of 2 blocks and chunks of 3: R2 of GF(2^11) is 8 blocks of
        # 64, so 3 chunks shared among 1, 2 and 3 threads, with runs of a
        # group that cross batches and chunks.  Against the full walk in the
        # same chunks and against the sum by definition.
        monkeypatch.setattr(finite_fields, "_BATCH", 2)
        monkeypatch.setattr(finite_fields, "_STARTS", 3)
        self._see_cpus(monkeypatch, workers)
        field = make_field(2, m)
        for f in (D6_MAP, _laurent([5, 2, -2, -7]), _laurent([3, -1, 0]), RationalMap(())):
            exps = f.laurent_exponents()
            quarter = self._walk("quarter", field, exps, workers)
            assert quarter + finite_fields._zero_point_term(field, f) == oracles.naive_char_sum(m, f), f
            assert quarter == self._walk("full", field, exps, workers), f
        for exponents in self._exponent_sets(field.order - 1):
            assert self._walk("quarter", field, exponents, workers) == self._walk("full", field, exponents, workers)

    def test_route_by_m_alone(self, monkeypatch):
        # Laurent maps take the full walk below _QUARTER_MIN_M and the
        # quarter walk from it, whatever the map or the threads
        calls = []
        monkeypatch.setattr(
            finite_fields, "_stream_range", lambda field, exps, lo, hi, threads=1: calls.append(("full", field.m)) or 0
        )
        monkeypatch.setattr(
            finite_fields, "_quarter_walk", lambda field, exps, threads=1: calls.append(("quarter", field.m)) or 0
        )
        edge = finite_fields._QUARTER_MIN_M
        for m in (1, 8, edge - 1, edge, finite_fields.DEFAULT_MAX_M):
            for f, threads in ((D6_MAP, 1), (_laurent([3, -1, 0]), 2)):
                char_sum(make_field(2, m), f, threads=threads)
        walks = [("full", 1), ("full", 8), ("full", edge - 1), ("quarter", edge), ("quarter", finite_fields.DEFAULT_MAX_M)]
        assert calls == [w for w in walks for _ in range(2)]

    @pytest.mark.parametrize("a,words", [(6, 7), (11, 40), (12, 73)])
    def test_pair_classes_layout(self, a, words):
        # every j < 2^a once, sorted by (10 pairs within j, top bit of j),
        # each class padded with -1 to whole words; cached and read-only
        layout = finite_fields._pair_classes(a)
        columns, heads, sizes, pairs, top = layout
        assert len(columns) == 64 * words and sizes.sum() == 1 << a
        assert sorted(columns[columns >= 0].tolist()) == list(range(1 << a))
        keys = []
        for head, size, c2, t in zip(heads, sizes, pairs, top):
            stop = 64 * head + -(-size // 64) * 64
            js, padding = columns[64 * head : 64 * head + size], columns[64 * head + size : stop]
            assert (padding == -1).all()
            assert {(format(j, f"0{a}b").count("10"), j >> (a - 1)) for j in js.tolist()} == {(c2, t)}
            keys.append((c2, t))
        assert len(set(keys)) == len(keys) and stop == len(columns)
        assert finite_fields._pair_classes(a) is layout
        assert not any(array.flags.writeable for array in layout)

    def test_quarter_walk_non_integral_class_sum_is_a_counting_bug(self, monkeypatch):
        # c2_h one too low leaves an m * S_c that c does not divide; the
        # layout of the blocks is built (and cached) before the patch
        finite_fields._pair_classes(finite_fields._block_length(8).bit_length() - 1)
        count = finite_fields._cyclic_pairs
        monkeypatch.setattr(finite_fields, "_cyclic_pairs", lambda i, m: count(i, m) - 1)
        with pytest.raises(RuntimeError, match="counting bug"):
            finite_fields._quarter_walk(make_field(2, 10), D6_MAP.laurent_exponents())

    def test_small_field_starts_no_pool(self, monkeypatch):
        # up to 2^24 elements a count has one chunk, so one worker
        def refuse(*args, **kwargs):
            raise AssertionError("a pool was started")

        self._see_cpus(monkeypatch, 4)
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", refuse)
        for m in (12, 24):
            field = make_field(2, m)
            assert char_sum(field, D6_MAP, threads=4) == char_sum(field, D6_MAP, threads=1)

    def test_threads_match_one_worker(self, monkeypatch):
        # GF(2^25) is the smallest field with two chunks of blocks
        self._see_cpus(monkeypatch, 2)
        field = make_field(2, 25)
        n, length = field.order - 1, finite_fields._block_length(25)
        assert -(-n // length) > finite_fields._STARTS
        for exponents in self._exponent_sets(n):
            one = finite_fields._stream_range(field, exponents, 0, n)
            assert finite_fields._stream_range(field, exponents, 0, n, threads=2) == one, exponents

    def test_count_runs_in_one_process(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a process pool was started")

        self._see_cpus(monkeypatch, 2)
        field = make_field(2, 28)
        want = char_sum(field, D6_MAP, threads=1)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
        assert char_sum(field, D6_MAP, threads=2) == want

    @pytest.mark.parametrize("threads,cpus,workers", [(1000, 5, 5), (1000, 1000, 64), (3, 1000, 3), (1, 4, 1)])
    def test_workers_bounded_by_threads_cpus_and_chunks(self, monkeypatch, threads, cpus, workers):
        # GF(2^16) in chunks of 4 blocks has 64 chunks; the stand-in pool
        # records its size and runs the map serially, so no thread starts
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        field = make_field(2, 16)
        want = char_sum(field, D6_MAP, threads=1)
        monkeypatch.setattr(finite_fields, "_STARTS", 4)
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", SerialPool)
        self._see_cpus(monkeypatch, cpus)
        assert char_sum(field, D6_MAP, threads=threads) == want
        assert sizes == ([workers] if workers > 1 else [])

    @pytest.mark.parametrize("m,workers,bound", [(30, 1, 4 * 2**20), (28, 2, 8 * 2**20)])
    def test_packed_kernel_memory_is_bounded(self, monkeypatch, m, workers, bound):
        # Tables, block starts and gathers are per chunk of blocks, so the
        # peak does not grow with the field; each worker holds two gather
        # buffers and one chunk's starts of its own.
        self._see_cpus(monkeypatch, workers)
        field = make_field(2, m)
        tracemalloc.start()
        try:
            char_sum(field, D6_MAP, threads=workers)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound

    def test_trace_partition(self):
        # zeros plus ones must account for every non-pole point
        field = oracles.tuple_field(2, 9)
        non_poles = sum(
            1 for x in field.elements() if oracles.eval_map(field, X3_PLUS_INV, x) is not None
        )
        s = char_sum(make_field(2, 9), X3_PLUS_INV)
        zeros = (non_poles + s) // 2
        ones = (non_poles - s) // 2
        assert zeros + ones == non_poles
        assert zeros - ones == s

    def test_power_tables_not_kept_on_the_field(self):
        # The general-denominator kernel builds its tables per call; the
        # cached, shared field must not keep them alive afterwards.
        field = make_field(2, 12)
        f = RationalMap((1,), (1, 1, 1))  # 1 / (x^2 + x + 1)
        assert f.laurent_exponents() is None
        assert char_sum(field, f) == oracles.naive_char_sum(12, f)
        assert not [k for k, v in vars(field).items() if isinstance(v, np.ndarray)]

    @pytest.mark.parametrize("curve,p,m", [
        (OddHyperellipticCurve(3, (), (1, 2, 0, 1)), 3, 4),
        (OddHyperellipticCurve(5, (0, 1), (2, 1, 0, 3, 0, 1)), 5, 3),
        (dk_curve(2), 2, 12),
    ])
    def test_no_tables_kept_on_the_field_after_a_count(self, curve, p, m):
        # Log and power tables are built per call; the cached, shared field
        # keeps no list or array alive once a count is done.
        field = make_field(p, m)
        count_points(curve, m)
        assert not [k for k, v in vars(field).items() if isinstance(v, (list, np.ndarray))]

    def test_too_large(self, monkeypatch):
        # refused before the modulus search and before factoring 2^m - 1
        def refuse(*args, **kwargs):
            raise AssertionError("searched or factored beyond the bound")

        monkeypatch.setattr(finite_fields, "_default_modulus", refuse)
        monkeypatch.setattr(finite_fields, "factor_int", refuse)
        with pytest.raises(TooLarge, match=r"^m = 35 exceeds the enumeration bound 34$"):
            make_field(2, 35)

    def test_non_laurent_beyond_table_bound(self):
        with pytest.raises(TooLarge):
            char_sum(make_field(2, 8), RationalMap((1,), (1, 1)), table_max_m=4)

    def test_odd_characteristic_rejected(self):
        with pytest.raises(ValueError, match=r"^character sums are implemented for p = 2 only$"):
            char_sum(make_field(3, 2), RationalMap((0, 1)))

    @pytest.mark.parametrize("threads", [0, -3])
    def test_threads_below_one_refused_by_both_kernels(self, threads):
        field = make_field(2, 8)
        for f in (X3_PLUS_INV, RationalMap((1,), (1, 1))):
            with pytest.raises(ValueError, match=r"^threads must be >= 1$"):
                char_sum(field, f, threads=threads)

    def test_threads_default_to_cpu_affinity(self, monkeypatch):
        monkeypatch.setattr(finite_fields.os, "cpu_count", lambda: 64)
        monkeypatch.setattr(finite_fields.os, "sched_getaffinity", lambda pid: {0, 3}, raising=False)
        assert resolve_threads(None) == 2
        assert resolve_threads(5) == 5

    def test_bounds(self):
        # |sum| <= 2^m always
        for m in range(1, 10):
            assert abs(char_sum(make_field(2, m), X3_PLUS_INV)) <= 2**m


# Maps whose denominator is not a monomial, so char_sum takes the table kernel
TABLE_MAPS = [
    RationalMap((1, 0, 1, 0, 0, 1, 1), (1, 1, 0, 1)),  # over x^3 + x + 1, irreducible
    RationalMap((1,), (0, 1, 1)),  # 1 / (x(x+1)): poles at 0 and 1
    RationalMap((1, 0, 1, 0, 0, 1), (1, 1, 0, 1, 1)),  # over (x+1)^2 (x^2+x+1)
    RationalMap((0, 1, 0, 1), (1, 1, 1)),  # x^3 + x: no constant term
    RationalMap((1, 1, 0, 0, 1, 0, 0, 0, 0, 1), (1, 1, 0, 0, 1)),  # deg 9 over deg 4
]


class TestTableKernel:
    def test_maps_are_reduced_as_written(self):
        assert [(f.num, f.den) for f in TABLE_MAPS] == [
            ((1, 0, 1, 0, 0, 1, 1), (1, 1, 0, 1)),
            ((1,), (0, 1, 1)),
            ((1, 0, 1, 0, 0, 1), (1, 1, 0, 1, 1)),
            ((0, 1, 0, 1), (1, 1, 1)),
            ((1, 1, 0, 0, 1, 0, 0, 0, 0, 1), (1, 1, 0, 0, 1)),
        ]
        assert all(f.laurent_exponents() is None for f in TABLE_MAPS)

    @pytest.mark.parametrize("m", range(1, 13))
    def test_kernel_equals_naive_exhaustive(self, m, monkeypatch):
        # Again with chunks of 3 and 97 indices, which divide neither the
        # n // 2 + 1 steps of the walk of g nor the 2^(m-3) indices of R3, so
        # both end mid-chunk; m = 1 and 2 walk no R3 at all.
        field = make_field(2, m)
        want = [oracles.naive_char_sum(m, f) for f in TABLE_MAPS]
        assert [char_sum(field, f) for f in TABLE_MAPS] == want
        for chunk in (3, 97):
            monkeypatch.setattr(finite_fields, "_TABLE_CHUNK", chunk)
            assert [char_sum(field, f) for f in TABLE_MAPS] == want

    @pytest.mark.parametrize("m", range(1, 23))
    def test_orbit_weights_are_exact(self, m):
        # every nonzero index i < n = 2^m - 1 is counted once: the weights
        # m/c over the walked indices add up to n - 1, so the finish of a
        # sign +1 at every walked index is n - 1 too
        run, rest = finite_fields._orbit_walk(m)
        assert (len(run), len(rest)) == (2 ** (m - 3) if m >= 3 else 0, _fibonacci(m - 1))
        classes = np.concatenate([np.zeros(0, np.uint8), *finite_fields._orbit_classes(m, run, rest)])
        by_class = np.bincount(classes, minlength=2 * (m + 1))
        assert by_class[0] == by_class[m + 1] == 0
        assert m * sum(Fraction(int(k), c % (m + 1)) for c, k in enumerate(by_class) if k) == 2**m - 2
        assert finite_fields._orbit_total(m, by_class.tolist()) == 2**m - 2

    @pytest.mark.parametrize("m", range(2, 12))
    def test_orbit_weights_per_orbit(self, m):
        # Orbits of i -> 2i mod n by brute force, and c3, c2 from the bit
        # strings.  R3 holds exactly the indices whose top bits are 100, the
        # rest those whose top bits are 10 with no cyclic 00; an orbit with a
        # cyclic 00 meets only R3, any other only the rest, and each orbit's
        # weights over the indices it meets add up to its size.
        n = 2**m - 1

        def cyclic(i, pattern):
            bits = format(i, f"0{m}b") * 2
            return sum(bits[t : t + len(pattern)] == pattern for t in range(m))

        run, rest = finite_fields._orbit_walk(m)
        assert list(run) == [i for i in range(n) if m >= 3 and i >> (m - 3) == 0b100]
        assert rest.tolist() == [i for i in range(n) if i >> (m - 2) == 0b10 and not cyclic(i, "00")]
        classes = np.concatenate([np.zeros(0, np.uint8), *finite_fields._orbit_classes(m, run, rest)])
        class_of = dict(zip([*run, *rest.tolist()], classes.tolist()))
        seen = set()
        for i in range(1, n):
            if i in seen:
                continue
            orbit = {i * 2**r % n for r in range(m)}
            seen |= orbit
            weight = 0
            for j in orbit & class_of.keys():
                if cyclic(i, "00"):
                    assert j in run and class_of[j] == cyclic(j, "100")
                else:
                    assert j not in run and class_of[j] == m + 1 + cyclic(j, "10")
                weight += Fraction(m, class_of[j] % (m + 1))
            assert weight == len(orbit)

    @pytest.mark.parametrize("name", ["_cyclic_triples", "_cyclic_pairs"])
    def test_non_integral_orbit_sum_is_a_counting_bug(self, monkeypatch, name):
        # c3 or c2 off by one leaves an m * S_c that c does not divide
        count = getattr(finite_fields, name)
        monkeypatch.setattr(finite_fields, name, lambda i, m: count(i, m) + 1)
        with pytest.raises(RuntimeError, match="counting bug"):
            char_sum(make_field(2, 10), TABLE_MAPS[0])

    def test_every_part_of_the_walk_counts(self, monkeypatch):
        # dropping the indices outside R3 loses whole orbits without breaking
        # the integrality of any class, so only the values show it
        field = make_field(2, 9)
        want = [oracles.naive_char_sum(9, f) for f in TABLE_MAPS]
        walk = finite_fields._orbit_walk
        monkeypatch.setattr(finite_fields, "_orbit_walk", lambda m: (walk(m)[0], walk(m)[1][:0]))
        assert [char_sum(field, f) for f in TABLE_MAPS] != want

    @pytest.mark.parametrize("p,m", [(2, 1), (2, 2), (2, 7), (2, 12), (3, 5), (5, 3)])
    @pytest.mark.parametrize("chunk", [3, 97, 1 << 15])
    def test_power_tables_exhaustive(self, p, m, chunk, monkeypatch):
        # odd p has no power tables; test_small_log_tables_are_inverse
        # checks its powers of g
        monkeypatch.setattr(finite_fields, "_TABLE_CHUNK", chunk)
        field = make_field(p, m)
        if p != 2:
            with pytest.raises(ValueError):
                field.power_tables()
            return
        inv, values = field.power_tables()
        assert (inv.dtype, values.shape) == (np.uint32, (0, 0))
        assert inv[0] == 0
        # y * inv[y] = 1 in the oracle's own arithmetic, for every y != 0
        o = oracles.tuple_field(p, m, field.modulus)
        assert all(o.mul(o.element(y), o.element(int(inv[y]))) == (1,) for y in range(1, field.order))
        # every term x^e at every index, over a run and at points in any
        # order: a constant, e above n, e sharing a factor with n, and a
        # term twice, which cancels
        n = field.order - 1
        powers = [field.pow_el(field.generator, t) for t in range(n)]
        sums = [[1], [0, 3, 2 * n + 5], [n - 1, 7, 7, 2]]
        run = range(n // 3, n)
        points = np.random.default_rng(m).integers(0, n, 40)
        inv_again, values = field.power_tables(sums, run, points)
        assert np.array_equal(inv_again, inv) and values.dtype == np.uint32
        want = [[0] * (len(run) + len(points)) for _ in sums]
        for s, exponents in enumerate(sums):
            for j, i in enumerate([*run, *points.tolist()]):
                for e in exponents:
                    want[s][j] ^= powers[e * i % n]
        assert values.tolist() == want

    def test_dual_masks_only_on_the_walked_denominators(self, monkeypatch):
        # M is applied to the denominators the walk reads, at x = 1 and at
        # the 2^(m-3) + F(m-1) walked indices, never to the whole inverse table
        m = 12
        field = make_field(2, m)
        masks = finite_fields._xor_tables(np.array(field._dual_masks, dtype=np.uint64)).astype(np.uint32)
        gather = finite_fields._xor_gather
        codes = []

        def spy(tables, values):
            if tables.dtype == masks.dtype and np.array_equal(tables, masks):
                codes.append(values.size)
            return gather(tables, values)

        monkeypatch.setattr(finite_fields, "_xor_gather", spy)
        assert char_sum(field, TABLE_MAPS[0]) == oracles.naive_char_sum(m, TABLE_MAPS[0])
        assert sum(codes) == 2 ** (m - 3) + _fibonacci(m - 1) + 1

    @pytest.mark.parametrize(
        "n,a,k,e,t0,size",
        [
            (13, 5, 40, 3, 0, 13),  # the whole table, several wraps
            (13, 0, 7, 12, 4, 5),  # e = n - 1, from i = 0
            (100, 7, 5, 31, 50, 50),  # e > k
            (12, 4, 30, 9, 3, 4),  # e shares the factor 3 with n
            (12, 11, 30, 6, 0, 12),  # e divides n
            (10, 3, 6, 1, 9, 1),  # a window of one, the last power
            (10, 3, 0, 1, 0, 10),  # no output
            (10, 3, 6, 1, 5, 0),  # an empty window
        ],
    )
    def test_xor_run_matches_take(self, n, a, k, e, t0, size):
        # the window is a view read backwards, as the walk's g^-k chunk is
        table = np.random.default_rng(n * k + e).integers(0, 2**32, n, dtype=np.uint32)
        window = table[::-1].copy()[::-1][t0 : t0 + size]
        base = np.arange(k, dtype=np.uint32) * np.uint32(0x9E3779B1)
        out = base.copy()
        finite_fields._xor_run(out, window, t0, e, n, a)
        powers = e * (a + np.arange(k)) % n
        hit = (powers >= t0) & (powers < t0 + size)
        assert out.tolist() == (base ^ np.where(hit, table[powers], 0)).tolist()

    def test_power_tables_refused_above_2_30(self):
        field = make_field(2, 31)
        tracemalloc.start()
        try:
            with pytest.raises(TooLarge):
                field.power_tables()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2**16  # refused before any table is allocated

    @pytest.mark.parametrize("m,bound", [(20, 8 * 2**20), (22, 26 * 2**20)])
    def test_table_kernel_memory_is_bounded(self, m, bound):
        # inv takes 4 bytes per element (16 MiB at m = 22), and the values of
        # N and D 8 bytes per walked index (4.3 MiB), plus one chunk; with
        # the g^i table beside inv, 33.4 MiB at m = 22, and 16-byte tables
        # and full-length index arrays took 74 MB at m = 20.
        field = make_field(2, m)
        tracemalloc.start()
        try:
            char_sum(field, TABLE_MAPS[0], threads=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound
