"""Field arithmetic: axioms, canonical indexing, point enumeration."""

import hashlib
import itertools
import re

import numpy as np
import pytest

from mvdmm import field
from mvdmm.errors import CapacityError, ParameterError, ShapeError
from mvdmm.field import (
    EXACT_FLOAT_LIMIT, RECIPROCAL_DOUBLE_LIMIT, RECIPROCAL_SINGLE_LIMIT, FieldSpec,
)


def poly_mul_divmod_oracle(a_coeffs, b_coeffs, modulus, p):
    """Naive polynomial multiplication followed by long division."""
    prod = [0] * (len(a_coeffs) + len(b_coeffs) - 1)
    for i, x in enumerate(a_coeffs):
        for j, y in enumerate(b_coeffs):
            prod[i + j] = (prod[i + j] + x * y) % p
    deg = len(modulus) - 1
    for i in range(len(prod) - 1, deg - 1, -1):
        c = prod[i]
        if c == 0:
            continue
        for j in range(deg + 1):
            prod[i - deg + j] = (prod[i - deg + j] - c * modulus[j]) % p
    return prod[:deg]


def test_add_examples():
    gf2 = FieldSpec(2)
    assert gf2.add(1, 1) == 0
    gf19 = FieldSpec(19)
    assert gf19.add(12, 9) == 2
    gf8 = FieldSpec(2, 3, 0b1011)
    assert gf8.add(0b011, 0b110) == 0b101


def test_mul_examples():
    gf19 = FieldSpec(19)
    assert gf19.mul(7, 8) == 18
    gf8 = FieldSpec(2, 3, 0b1011)
    # oracle: naive polynomial product reduced by x^3 + x + 1
    expected = poly_mul_divmod_oracle([0, 1, 0], [0, 0, 1], [1, 1, 0, 1], 2)
    assert expected == [1, 1, 0]
    assert gf8.mul(0b010, 0b100) == 0b011
    for spec in (gf2 := FieldSpec(2), gf19, gf8, FieldSpec(5, 2)):
        for a in range(spec.q):
            assert spec.mul(a, 1) == a


def test_inv_examples():
    assert FieldSpec(19).inv(2) == 10
    assert FieldSpec(2).inv(1) == 1
    gf8 = FieldSpec(2, 3, 0b1011)
    # oracle: exhaustive search for the element whose product is 1
    wanted = [b for b in range(8) if gf8.mul(2, b) == 1]
    assert wanted == [0b101]
    assert gf8.inv(2) == 0b101
    with pytest.raises(ZeroDivisionError):
        gf8.inv(0)


def test_index_round_trip():
    gf4 = FieldSpec(2, 2)
    assert field._digits(2, gf4.p, gf4.e) == (0, 1)
    for spec in (gf4, FieldSpec(19), FieldSpec(3, 3), FieldSpec(2, 5)):
        for i in range(spec.q):
            assert field._undigits(field._digits(i, spec.p, spec.e), spec.p) == i


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16])
def test_field_axioms_exhaustive(q):
    spec = FieldSpec.of_order(q)
    elems = range(spec.q)
    for a, b in itertools.product(elems, repeat=2):
        assert spec.add(a, b) == spec.add(b, a)
        assert spec.mul(a, b) == spec.mul(b, a)
    for a, b, c in itertools.product(elems, repeat=3):
        assert spec.add(spec.add(a, b), c) == spec.add(a, spec.add(b, c))
        assert spec.mul(spec.mul(a, b), c) == spec.mul(a, spec.mul(b, c))
        assert spec.mul(a, spec.add(b, c)) == spec.add(spec.mul(a, b), spec.mul(a, c))
    for a in range(1, spec.q):
        assert spec.mul(a, spec.inv(a)) == 1


@pytest.mark.parametrize("q", [25, 27, 32, 49, 64])
def test_field_axioms_sampled(q):
    spec = FieldSpec.of_order(q)
    rng = np.random.default_rng(q)
    triples = rng.integers(0, q, size=(4000, 3))
    for a, b, c in triples:
        a, b, c = int(a), int(b), int(c)
        assert spec.mul(spec.mul(a, b), c) == spec.mul(a, spec.mul(b, c))
        assert spec.mul(a, spec.add(b, c)) == spec.add(spec.mul(a, b), spec.mul(a, c))
        assert spec.add(a, spec.neg(a)) == 0
    for a in range(1, q):
        assert spec.mul(a, spec.inv(a)) == 1


@pytest.mark.parametrize("q", [2, 3, 4, 8, 16, 19, 25, 27, 32, 49, 64, 81, 125, 128, 256])
def test_unit_group_order(q):
    spec = FieldSpec.of_order(q)
    for a in range(1, spec.q):
        assert spec.pow(a, spec.q - 1) == 1


def test_builtin_moduli_are_least_irreducible():
    # spot values: x^2+x+1 (GF4), x^3+x+1 (GF8), x^4+x+1 (GF16)
    assert FieldSpec(2, 2).modulus == (1, 1, 1)
    assert FieldSpec(2, 3).modulus == (1, 1, 0, 1)
    assert FieldSpec(2, 4).modulus == (1, 1, 0, 0, 1)


def test_user_modulus_validation():
    with pytest.raises(ParameterError):
        FieldSpec(2, 2, 0b101)  # x^2 + 1 = (x+1)^2 over GF(2)
    alt = FieldSpec(2, 3, 0b1101)  # x^3 + x^2 + 1 is irreducible
    assert alt.mul(2, alt.inv(2)) == 1
    assert alt != FieldSpec(2, 3, 0b1011)


def test_spec_text_round_trip():
    for text in ("2", "19", "2^3/11", "5^2/27"):
        spec = FieldSpec.from_string(text)
        assert FieldSpec.from_string(str(spec)) == spec
    assert str(FieldSpec(19)) == "19"
    assert str(FieldSpec(2, 3)) == "2^3/11"
    assert FieldSpec.from_string("8") == FieldSpec(2, 3)


def test_scalar_mismatch_and_range_errors():
    with pytest.raises(ParameterError):
        FieldSpec(6)  # not prime
    with pytest.raises(ParameterError):
        FieldSpec(4)  # characteristic must be prime; use of_order for powers
    with pytest.raises(CapacityError):
        FieldSpec(2, 17)


def test_vectorized_ops_match_scalar():
    rng = np.random.default_rng(0)
    for spec in (FieldSpec(2), FieldSpec(19), FieldSpec(2, 3), FieldSpec(3, 2), FieldSpec(5, 2)):
        x = rng.integers(0, spec.q, size=200)
        y = rng.integers(0, spec.q, size=200)
        adds = spec.add_arr(x, y)
        muls = spec.mul_arr(x, y)
        subs = spec.sub_arr(x, y)
        for i in range(200):
            assert int(adds[i]) == spec.add(int(x[i]), int(y[i]))
            assert int(muls[i]) == spec.mul(int(x[i]), int(y[i]))
            assert int(subs[i]) == spec.sub(int(x[i]), int(y[i]))


def schoolbook_matmul(spec, a, b):
    """Scalar reference: one spec.mul and one spec.add per inner index."""
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    for i, row in enumerate(a.tolist()):
        for j, col in enumerate(b.T.tolist()):
            acc = 0
            for u, v in zip(row, col):
                acc = spec.add(acc, spec.mul(u, v))
            out[i, j] = acc
    return out


def test_matmul_planes_match_schoolbook():
    rng = np.random.default_rng(1)
    for spec in (FieldSpec(2, 3), FieldSpec(3, 2), FieldSpec(19)):
        a = rng.integers(0, spec.q, size=(5, 7))
        b = rng.integers(0, spec.q, size=(7, 4))
        assert np.array_equal(spec.matmul(a, b), schoolbook_matmul(spec, a, b))


# Significand bits of matmul's two words.
WORD_BITS = {np.float32: 24, np.float64: 53}


def slot_bound(spec, n):
    """Largest sum a slot of one chunk of matmul's product can reach."""
    return min(n, spec.matmul_chunk) * spec.e * (spec.p - 1) ** 2


def carry_free(spec, n, word, g):
    """Whether g slots of WORD_BITS[word] // g bits hold a chunk's sums, in
    float32 below the reduction's 2^22 as well for p odd."""
    bound = slot_bound(spec, n)
    if word is np.float32 and spec.p != 2 and bound >= RECIPROCAL_SINGLE_LIMIT:
        return False
    return bound < 2 ** (WORD_BITS[word] // g)


def forced_packings(spec, n):
    """Every (word, g, bits) that keeps slots carry-free at inner dimension n,
    chosen by matmul or not, on each word that the field takes for some
    n >= 1 (no float32 table is built for a larger field)."""
    words = [np.float64]
    if spec.e == 1 or spec.q in LAST_PACKED_SINGLE_WORD_N:
        words.append(np.float32)
    return [(word, g, WORD_BITS[word] // g) for word in words
            for g in range(1, spec.e + 1) if carry_free(spec, n, word, g)]


def packing_edges(spec, limit):
    """Inner dimensions n <= limit at which some slot width of either word
    stops holding the bound: the least n with n * e * (p-1)^2 >= 2^(f // g)
    for f in {24, 53} and g in 1..e, or >= 2^22.  ``_packing`` can only
    change there."""
    unit = spec.e * (spec.p - 1) ** 2
    caps = {2 ** (f // g) for f in WORD_BITS.values() for g in range(1, spec.e + 1)}
    caps.add(RECIPROCAL_SINGLE_LIMIT)
    return sorted(n for n in {-(-c // unit) for c in caps} if 2 <= n <= limit)


# Every edge of the packing up to this n is tested on both sides; larger ones
# (g = 2 -> 1 on every field, at n >= 2^21) are reached by forcing g.
TRANSITION_LIMIT = 50_000
PACKED_ORDERS = [4, 8, 9, 16, 25, 27, 64, 256, 243]


def _matmul_cases(spec):
    """(r, n, t) shapes: small ones, plus 1 x n x 1 on both sides of each
    packing edge."""
    shapes = [(3, 0, 2), (3, 1, 2), (4, 7, 3), (2, 20, 5)]
    for n in packing_edges(spec, TRANSITION_LIMIT):
        shapes += [(1, n - 1, 1), (1, n, 1)] if n > 64 else [(3, n - 1, 2), (3, n, 2)]
    return shapes


@pytest.mark.parametrize("q", PACKED_ORDERS)
def test_matmul_matches_schoolbook_across_packings(q):
    spec = FieldSpec.of_order(q)
    rng = np.random.default_rng(q)
    seen = set()
    for r, n, t in _matmul_cases(spec):
        if n:
            seen.add(spec._packing(n))
        for a, b in (
            (rng.integers(0, q, size=(r, n)), rng.integers(0, q, size=(n, t))),
            (np.full((r, n), q - 1), np.full((n, t), q - 1)),
        ):
            assert np.array_equal(spec.matmul(a, b), schoolbook_matmul(spec, a, b)), (r, n, t)
    # the packing is constant between edges, so this is every packing of
    # 1 <= n <= TRANSITION_LIMIT, each on both sides of its ends
    assert seen == {spec._packing(n) for n in [1] + packing_edges(spec, TRANSITION_LIMIT)}
    assert len(seen) > 1
    assert {word for word, _, _ in seen} == (
        {np.float64} if q in (243, 256) else {np.float32, np.float64})
    chunked = FieldSpec.of_order(q)
    chunked.matmul_chunk = 4
    a = rng.integers(0, q, size=(3, 23))
    b = rng.integers(0, q, size=(23, 2))
    assert chunked._packing(23) == spec._packing(4)
    assert np.array_equal(chunked.matmul(a, b), schoolbook_matmul(spec, a, b))


@pytest.mark.parametrize("q", [4, 8, 9, 27, 64, 243])
def test_matmul_exact_at_every_smaller_packing(q, monkeypatch):
    """Any g below the chosen one also keeps slots carry-free, down to g = 1
    (the unpacked digit product), which real inputs reach only at n >= 2^21;
    so does every carry-free g of the word not chosen."""
    spec = FieldSpec.of_order(q)
    rng = np.random.default_rng(q + 1)
    a = rng.integers(0, q, size=(4, 9))
    b = rng.integers(0, q, size=(9, 3))
    want = schoolbook_matmul(spec, a, b)
    word, top, _ = spec._packing(9)
    packings = forced_packings(spec, 9)
    assert {g for w, g, _ in packings if w is word} == set(range(1, top + 1))
    assert {w for w, _, _ in packings} == ({np.float64} if q == 243 else set(WORD_BITS))
    for packing in packings:
        monkeypatch.setattr(FieldSpec, "_packing", lambda self, n, packing=packing: packing)
        assert np.array_equal(spec.matmul(a, b), want), packing
        word, g, _ = packing
        planes = spec._packed_planes(g, word)
        assert planes.shape == (-(-spec.e // g), q) and planes.dtype == word


@pytest.mark.parametrize("q", [2, 19, 65521] + PACKED_ORDERS + [1849, 65536])
def test_matmul_packing_rule(q):
    spec = FieldSpec.of_order(q)
    e = spec.e
    ns = {0, 1, 2, 7, 43, 1000, 43690, 43691, 10**6, 10**9, 10**12, 10**16, 10**18}
    ns |= {m + d for m in packing_edges(spec, 10**9) for d in (-1, 0)}
    for n in sorted(ns):
        word, g, bits = spec._packing(n)
        assert 1 <= g <= e and bits == WORD_BITS[word] // g
        assert carry_free(spec, n, word, g)
        assert g == e or not carry_free(spec, n, word, g + 1)  # the most slots of the word
        other = np.float64 if word is np.float32 else np.float32
        fits = [h for h in range(1, e + 1) if carry_free(spec, n, other, h)]
        words = -(-e // g)
        if word is np.float32:  # no more words than float64 takes
            assert words <= -(-e // max(fits))
        else:  # float32 would take more words, or cannot hold the bound at all
            assert not fits or -(-e // max(fits)) > words
    assert spec._packing(spec.matmul_chunk)[:2] == (np.float64, 1)


def test_matmul_float32_fields():
    """The extension fields that take a float32 word for some n >= 1 are
    exactly these, with their last such n (the rule's switch back to
    float64): q <= 1849, so float32 tables stay within 15 KB."""
    got = {}
    orders = [(p, e) for p in range(2, 257) if field.is_prime(p)
              for e in range(2, 17) if p**e <= field.MAX_ORDER]
    for p, e in orders:  # the rule alone, without building each field's tables
        packing = lambda n: field._word_packing(p, e, n)
        n = 0
        while packing(n + 1)[0] is np.float32:
            n += 1
        if n:
            got[p**e] = n
            assert all(packing(m)[0] is np.float64 for m in range(n + 1, 4 * n + 64))
    assert got == LAST_PACKED_SINGLE_WORD_N


# Largest inner dimension on a float32 word for each extension field that
# takes one: its slots of 24 // g bits hold n * e * (p-1)^2 with no more words
# than float64's slots of 53 // g bits.  Every other extension field takes
# float32 only at n = 0, an empty product that builds no table.
LAST_PACKED_SINGLE_WORD_N = {
    4: 2047, 8: 85, 9: 511, 16: 15, 25: 127, 27: 21, 32: 3, 49: 56, 64: 2, 81: 3,
    121: 20, 125: 5, 128: 1, 169: 14, 289: 7, 343: 2, 361: 6, 529: 4, 841: 2, 961: 2,
    1369: 1, 1681: 1, 1849: 1,
}


@pytest.mark.parametrize("q", list(LAST_PACKED_SINGLE_WORD_N))
def test_matmul_at_the_last_packed_single_word_n(q):
    """All entries q - 1 at the last inner dimension on float32, and one past
    it, against the scalar schoolbook product."""
    spec = FieldSpec.of_order(q)
    last = LAST_PACKED_SINGLE_WORD_N[q]
    for n in (last, last + 1):
        a = np.full((2, n), q - 1, dtype=spec.dtype)
        b = np.full((n, 1), q - 1, dtype=spec.dtype)
        assert spec._packing(n)[0] is (np.float32 if n == last else np.float64)
        assert np.array_equal(spec.matmul(a, b), schoolbook_matmul(spec, a, b)), n


def test_matmul_keeps_one_table_per_word():
    """Products alternating between a float32 and a float64 inner dimension
    reuse both cached tables; a new g replaces only its word's table."""
    spec = FieldSpec(2, 3)
    rng = np.random.default_rng(8)
    sizes = (20, 100)  # float32 at g = 3, float64 at g = 3
    assert [spec._packing(n)[:2] for n in sizes] == [(np.float32, 3), (np.float64, 3)]
    tables = None
    for _ in range(3):
        for n in sizes:
            a = rng.integers(0, 8, size=(3, n))
            b = rng.integers(0, 8, size=(n, 2))
            assert np.array_equal(spec.matmul(a, b), schoolbook_matmul(spec, a, b))
        now = {word: table for word, (_, table) in spec._fused.items()}
        assert set(now) == {np.float32, np.float64}
        if tables is not None:
            assert all(now[word] is tables[word] for word in now)
        tables = now
    assert set(spec._planes) == {(1, np.float32), (3, np.float32), (1, np.float64), (3, np.float64)}
    spec._left_planes(2, np.float64)
    assert spec._fused[np.float64][0] == 2 and spec._fused[np.float32][1] is tables[np.float32]


@pytest.mark.parametrize("e", range(2, 17))
def test_index_bits_gather_every_packing(e):
    """The multiply-gather of GF(2^e) index bits against reading each bit off
    its slot, for slots at 0, at 2^bits - 1 and random, at every g of both
    words (on int32 words to uint32, on int64 words to uint64)."""
    rng = np.random.default_rng(e)
    packings = [(word, g, WORD_BITS[word] // g) for word in WORD_BITS for g in range(1, e + 1)]
    for word, g, bits in packings:
        signed, unsigned = (np.int32, np.uint32) if word is np.float32 else (np.int64, np.uint64)
        full = 2**bits - 1
        slots = np.zeros((e, 3, 64), dtype=np.int64)  # output digit j's sums
        slots[:, 1] = full
        slots[:, 2] = rng.integers(0, 2**bits, size=(e, 64))
        slots[:, 2, :2] = [0, full]
        words = np.zeros((-(-e // g), 3, 64), dtype=np.int64)
        for j in range(e):
            words[j // g] += slots[j] << (j % g * bits)
        want = sum((slots[j] & 1) << j for j in range(e))
        got = field._index_bits(words.astype(signed), e, g, bits)
        assert got.dtype == unsigned
        assert np.array_equal(got, want), (word, g, bits)


@pytest.mark.parametrize("e", [2, 3, 5, 8])
def test_slot_digits_split_every_packing(e):
    """Digits split off float words by power-of-two scaling and floor, for
    slots at 0, at 2^bits - 1 and random, at every g of both words."""
    rng = np.random.default_rng(e)
    for word in WORD_BITS:
        for g in range(2, e + 1):
            bits = WORD_BITS[word] // g
            full = 2**bits - 1
            slots = np.zeros((e, 3, 16), dtype=np.int64)
            slots[:, 1] = full
            slots[:, 2] = rng.integers(0, 2**bits, size=(e, 16))
            slots[:, 2, :2] = [0, full]
            words = np.zeros((-(-e // g), 3, 16), dtype=np.int64)
            for j in range(e):
                words[j // g] += slots[j] << (j % g * bits)
            got = field._slot_digits(words.astype(word), e, g, bits)
            assert got.dtype == word
            assert np.array_equal(got, slots), (word, g)


# Largest inner dimension on a float32 word for each prime: the most terms of
# (p-1)^2 whose sum stays below 2^24 over GF(2), and below 2^22, the limit of
# the reciprocal reduction, for odd p.  4093 and 65521 take float32 only at
# n = 0.
LAST_SINGLE_WORD_N = {2: 2**24 - 1, 3: 2**20 - 1, 23: 8665, 251: 67, 2039: 1, 4093: 0, 65521: 0}


@pytest.mark.parametrize("q", list(LAST_SINGLE_WORD_N) + PACKED_ORDERS)
def test_matmul_word_rule(q):
    spec = FieldSpec.of_order(q)
    # extension fields: float32 up to their LAST_PACKED_SINGLE_WORD_N, and
    # GF(243) and GF(256) only at n = 0
    last = LAST_SINGLE_WORD_N.get(q, LAST_PACKED_SINGLE_WORD_N.get(q, 0))
    for n in sorted({0, 1, 2, 7, 120, 10**9, last, last + 1}):
        assert spec._packing(n)[0] is (np.float32 if n <= last else np.float64), n
    if spec.e == 1:
        limit = 2**24 if q == 2 else RECIPROCAL_SINGLE_LIMIT
        assert last * (spec.p - 1) ** 2 < limit <= (last + 1) * (spec.p - 1) ** 2
        chunked = FieldSpec.of_order(q)
        chunked.matmul_chunk = 1  # one term per chunk fits float32 unless p >= 2^11
        assert chunked._packing(10**9)[0] is (np.float32 if last >= 1 else np.float64)


def test_matmul_gf2_16_packed_matches_polynomial_oracle():
    spec = FieldSpec(2, 16)
    n = 100
    assert spec._packing(n) == (np.float64, 4, 13)
    rng = np.random.default_rng(216)
    a = rng.integers(0, spec.q, size=(2, n))
    b = rng.integers(0, spec.q, size=(n, 3))
    bits = lambda v: [v >> k & 1 for k in range(16)]
    want = np.zeros((2, 3), dtype=np.int64)
    for i, j, k in itertools.product(range(2), range(3), range(n)):
        prod = poly_mul_divmod_oracle(bits(int(a[i, k])), bits(int(b[k, j])), spec.modulus, 2)
        want[i, j] ^= sum(c << d for d, c in enumerate(prod))
    assert np.array_equal(spec.matmul(a, b), want)


def test_matmul_inner_dimension_mismatch():
    with pytest.raises(ShapeError):
        FieldSpec(5).matmul(np.zeros((2, 3), dtype=np.int64), np.zeros((2, 3), dtype=np.int64))
    with pytest.raises(ShapeError):
        FieldSpec(2, 3).matmul(np.zeros((1, 4), dtype=np.int64), np.zeros((3, 1), dtype=np.int64))


def _one_word_residue(spec, word, z):
    """z mod p as one unchunked product in ``word`` would reduce it."""
    return int(field._reduce_mod_p(np.array([z], dtype=word), *spec._reciprocal[word])[0])


def test_matmul_exact_one_past_the_chunk_at_largest_prime():
    p = 65521  # largest prime below 2^16
    spec = FieldSpec(p)
    k = spec.matmul_chunk
    assert k * (p - 1) ** 2 < RECIPROCAL_DOUBLE_LIMIT <= (k + 1) * (p - 1) ** 2
    # 17p - 1 terms of (p-1)^2 sum to p - 1 mod p, above 2^52 and below 2^53:
    # one float64 product holds the sum exactly, but its reciprocal floor is
    # one too high, so only the chunks below 2^50 keep the result exact.
    for n in (k + 1, 17 * p - 1):
        a = np.full((1, n), p - 1, dtype=spec.dtype)
        total = n * (p - 1) ** 2
        assert spec.matmul(a, a.T).tolist() == [[total % p]], n
    assert 2**52 < total < EXACT_FLOAT_LIMIT
    assert _one_word_residue(spec, np.float64, total) != total % p


def test_matmul_exact_at_the_float32_word_boundary():
    p = 2039  # (p-1)^2 < 2^22, but two such terms are not
    spec = FieldSpec(p)
    a = np.array([[2034, 1380]], dtype=spec.dtype)
    # Two terms sum to an integer above 2^22 that float32 holds, but whose
    # float32 reciprocal floor is one too high.
    total = 2034**2 + 1380**2
    assert (p - 1) ** 2 < RECIPROCAL_SINGLE_LIMIT < total < 2**24
    assert _one_word_residue(spec, np.float32, total) != total % p
    assert spec.matmul(a, a.T).tolist() == [[total % p]]
    assert spec.matmul(a[:, :1], a.T[:1]).tolist() == [[2034**2 % p]]
    assert spec._packing(1)[0] is np.float32 and spec._packing(2)[0] is np.float64


@pytest.mark.parametrize("p", [3, 5, 23, 41, 251, 2039])
def test_reciprocal_reduction_exhaustive_in_float32(p):
    """z - p * floor(z * c) is z mod p on every integer of [0, 2^22) in
    float32.  CI runs the same check over every odd prime below 2^11, all
    the primes that ever take a float32 word.  Over GF(41) the floor of
    z * fl(1/p) undershoots, so c must be the float step above fl(1/p)."""
    z = np.arange(RECIPROCAL_SINGLE_LIMIT, dtype=np.float32)
    got = field._reduce_mod_p(z, *FieldSpec(p)._reciprocal[np.float32])
    assert np.array_equal(got, np.arange(RECIPROCAL_SINGLE_LIMIT) % p)


@pytest.mark.parametrize("p", [2053, 32749, 65521])
def test_reciprocal_reduction_at_the_float64_limit(p):
    """k*p, k*p + 1 and k*p + p - 1 for the 10^5 largest k below 2^50, and
    for k at every power of two below it."""
    top = (RECIPROCAL_DOUBLE_LIMIT - 1) // p
    ks = np.union1d(np.arange(top - 10**5, top + 1), 2 ** np.arange(top.bit_length()))
    z = (ks[:, None] * p + np.array([0, 1, p - 1])).ravel()
    z = z[z < RECIPROCAL_DOUBLE_LIMIT]
    assert z.max() >= RECIPROCAL_DOUBLE_LIMIT - p
    got = field._reduce_mod_p(z.astype(np.float64), *FieldSpec(p)._reciprocal[np.float64])
    assert np.array_equal(got, z % p)


@pytest.mark.parametrize("p", [3, 23, 251, 2039, 65521])
def test_matmul_at_the_last_single_word_n(p):
    """All entries p - 1 at the last inner dimension on float32, and one
    past it, against the scalar schoolbook product."""
    spec = FieldSpec(p)
    last = LAST_SINGLE_WORD_N[p]
    for n in (last, last + 1):
        a = np.full((2, n), p - 1, dtype=spec.dtype)
        b = np.full((n, 1), p - 1, dtype=spec.dtype)
        assert spec._packing(n)[0] is (np.float32 if n == last else np.float64)
        assert np.array_equal(spec.matmul(a, b), schoolbook_matmul(spec, a, b)), n


# (p, e, (r, n, t)) of the benchmark's worker block products: kernel-gf2,
# matdot-gf8, decode-gf23, and T4's (1 x 8) . (8 x 1).
WORKER_SHAPES = [(2, 1, (16, 512, 16)), (2, 3, (64, 20, 64)), (23, 1, (30, 120, 2)),
                 (2, 1, (1, 8, 1))]


@pytest.mark.parametrize("p, e, shape", WORKER_SHAPES)
def test_matmul_on_worker_shapes(p, e, shape):
    spec = FieldSpec(p, e)
    q, (r, n, t) = spec.q, shape
    rng = np.random.default_rng(r * n * t + q)
    for a, b in (
        (rng.integers(0, q, size=(r, n)), rng.integers(0, q, size=(n, t))),
        (np.full((r, n), q - 1), np.full((n, t), q - 1)),
    ):
        a, b = a.astype(spec.dtype), b.astype(spec.dtype)
        got = spec.matmul(a, b)
        assert got.dtype == spec.dtype and got.flags.c_contiguous
        assert np.array_equal(got, schoolbook_matmul(spec, a, b)), shape


def test_matmul_chunk_at_largest_extension_field():
    spec = FieldSpec(2, 16)
    # An entry of the float64 product sums e = 16 digit products, each 0 or 1,
    # per inner index.
    assert spec.matmul_chunk == (EXACT_FLOAT_LIMIT - 1) // 16
    assert 16 * spec.matmul_chunk < EXACT_FLOAT_LIMIT <= 16 * (spec.matmul_chunk + 1)


@pytest.mark.parametrize("p, e", [(19, 1), (2, 3), (5, 2)])
def test_matmul_short_chunks_match_one_chunk(p, e):
    rng = np.random.default_rng(p * e)
    whole = FieldSpec(p, e)
    chunked = FieldSpec(p, e)
    chunked.matmul_chunk = 3
    a = rng.integers(0, whole.q, size=(4, 11))
    b = rng.integers(0, whole.q, size=(11, 5))
    assert np.array_equal(chunked.matmul(a, b), whole.matmul(a, b))


def elementwise_matmul(spec, a, b):
    """Schoolbook product one inner index at a time, through the elementwise
    add_arr/mul_arr (pinned to the scalar ops above); fast enough for
    products that span several row tiles."""
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    for k in range(a.shape[1]):
        out = spec.add_arr(out, spec.mul_arr(a[:, k:k + 1], b[k:k + 1, :]))
    return out


TILED_FIELDS = [(2, 1), (23, 1), (2, 3), (2, 6), (2, 16)]


@pytest.mark.parametrize("p, e", TILED_FIELDS)
def test_matmul_tile_rule(p, e):
    spec = FieldSpec(p, e)
    for t in [0, 1, 5, 64, 4096, field.MATMUL_TILE // spec.e, field.MATMUL_TILE + 1]:
        rows = spec._tile_rows(t)
        assert rows == 1 or rows * spec.e * t <= field.MATMUL_TILE
        assert (rows + 1) * spec.e * max(t, 1) > field.MATMUL_TILE


@pytest.mark.parametrize("p, e", TILED_FIELDS)
def test_matmul_at_tile_boundaries(p, e):
    spec = FieldSpec(p, e)
    q, n = spec.q, 5
    t = field.MATMUL_TILE // (spec.e * 7)  # a few rows per tile
    rows = spec._tile_rows(t)
    assert 1 < rows < 10
    rng = np.random.default_rng(q)
    b_rand, b_top = rng.integers(0, q, size=(n, t)), np.full((n, t), q - 1)
    for r in (rows - 1, rows, rows + 1, 3 * rows + 1):
        for a, b in ((rng.integers(0, q, size=(r, n)), b_rand), (np.full((r, n), q - 1), b_top)):
            got = spec.matmul(a, b)
            assert got.dtype == spec.dtype and got.flags.c_contiguous
            assert np.array_equal(got, elementwise_matmul(spec, a, b)), r


@pytest.mark.parametrize("p, e", TILED_FIELDS)
def test_matmul_across_small_tiles_at_every_packing(p, e, monkeypatch):
    """A tiny tile constant makes small shapes cross many tiles; every packing
    (forced, on both words) and a short inner chunk must still give the
    schoolbook product.

    A FieldSpec keeps the fused table of the last packing it used, 128 MB
    over GF(2^16) at g = 1, so the full and the short chunk run on one spec
    after the other, and each spec builds each packing's table once."""
    spec = FieldSpec(p, e)
    q, (r, n, t) = spec.q, (11, 9, 5)
    rng = np.random.default_rng(q + 2)
    operands = [(rng.integers(0, q, size=(r, n)), rng.integers(0, q, size=(n, t))),
                (np.full((r, n), q - 1), np.full((n, t), q - 1))]
    wants = [schoolbook_matmul(spec, a, b) for a, b in operands]
    packings = forced_packings(spec, n)
    word, top, _ = spec._packing(n)
    assert {g for w, g, _ in packings if w is word} == set(range(1, top + 1))
    for chunk in (spec.matmul_chunk, 4):
        s = FieldSpec(p, e)  # the last spec, and its fused table, go when s is rebound
        s.matmul_chunk = chunk
        for packing in packings:
            monkeypatch.setattr(FieldSpec, "_packing", lambda self, n, packing=packing: packing)
            for tile in (1, spec.e * t, 3 * spec.e * t + 1):  # 1, 1 and 3 rows per tile
                monkeypatch.setattr(field, "MATMUL_TILE", tile)
                for (a, b), want in zip(operands, wants):
                    got = s.matmul(a, b)
                    assert got.dtype == spec.dtype and got.flags.c_contiguous
                    assert np.array_equal(got, want), (tile, packing, chunk)


# GF(2), GF(4), GF(8), GF(9), GF(23), GF(25), GF(2^16), GF(65521)
BATCH_FIELDS = [(2, 1), (2, 2), (2, 3), (3, 2), (23, 1), (5, 2), (2, 16), (65521, 1)]


@pytest.mark.parametrize("p, e", BATCH_FIELDS)
def test_batched_matmul_is_the_per_item_product(p, e):
    """A (B, r, n) . (B, n, t) stack is each item's 2-D product: B = 0 and 1,
    one-row and one-column items, no inner dimension and no rows."""
    spec = FieldSpec(p, e)
    q = spec.q
    rng = np.random.default_rng(q + 7)
    for b, r, n, t in [(0, 3, 4, 2), (1, 3, 4, 2), (5, 3, 7, 4), (4, 1, 9, 1), (3, 2, 0, 3),
                       (2, 0, 3, 2)]:
        for x, y in ((rng.integers(0, q, size=(b, r, n)), rng.integers(0, q, size=(b, n, t))),
                     (np.full((b, r, n), q - 1), np.full((b, n, t), q - 1))):
            got = spec.matmul(x, y)
            assert got.shape == (b, r, t) and got.dtype == spec.dtype and got.flags.c_contiguous
            for i in range(b):
                assert np.array_equal(got[i], spec.matmul(x[i], y[i])), (b, r, n, t, i)


@pytest.mark.parametrize("p, e", [(2, 1), (23, 1), (2, 3), (5, 2), (2, 16)])
def test_batched_matmul_across_tiles_and_chunks(p, e, monkeypatch):
    """A tiny tile constant puts one or two rows of an item, one item, three
    items or all seven in a tile; a short inner chunk splits every item's
    product.  Each must give the per-item products."""
    spec = FieldSpec(p, e)
    q, (b, r, n, t) = spec.q, (7, 3, 9, 5)
    rng = np.random.default_rng(q + 8)
    operands = [(rng.integers(0, q, size=(b, r, n)), rng.integers(0, q, size=(b, n, t))),
                (np.full((b, r, n), q - 1), np.full((b, n, t), q - 1))]
    wants = [np.stack([schoolbook_matmul(spec, x[i], y[i]) for i in range(b)]) for x, y in operands]
    chunked = FieldSpec(p, e)
    chunked.matmul_chunk = 4
    item = spec.e * max(r * n, n * t, r * t)  # the digits of an item's largest operand
    for tile in (1, 2 * spec.e * t, item, 3 * item, b * item):
        monkeypatch.setattr(field, "MATMUL_TILE", tile)
        for s in (spec, chunked):
            for (x, y), want in zip(operands, wants):
                got = s.matmul(x, y)
                assert got.dtype == spec.dtype and got.flags.c_contiguous
                assert np.array_equal(got, want), (tile, s.matmul_chunk)


@pytest.mark.parametrize("x_shape, y_shape", [
    ((2, 3, 4), (3, 4, 2)), ((2, 3, 4), (2, 5, 2)), ((2, 3, 4), (4, 2)), ((3, 4), (2, 4, 2)),
    ((1, 2, 3, 4), (1, 2, 4, 2)), ((4,), (4,)), ((0, 3, 4), (1, 4, 2)),
], ids=str)
def test_batched_matmul_shape_errors(x_shape, y_shape):
    """Mismatched items or inner dimensions, a stack against a matrix, and
    more than one batch axis raise ShapeError."""
    for spec in (FieldSpec(5), FieldSpec(2, 3)):
        with pytest.raises(ShapeError):
            spec.matmul(np.zeros(x_shape, dtype=np.int64), np.zeros(y_shape, dtype=np.int64))


# SHA-256 of _exp.tobytes() + _log.tobytes() (int64), computed with the
# earlier generator search that multiplied one scalar polynomial at a time.
PINNED_LOG_TABLES = {
    (2, 2): "a940b126407bde75bbcaff96a5477ad200fb9b29fff6c57b6deb4f21eaa74a60",
    (2, 3): "b339be252b1def3bd78cb9ac454d1da5b213f11e64e3a5df518a92facd1f3382",
    (2, 8): "e7d409f3c5321dbc94843a07ca5c8d4b93c375d58d70a0074ba4c03dd6cbbb74",
    (3, 2): "6872e5ba6f9eefebef583efda69366bd40aba1d738c379f29ffed6eaa719651e",
    (3, 3): "8bd4f3e6657b0135115d0166c3f26e9a4787d51b21f969eafe223f27946cee7d",
    (3, 5): "d332ecc0eb6de04854099d1c8e145d2313c4a9bf507a8ab12d87f411fa6313dd",
    (5, 3): "93a2676910f07c29620f9b53263f6b06a55acfbb24a32e89c2fc5c8216ee37ba",
    (2, 10): "849e91aae9ae61fbc35544691f21e60f66ba479bd7397f653f1891c4ce9090a5",
}


@pytest.mark.parametrize("p, e", list(PINNED_LOG_TABLES), ids=lambda v: str(v))
def test_log_tables_pinned(p, e):
    spec = FieldSpec(p, e)
    assert spec._exp.dtype == spec._log.dtype == np.int64
    digest = hashlib.sha256(spec._exp.tobytes() + spec._log.tobytes()).hexdigest()
    assert digest == PINNED_LOG_TABLES[p, e]


def test_log_tables_use_least_primitive_element():
    gf256 = FieldSpec(2, 8)
    assert str(gf256) == "2^8/283"
    assert gf256._exp[1] == 3  # x (index 2) has order 51 modulo x^8+x^4+x^3+x+1
    assert gf256._log[0] == -1 and gf256._log[1] == 0


def test_gf2_16_products_match_polynomial_oracle():
    spec = FieldSpec(2, 16)
    rng = np.random.default_rng(16)
    x = rng.integers(0, spec.q, size=300)
    y = rng.integers(0, spec.q, size=300)
    fast = spec.mul_arr(x, y)
    for a, b, got in zip(x.tolist(), y.tolist(), fast.tolist()):
        want = poly_mul_divmod_oracle(
            [a >> k & 1 for k in range(16)], [b >> k & 1 for k in range(16)], spec.modulus, 2
        )
        assert got == spec.mul(a, b) == sum(c << k for k, c in enumerate(want))


def _prime_field_ops_match_scalar(spec, x, y):
    ops = [(spec.add_arr, spec.add), (spec.sub_arr, spec.sub), (spec.mul_arr, spec.mul)]
    for vec, scalar in ops:
        assert vec(x, y).tolist() == [scalar(a, b) for a, b in zip(x.tolist(), y.tolist())]
    assert spec.neg_arr(x).tolist() == [spec.neg(a) for a in x.tolist()]


@pytest.mark.parametrize("p", [2, 3, 23, 509])
def test_prime_field_array_ops_on_all_pairs(p):
    spec = FieldSpec(p)
    x, y = (a.reshape(-1) for a in np.meshgrid(np.arange(p), np.arange(p)))
    _prime_field_ops_match_scalar(spec, x, y)


@pytest.mark.parametrize("p", [521, 65521])
def test_prime_field_array_ops_sampled(p):
    spec = FieldSpec(p)
    rng = np.random.default_rng(p)
    x = np.concatenate([[0, 1, p - 1, p - 1], rng.integers(0, p, size=2000)])
    y = np.concatenate([[p - 1, p - 1, 0, p - 1], rng.integers(0, p, size=2000)])
    _prime_field_ops_match_scalar(spec, x, y)


@pytest.mark.parametrize("q", [2, 3, 4, 8, 9, 23, 256])
def test_array_ops_on_index_dtype_all_pairs(q):
    """Unsigned index arrays must not wrap: (-x) % p on uint8 would."""
    spec = FieldSpec.of_order(q)
    x, y = (a.reshape(-1).astype(spec.dtype) for a in np.meshgrid(np.arange(q), np.arange(q)))
    _prime_field_ops_match_scalar(spec, x, y)


@pytest.mark.parametrize("p, e", [(509, 1), (65521, 1), (2, 16), (3, 7)])
def test_array_ops_on_index_dtype_sampled(p, e):
    spec = FieldSpec(p, e)
    q = spec.q
    rng = np.random.default_rng(q + 7)
    x = np.concatenate([[0, 1, q - 1, q - 1], rng.integers(0, q, size=2000)]).astype(spec.dtype)
    y = np.concatenate([[q - 1, q - 1, 0, q - 1], rng.integers(0, q, size=2000)]).astype(spec.dtype)
    _prime_field_ops_match_scalar(spec, x, y)


@pytest.mark.parametrize("text", ["x", "2^x", "2^3/x"])
def test_from_string_rejects_non_integers(text):
    with pytest.raises(ParameterError, match=re.escape(repr(text))):
        FieldSpec.from_string(text)
