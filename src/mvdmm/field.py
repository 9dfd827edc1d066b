"""Exact arithmetic in GF(p^e) with integer-indexed elements.

Elements of GF(p^e) are represented by their index in [0, q): the base-p
digits of the index are the coefficients of the element in the polynomial
basis, least significant digit first.  Index 0 is the additive identity and
index 1 the multiplicative identity.  Prime fields compute their scalar and
elementwise operations with ``% p``.
Extension fields carry log/antilog tables, built by walking the powers of a
primitive element, and below ``TABLE_LIMIT`` full q x q add/mul tables;
``FieldSpec`` owns them.  Scalar methods take and return indices; hot paths
(matrix kernels, elimination) operate on raw numpy index arrays through the
``*_arr`` methods and ``matmul``.

Every index fits the field's index dtype, ``np.min_scalar_type(q - 1)``:
uint8 up to q = 256, uint16 up to ``MAX_ORDER``.  ``matmul`` results and
``codec.MatrixFq`` data are held in it.  The ``*_arr`` methods accept index
arrays of any integer dtype and compute wherever a sign or a sum matters in
int64, so unsigned inputs never wrap.

``matmul`` is the one matrix-product kernel of the package: encoding, the
workers' block products and the decoder's transforms all run through it.  It
multiplies base-p digit matrices with BLAS on the narrowest floating-point
word that holds every partial sum exactly, in the style of FFLAS-FFPACK.
For p odd each digit sum is reduced in that word, with no division:
z mod p = z - p * floor(z * c), where c is 1/p rounded one float step up
(``_reduce_mod_p``).  This is exact below 2^22 in float32 and below 2^50 in
float64 (``RECIPROCAL_SINGLE_LIMIT``, ``RECIPROCAL_DOUBLE_LIMIT``), so over
GF(p) the word is float32 while an entry's n terms in [0, (p-1)^2] sum below
2^22, float64 otherwise, with the inner dimension cut so that every partial
sum stays below 2^50.  Over GF(2) the limits are the mantissas' 2^24 and
2^53, and the product is reduced by an in-place ``& 1`` on its int32 or
int64 cast.  Any summation order BLAS picks is exact.  Over GF(p^e) it packs
as many output digits into one word as fit without carries (Kronecker
substitution), so BLAS forms e * ceil(e/g) digit products per field product
instead of e^2, and the left operand's packed x^i X words come from one
gather through a fused table.  The word is float32 when its slots of 24 // g
bits need no more words than float64's slots of 53 // g bits (GF(8) up to
n = 85; no field above q = 1849).  Over GF(2^e) the bits of each output
index are gathered off the packed words by one uint32 or uint64 multiply per
word; for p odd the digits are split off the words by power-of-two scaling
and floor, reduced, and recombined by Horner's rule, all in the word.  A
stack of B products, (B, r, n) . (B, n, t), runs the same rules in one
call.  The result is allocated once, in the index dtype, and filled in
tiles of at most ``MATMUL_TILE`` output digits (row tiles, or whole items
of a stack), so each tile's product and reduction stay in cache.  Over
GF(2) ``add_arr`` and ``mul_arr`` are XOR and AND.
``sub_outer`` is the eliminator's rank-1 update; over GF(p), p odd, it
leaves entries unreduced until ``reduce_arr``.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import CapacityError, ParameterError, ShapeError

# Extension fields up to this order keep full q x q add/mul tables; larger
# ones use log/antilog arithmetic.  Prime fields never build q x q tables.
TABLE_LIMIT = 512

# Largest supported field order (irreducibility checked exhaustively).
MAX_ORDER = 1 << 16

# Output digits (e per entry) of one row tile of ``FieldSpec.matmul``: at
# most 1 MB of float64 product and of its reduction per tile.
MATMUL_TILE = 1 << 17

# Cap on the grid GF(q)^l of worker points (q^l up to 2^20).
DEFAULT_POINT_LIMIT = 1 << 20

# float64 represents every integer up to 2^53 exactly, float32 every one up
# to 2^24.
EXACT_FLOAT_BITS = 53
EXACT_FLOAT_LIMIT = 1 << EXACT_FLOAT_BITS
EXACT_SINGLE_BITS = 24

# ``_reduce_mod_p`` gives z mod p exactly for every integer z below these
# limits in a float32 and a float64 word, for every odd prime p below 2^16
# (float32 words are only used for p < 2^11).  The proof is in ``matmul``.
RECIPROCAL_SINGLE_LIMIT = 1 << 22
RECIPROCAL_DOUBLE_LIMIT = 1 << 50


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for d in range(2, int(n**0.5) + 1):
        if n % d == 0:
            return False
    return True


def _digits(value: int, p: int, width: int) -> tuple[int, ...]:
    out = []
    for _ in range(width):
        out.append(value % p)
        value //= p
    return tuple(out)


def _undigits(coeffs: Sequence[int], p: int) -> int:
    value = 0
    for c in reversed(coeffs):
        value = value * p + c
    return value


def _poly_divmod(num: Sequence[int], den: Sequence[int], p: int) -> tuple[list[int], list[int]]:
    num = list(num)
    dd = len(den) - 1
    while len(den) > 1 and den[-1] == 0:
        den = den[:-1]
        dd -= 1
    inv_lead = pow(den[-1], p - 2, p)
    quot = [0] * max(1, len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c == 0:
            continue
        f = (c * inv_lead) % p
        quot[i - dd] = f
        for j, y in enumerate(den):
            num[i - dd + j] = (num[i - dd + j] - f * y) % p
    rem = num[:dd] if dd > 0 else [0]
    return quot, rem


def _is_irreducible(coeffs: Sequence[int], p: int) -> bool:
    """Trial division by every monic polynomial of degree 1..deg/2."""
    deg = len(coeffs) - 1
    if deg < 1 or coeffs[-1] != 1:
        return False
    if deg == 1:
        return True
    for d in range(1, deg // 2 + 1):
        for lower in itertools.product(range(p), repeat=d):
            den = list(lower) + [1]
            _, rem = _poly_divmod(coeffs, den, p)
            if all(c == 0 for c in rem):
                return False
    return True


def _least_irreducible(p: int, e: int) -> tuple[int, ...]:
    """Monic irreducible of degree e with the smallest integer encoding."""
    for lower in range(p**e):
        coeffs = _digits(lower, p, e) + (1,)
        if _is_irreducible(coeffs, p):
            return coeffs
    raise AssertionError("unreachable: irreducibles exist in every degree")


class FieldSpec:
    """Immutable description of GF(p^e) plus its arithmetic tables.

    Text form: the decimal characteristic for prime fields ("19"), or
    "p^e/m" where m is the integer encoding of the modulus coefficient
    vector in base p ("2^3/11" for x^3 + x + 1).  ``dtype`` is the index
    dtype, ``np.min_scalar_type(q - 1)``.
    """

    __slots__ = (
        "p", "e", "q", "dtype", "modulus", "_log", "_exp", "_mul_table", "_add_table",
        "_planes", "_fused", "_reciprocal", "matmul_chunk", "__weakref__",
    )

    def __init__(self, p: int, e: int = 1, modulus: Sequence[int] | int | None = None):
        if not is_prime(p):
            raise ParameterError(f"characteristic {p} is not prime")
        if e < 1:
            raise ParameterError(f"extension degree must be >= 1, got {e}")
        q = p**e
        if q > MAX_ORDER:
            raise CapacityError(f"field order {q} exceeds supported maximum {MAX_ORDER}")
        self.p = p
        self.e = e
        self.q = q
        if e == 1:
            self.modulus = None
        else:
            if modulus is None:
                coeffs = _least_irreducible(p, e)
            elif isinstance(modulus, int):
                coeffs = _digits(modulus, p, e + 1)
                if _undigits(coeffs, p) != modulus:
                    raise ParameterError(f"modulus encoding {modulus} out of range for degree {e}")
            else:
                coeffs = tuple(int(c) % p for c in modulus)
            if len(coeffs) != e + 1 or coeffs[-1] != 1:
                raise ParameterError("modulus must be monic of degree e")
            if not _is_irreducible(coeffs, p):
                raise ParameterError(f"modulus {coeffs} is reducible over GF({p})")
            self.modulus = tuple(coeffs)
        self._build_tables()

    # -- construction helpers -------------------------------------------------

    @classmethod
    def of_order(cls, q: int) -> "FieldSpec":
        """Field of order q with the built-in (least) modulus choice."""
        p, e = _factor_prime_power(q)
        return cls(p, e)

    @classmethod
    def from_string(cls, text: str) -> "FieldSpec":
        base, caret, rest = text.strip().partition("^")
        deg, slash, enc = rest.partition("/")
        fields = [base, deg, enc] if slash else [base, deg] if caret else [base]
        try:
            ints = [int(x) for x in fields]
        except ValueError:
            raise ParameterError(f"field {text!r} is not of the form q, p^e or p^e/m") from None
        if not caret:
            return cls(ints[0], 1) if is_prime(ints[0]) else cls.of_order(ints[0])
        return cls(*ints)

    def __str__(self) -> str:
        if self.e == 1:
            return str(self.p)
        return f"{self.p}^{self.e}/{_undigits(self.modulus, self.p)}"

    def __repr__(self) -> str:
        return f"FieldSpec({self})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FieldSpec)
            and self.p == other.p and self.e == other.e and self.modulus == other.modulus
        )

    def __hash__(self) -> int:
        return hash((self.p, self.e, self.modulus))

    # -- table construction ---------------------------------------------------

    def _build_tables(self) -> None:
        p, e, q = self.p, self.e, self.q
        self.dtype = np.min_scalar_type(q - 1)
        # Longest inner dimension for which an entry of ``matmul``'s float64
        # product (e * chunk terms of at most (p-1)^2) stays below 2^53, or
        # below 2^50 for p odd, where it is reduced in the word.
        limit = EXACT_FLOAT_LIMIT if p == 2 else RECIPROCAL_DOUBLE_LIMIT
        self.matmul_chunk = (limit - 1) // (e * (p - 1) ** 2)
        self._log = self._exp = None
        self._add_table = self._mul_table = None
        self._planes = {}
        self._fused = {}
        # For p odd, per word: (1/p rounded one step up, p) as scalars of
        # that word, so that ``_reduce_mod_p`` computes in it under any numpy
        # promotion rule.
        self._reciprocal = {}
        if p != 2:
            self._reciprocal = {
                w: (np.nextafter(w(1) / w(p), w(1)), w(p)) for w in (np.float32, np.float64)
            }
        if e == 1:
            return
        # Row k holds base-p digit k of every index.
        idx = np.arange(q, dtype=np.int64)
        digits = np.stack([idx // p**k % p for k in range(e)])
        self._build_log_tables(digits)
        if q <= TABLE_LIMIT:
            self._add_table = self._add_formula(idx[:, None], idx[None, :]).astype(np.int32)
            self._mul_table = self._mul_formula(idx[:, None], idx[None, :]).astype(np.int32)

    def _build_log_tables(self, digits: np.ndarray) -> None:
        """Powers of the least primitive g >= 2, walked through a times-g table.

        Multiplication by g is GF(p)-linear on digit vectors: it maps x^j to
        g * x^j reduced by the modulus.  So one product of that e x e matrix
        with the (e x q) digits of every index gives g * k for all k at once.
        """
        p, e, q = self.p, self.e, self.q
        place = p ** np.arange(e, dtype=np.int64)
        for g in range(2, q):
            g_digits = list(_digits(g, p, e))
            times = np.array(
                [_poly_divmod([0] * j + g_digits, self.modulus, p)[1] for j in range(e)],
                dtype=np.int64,
            )  # row j: digits of g * x^j
            times_g = (place @ (times.T @ digits % p)).tolist()
            exp = [1]
            value = times_g[1]
            while value != 1 and len(exp) < q:
                exp.append(value)
                value = times_g[value]
            if len(exp) == q - 1:
                self._exp = np.array(exp, dtype=np.int64)
                self._log = np.full(q, -1, dtype=np.int64)
                self._log[self._exp] = np.arange(q - 1, dtype=np.int64)
                return
        raise ParameterError("no primitive element found; modulus is not irreducible")

    # -- scalar operations on indices ----------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        da = _digits(a, self.p, self.e)
        db = _digits(b, self.p, self.e)
        return _undigits([(x + y) % self.p for x, y in zip(da, db)], self.p)

    def neg(self, a: int) -> int:
        if self.e == 1:
            return (-a) % self.p
        if self.p == 2:
            return a
        da = _digits(a, self.p, self.e)
        return _undigits([(-x) % self.p for x in da], self.p)

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a * b) % self.p
        if a == 0 or b == 0:
            return 0
        return int(self._exp[(self._log[a] + self._log[b]) % (self.q - 1)])

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        if self.e == 1:
            return pow(a, self.p - 2, self.p)
        return int(self._exp[(-self._log[a]) % (self.q - 1)])

    def pow(self, a: int, n: int) -> int:
        """a**n with the convention 0**0 = 1."""
        if n == 0:
            return 1
        if a == 0:
            return 0
        if n < 0:
            return self.pow(self.inv(a), -n)
        if self.e == 1:
            return pow(a, n, self.p)
        return int(self._exp[(int(self._log[a]) * n) % (self.q - 1)])

    # -- vectorized operations on index arrays --------------------------------

    def _mod_p(self, ufunc, x, y):
        """ufunc(x, y) reduced mod p in place, in int64: GF(p) arithmetic."""
        out = ufunc(x, y, dtype=np.int64)
        out %= self.p
        return out

    def _add_formula(self, x, y):
        if self.e == 1:
            return self._mod_p(np.add, x, y)
        if self.p == 2:
            return np.bitwise_xor(x, y)
        out = np.zeros(np.broadcast(x, y).shape, dtype=np.int64)
        xs, ys = np.asarray(x, dtype=np.int64), np.asarray(y, dtype=np.int64)
        scale = 1
        for _ in range(self.e):
            out += ((xs % self.p + ys % self.p) % self.p) * scale
            xs, ys = xs // self.p, ys // self.p
            scale *= self.p
        return out

    def _mul_formula(self, x, y):
        if self.e == 1:
            return self._mod_p(np.multiply, x, y)
        xs = np.asarray(x, dtype=np.int64)
        ys = np.asarray(y, dtype=np.int64)
        xb, yb = np.broadcast_arrays(xs, ys)
        nz = (xb != 0) & (yb != 0)
        out = np.zeros(xb.shape, dtype=np.int64)
        lx = self._log[xb[nz]]
        ly = self._log[yb[nz]]
        out[nz] = self._exp[(lx + ly) % (self.q - 1)]
        return out

    def add_arr(self, x, y):
        if self.p == 2:
            return np.bitwise_xor(x, y)
        if self._add_table is not None:
            return self._add_table[x, y]
        return self._add_formula(np.asarray(x), np.asarray(y))

    def mul_arr(self, x, y):
        if self.q == 2:
            return np.bitwise_and(x, y)
        if self._mul_table is not None:
            return self._mul_table[x, y]
        return self._mul_formula(np.asarray(x), np.asarray(y))

    def neg_arr(self, x):
        if self.e == 1:
            return self._mod_p(np.subtract, 0, x)
        if self.p == 2:
            return np.array(x)
        xs = np.asarray(x, dtype=np.int64)
        out = np.zeros_like(xs)
        scale = 1
        for _ in range(self.e):
            out += ((-(xs % self.p)) % self.p) * scale
            xs = xs // self.p
            scale *= self.p
        return out

    def sub_arr(self, x, y):
        if self.p == 2:
            return np.bitwise_xor(x, y)
        if self.e == 1:
            return self._mod_p(np.subtract, x, y)
        return self.add_arr(x, self.neg_arr(np.asarray(y)))

    def sub_outer(self, rows: np.ndarray, g: np.ndarray, row: np.ndarray) -> None:
        """rows - g ⊗ row, in place in the int64 rows, for index vectors g and row.

        Over GF(p), p odd, the entries are left unreduced, in the style of
        FFLAS-FFPACK: rows += g ⊗ (p - row) keeps them non-negative and
        congruent, each call adding at most p * (p - 1) to an entry, and
        ``reduce_arr`` turns them back into indices.  Other fields keep rows
        reduced.
        """
        if self.e == 1 and self.p != 2:
            rows += np.multiply.outer(g, self.p - row)
            return
        if self.p != 2:
            g = self.neg_arr(g)  # rows - g ⊗ row = rows + (-g) ⊗ row
        if self._mul_table is not None:  # the table's g rows, then their row columns
            prod = self._mul_table[g][:, row]
        else:
            prod = self.mul_arr(g[:, None], row[None])
        if self.p == 2:
            rows ^= prod
        else:
            rows[...] = self.add_arr(rows, prod)

    def reduce_arr(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        """The indices of entries that ``sub_outer`` may have left unreduced,
        written into and returned as `out`, which may be x."""
        if self.e == 1 and self.p != 2:
            return np.remainder(x, self.p, out=out)
        if out is not x:
            out[...] = x
        return out

    def matmul(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Exact product of two matrices of indices in [0, q), or of two
        stacks of B matrices item by item, (B, r, n) . (B, n, t), on BLAS.

        The operands enter as base-p digits in [0, p), held as floating-point
        words.  Over GF(p^e), digit j of X.Y is  sum_i (x^i X)_j . Y_i,  where
        Y_i is digit i of Y and (x^i X)_j is digit j of the elementwise field
        product x^i * X, which carries the reduction by the modulus.  The left
        operand packs g consecutive output digits j into one word, digit j in
        slot j % g of f // g bits, f being the word's significand bits (24 in
        float32, 53 in float64), and one gather through the fused (words,
        power i, q) table of ``_left_planes`` forms every packed x^i X at
        once.  So one product of the packed left, (words * r) x (e * n), by
        the (e * n) x t right digits gives all e output digits from
        e * ceil(e/g) digit products; over GF(p), e = g = 1 and the digits
        are the indices.  A stack runs the same words, packing, chunks and
        reduction: one BLAS product per item, all items of a tile in one
        ``@``.

        Words.  The inner dimension is cut into chunks of at most
        w = min(n, ``matmul_chunk``) indices, so a slot of a chunk's product
        sums at most w * e terms in [0, (p-1)^2], at most
        bound = w * e * (p-1)^2.  Each word takes the largest g in 1..e with
        bound < 2^(f // g), in float32 also below 2^22 for p odd (the
        reduction's limit, below), and the word is float32 when its g needs
        no more words than float64's, ceil(e/g) <= ceil(e/g64), else float64
        (``_packing``).  Over GF(p) that is float32 while w * (p-1)^2 is
        below 2^24 (p = 2) or 2^22 (p odd).  Over GF(p^e) float32 slots of
        24 // g bits only pay for small fields: GF(8) up to n = 85, GF(25) up
        to n = 127, and no field above q = 1849 (GF(43^2), at n = 1) for
        any n >= 1.  Every partial sum BLAS forms, in whatever order and
        with or without fused multiply-adds, is a non-negative integer below
        2^(g * (f // g)) <= 2^f, hence exact, and no slot carries into the
        next.  ``matmul_chunk`` keeps the g = 1 bound in float64: 2^53 for
        p = 2, and 2^50 for p odd, where a g = 1 slot is a whole digit sum
        and must stay reducible in the word.  At g >= 2 a slot is below
        2^26 in float64 and 2^12 in float32, inside both reduction limits.
        An empty product (n = 0) is all zeros and takes no word.

        Slots.  For p odd the e digit sums are split off the product's words
        in the word itself (``_slot_digits``).  A word is
        W = sum_s d_s 2^(s * b), with b = f // g and 0 <= d_s < 2^b.
        W * 2^(-s * b) is exact, being a scaling by a power of two, so its
        floor is F_s = sum_{s' >= s} d_s' 2^((s' - s) * b), an integer below
        2^f; 2^b * F_(s+1) is exact likewise, and d_s = F_s - 2^b * F_(s+1)
        is an integer in [0, 2^b), a float, so the subtraction that forms it
        is exact as well.

        Reduction.  For p odd each digit sum z of a chunk (the product itself
        over GF(p), a slot over GF(p^e)) is reduced in its word, in place, as
        z - p * floor(z * c) with c = nextafter(fl(1/p), 1)
        (``_reduce_mod_p``).  Chunks add their residues, below 2p, and
        reduce again.  This is exact while 4z + p <= 2^f.  Write z = kp + r
        with 0 <= r < p, and u for the float step at 1/p, u < 2^(1-f) / p.
        1/p is not a float (p is odd) nor within a step of a power of two
        (p < 2^16), so fl(1/p) is within u/2 of it and 1/p < c < 1/p + 3u/2.
        No undershoot: z * c >= z/p >= k, and rounding is monotone, so
        fl(z * c) >= k.  No overshoot: k + 1 - z * c > (p - r)/p - 3uz/2 >=
        (1 - 3z 2^-f) / p, while fl(z * c) reaches k + 1 only from within
        half a step below it, at most (k + 1) 2^-f <= (z + p) 2^-f / p.  So
        floor(fl(z * c)) = k, and p * k and z - p * k are exact.  In float64
        that covers every z < 2^50 (``RECIPROCAL_DOUBLE_LIMIT``).  In float32
        it covers z <= 2^22 - p/4; float32 words only occur for p < 2^11, as
        one (p-1)^2 must be below 2^22, and an exhaustive check over every
        odd prime below 2^11 covers the rest of [0, 2^22)
        (``RECIPROCAL_SINGLE_LIMIT``).  Past 2^22 the floor does overshoot,
        first at z = 4926223 over GF(2039).  Over GF(p^e) the digit residues
        are then recombined by Horner's rule in the word; every value it
        forms is an integer below q <= 2^16, exact in float32 too.  The
        residues, or the indices, are cast once into the index dtype.
        Over GF(2) the product is cast to int32 or int64 and reduced by ``& 1``.
        Over GF(2^e) bit j of an output index is bit 0 of slot j % g of word
        j // g, so one multiply per word of the product's uint32 or uint64
        cast gathers the index bits (``_index_bits``), and chunks combine by
        XOR.

        Tiles.  The (r, t) result, or the (B, r, t) stack, is allocated once,
        in the index dtype ``self.dtype``, and is C-contiguous.  It is filled
        in tiles of max(1, MATMUL_TILE // (e * t)) rows (``_tile_rows``), so
        a tile's product and its digits stay near 1 MB.  A stack's tile holds
        as many whole items as keep each of its operands and its product
        within ``MATMUL_TILE`` digits, at least one; items with more rows
        than a row tile are multiplied one at a time, each in its own row
        tiles.  (Timed with one BLAS thread on a 2-core x86 VM, tiles of
        about 16 items of (16 x 512) . (512 x 16) over GF(2) took half the
        time of tiles of 512, which spill the operands' words out of
        cache.)  The right
        operand's (digit i, n, t) words are formed once per call and shared
        by every tile (a stack's, a tile's items at a time); only a tile's
        left rows are gathered with it.  Over
        GF(p), with one chunk and one tile, nothing is allocated besides the
        operand words, the BLAS result, one word-sized temporary (the
        quotient, or the integer cast over GF(2)) and the output.
        """
        x = np.asarray(x)
        y = np.asarray(y)
        if x.ndim != 2 or y.ndim != 2 or x.shape[1] != y.shape[0]:
            if not (x.ndim == y.ndim == 3 and len(x) == len(y) and x.shape[2] == y.shape[1]):
                raise ShapeError(f"cannot multiply index arrays of shapes {x.shape} and {y.shape}")
        p, e, step = self.p, self.e, self.matmul_chunk
        n, t = y.shape[-2:]
        shape = x.shape[:-1] + (t,)
        if n == 0:
            return np.zeros(shape, dtype=self.dtype)
        rows, stack = self._tile_rows(t), x.ndim == 3
        if stack:
            r = x.shape[1]
            if r > rows:  # an item fills tiles of its own
                out = np.empty(shape, dtype=self.dtype)
                for i in range(len(x)):
                    out[i] = self.matmul(x[i], y[i])
                return out
            rows = MATMUL_TILE // (e * max(r * n, n * t, r * t, 1)) or 1  # whole items per tile
        word, g, bits = self._packing(n)
        reciprocal = self._reciprocal.get(word)  # p odd: reduce in the word
        if e > 1:
            planes, digits = self._left_planes(g, word), self._packed_planes(1, word)
        if not stack:  # (n, t), or (digit i, n, t), shared by every tile
            right = y.astype(word) if e == 1 else np.take(digits, y, axis=1)
        out = np.empty(shape, dtype=self.dtype)
        for lo in range(0, len(x), rows):
            block, b = x[lo:lo + rows], right if not stack else y[lo:lo + rows]
            if stack:  # this tile's items: (item, n, t), or (item, digit i, n, t)
                b = b.astype(word) if e == 1 else np.take(digits, b, axis=1).transpose(1, 0, 2, 3)
            if e == 1:
                left = block.astype(word)  # ([item,] row, n)
            else:  # (word, [item,] row, power i, n), a view of the gathered (word, i, n, [item,] row)
                left = np.take(planes, block.transpose(2, 0, 1) if stack else block.T, axis=2)
                left = left.transpose(0, 3, 4, 1, 2) if stack else left.transpose(0, 3, 1, 2)
            acc = None
            for start in range(0, n, step):
                a, c = left, b
                if n > step:
                    a, c = a[..., start:start + step], c[..., start:start + step, :]
                if e > 1:
                    k = e * c.shape[-2]
                    if stack:
                        a, c = a.reshape(len(a), *block.shape[:2], k), c.reshape(len(c), k, t)
                    else:
                        a, c = a.reshape(len(a), len(block), k), c.reshape(k, t)
                part = a @ c  # ([word,] [item,] row, t)
                if p == 2:  # index bits; chunks combine by XOR
                    part = part.astype(np.int32 if word is np.float32 else np.int64)
                    if e == 1:
                        part &= 1
                    else:
                        part = _index_bits(part, e, g, bits)
                    acc = part if acc is None else np.bitwise_xor(acc, part, out=acc)
                    continue
                if g > 1:  # (digit, [item,] row, t) sums
                    part = _slot_digits(part, e, g, bits)
                if acc is not None:  # the two residues sum below 2p
                    part = _reduce_mod_p(part, *reciprocal)
                    part += _reduce_mod_p(acc, *reciprocal)
                acc = part
            if p != 2:
                acc = _reduce_mod_p(acc, *reciprocal)
                if e > 1:  # (digit, [item,] row, t) to indices, by Horner's rule
                    value = acc[-1]
                    for d in acc[-2::-1]:
                        value *= reciprocal[1]  # p, in the word
                        value += d
                    acc = value
            out[lo:lo + rows] = acc
        return out

    def _tile_rows(self, t: int) -> int:
        """Rows of one ``matmul`` row tile for t output columns: at most
        ``MATMUL_TILE`` output digits (e per entry), and at least one row."""
        return (MATMUL_TILE // (self.e * t) or 1) if t else MATMUL_TILE

    def _packing(self, n: int) -> tuple[type, int, int]:
        """(word, g, slot bits) of ``matmul`` at inner dimension n
        (``_word_packing`` of its chunk length min(n, matmul_chunk))."""
        return _word_packing(self.p, self.e, min(n, self.matmul_chunk))

    def _packed_planes(self, g: int, word: type) -> np.ndarray:
        """(ceil(e/g), q) table in ``word``, built once per (g, word).

        Column v, row b holds digits b*g .. b*g+g-1 of index v, digit b*g+s
        shifted into slot s (bits s * (f // g) upward, f being the word's
        24 or 53 significand bits).  At g = 1 row k is digit k.
        """
        planes = self._planes.get((g, word))
        if planes is None:
            p, bits = self.p, (np.finfo(word).nmant + 1) // g
            idx = np.arange(self.q, dtype=np.int64)
            words = np.zeros((-(-self.e // g), self.q), dtype=np.int64)
            for j in range(self.e):
                words[j // g] += idx // p**j % p << (j % g * bits)
            planes = self._planes[g, word] = words.astype(word)
        return planes

    def _left_planes(self, g: int, word: type) -> np.ndarray:
        """(ceil(e/g), e, q) table in ``word``: entry [b, i, v] is packed word
        b (``_packed_planes(g, word)``) of x^i * v, x^i being the index p^i.
        One gather through it forms every packed x^i X.  It holds
        ceil(e/g) * e * q words.  In float64 that is 192 bytes over GF(8) at
        g = 3, 32 MB over GF(2^16) at g = 4 and 128 MB at g = 1, so only the
        table of the last g used is kept.  Float32 tables occur only for
        q <= 1849 (see ``matmul``), and hold at most 2 * 1849 float32s
        (15 KB, GF(43^2) at g = 2); the last one is kept beside the float64
        one, so that products alternating between the words rebuild neither.
        """
        if self._fused.get(word, (None,))[0] != g:
            self._fused.pop(word, None)  # drop the old table before building the new one
            idx = np.arange(self.q)
            times_x = np.stack([idx] + [self.mul_arr(self.p**i, idx) for i in range(1, self.e)])
            self._fused[word] = g, np.take(self._packed_planes(g, word), times_x, axis=1)
        return self._fused[word][1]


@lru_cache(maxsize=1024)
def _word_packing(p: int, e: int, w: int) -> tuple[type, int, int]:
    """(word, g, slot bits) of ``FieldSpec.matmul`` over GF(p^e) for chunks of
    w inner indices.

    A slot sums at most bound = w * e * (p-1)^2, so it needs
    b = bound.bit_length() bits.  A word of f significand bits then holds
    g = min(e, f // b) output digits without a carry between their slots of
    f // g bits; in float32 the bound must also stay below 2^22 for p odd,
    where slots are reduced in the word.  The word is float32 when its g needs
    no more words than float64's.
    """
    bound = w * e * (p - 1) ** 2
    b = bound.bit_length() or 1
    g32, g64 = min(e, EXACT_SINGLE_BITS // b), min(e, EXACT_FLOAT_BITS // b)
    if g32 and -(-e // g32) <= -(-e // g64) and (p == 2 or bound < RECIPROCAL_SINGLE_LIMIT):
        return np.float32, g32, EXACT_SINGLE_BITS // g32
    return np.float64, g64, EXACT_FLOAT_BITS // g64


def _reduce_mod_p(z: np.ndarray, c, p) -> np.ndarray:
    """z mod p in place, for a float array z of integers below the limit of
    its word (``RECIPROCAL_SINGLE_LIMIT`` or ``RECIPROCAL_DOUBLE_LIMIT``):
    z - p * floor(z * c), with c = 1/p rounded one float step up and c, p
    scalars of z's word (``FieldSpec._reciprocal``)."""
    quotient = z * c
    np.floor(quotient, out=quotient)
    quotient *= p
    z -= quotient
    return z


def _index_bits(words: np.ndarray, e: int, g: int, bits: int) -> np.ndarray:
    """GF(2^e) indices, as uint32 or uint64, from ``matmul``'s (ceil(e/g), r,
    t) int32 or int64 product words: bit j is bit 0 of slot j % g of word
    j // g, the parity of output digit j.  Each group of ``_gather_steps``
    costs four passes over its word (mask, multiply, shift, mask) and one OR."""
    unsigned = np.uint32 if words.itemsize == 4 else np.uint64
    words = words.view(unsigned)
    value = None
    for b, mask, gather, shift, keep in _gather_steps(e, g, bits, unsigned):
        part = np.bitwise_and(words[b], mask)
        part *= gather
        if shift:
            part >>= shift
        part &= keep
        value = part if value is None else np.bitwise_or(value, part, out=value)
    return value


@lru_cache(maxsize=None)
def _gather_steps(e: int, g: int, bits: int, unsigned: type) -> tuple[tuple, ...]:
    """Per group of slots, ``_index_bits``'s (word, mask, multiplier, right
    shift, output mask), the constants as explicit ``unsigned`` (uint32 or
    uint64) scalars, so that numpy 1.x and 2.x both keep every operation in
    the word's unsigned type and none is promoted.

    One multiply gathers k slots s0 .. s0+k-1 of a word into output bits
    j .. j+k-1.  With their bit 0s masked, the word times
    sum_s 2^(T + s - (s0+s) * bits),  where T = max(j, s0 * bits + (k-1) *
    (bits-1)) keeps every exponent >= 0, puts the parity of slot s0+s at bit
    T + s; a right shift by T - j moves it to bit j + s.  The k^2 partial
    products are single bits at T + s' * bits - s * (bits-1) for slot s0+s'
    and term s (bits past 2^32 or 2^64 drop off and carry nowhere); as bits
    and bits - 1 are coprime these differ whenever k <= bits, so nothing
    carries, and the cross terms land outside T .. T+k-1.  T + k - 1 is
    below 16 or below (g-1) * bits < 24 in float32 words (53 in float64), so
    the gathered bits fit either unsigned word.  bits is 24 // g or 53 // g,
    so k = g for g <= 4 in float32 and g <= 7 in float64; larger g take
    sub-groups of at most bits slots.
    """
    steps, j = [], 0
    while j < e:
        b, s0 = divmod(j, g)
        k = min(bits, g - s0, e - j)
        top = max(j, s0 * bits + (k - 1) * (bits - 1))
        steps.append((
            b,
            unsigned(sum(1 << (s0 + s) * bits for s in range(k))),
            unsigned(sum(1 << top + s - (s0 + s) * bits for s in range(k))),
            unsigned(top - j),
            unsigned(((1 << k) - 1) << j),
        ))
        j += k
    return tuple(steps)


def _slot_digits(words: np.ndarray, e: int, g: int, bits: int) -> np.ndarray:
    """(e, r, t) base-p digit sums, in the word, from ``matmul``'s
    (ceil(e/g), r, t) float product words: digit j is slot j % g of word
    j // g.  Row s::g first takes floor(word * 2^(-s * bits)), the slots s
    and up; less 2^bits times the next row's, it keeps slot s alone.  Every
    step is exact (proof in ``matmul``)."""
    word = words.dtype.type
    digits = np.empty((e,) + words.shape[1:], dtype=words.dtype)
    digits[::g] = words
    for s in range(1, g):
        high = digits[s::g]
        np.multiply(words[:len(high)], word(2.0 ** (-s * bits)), out=high)
        np.floor(high, out=high)
    for s in range(g - 1):
        high = digits[s + 1::g]
        digits[s::g][:len(high)] -= high * word(2.0**bits)
    return digits


def _factor_prime_power(q: int) -> tuple[int, int]:
    if q < 2:
        raise ParameterError(f"{q} is not a prime power")
    p = min(d for d in range(2, q + 1) if q % d == 0)
    e = 0
    n = q
    while n % p == 0:
        n //= p
        e += 1
    if n != 1:
        raise ParameterError(f"{q} is not a prime power")
    return p, e

