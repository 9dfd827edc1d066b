"""Combinatorics of exponent vectors for multivariate evaluation codes.

Everything here is pure integer combinatorics over the box N_{<q}^l: the
exponent reduction that mirrors x^q = x, reduced Minkowski sums, footprint
values, budget sets (the hyperbolic sets and the constructions' degree
sets), and the recursive size formulas that make the large cases (e.g.
l = 20) tractable without enumeration.  No field arithmetic is
involved; q is any natural number >= 2.

An ExponentSet keeps its members as one read-only numpy array of their
row-major grid indices, sorted and distinct: a vector a has index
sum_i a_i q^(l-1-i), the codec's numbering of points and exponents alike,
so index order is lexicographic order.  The indices are int64 when
q^l < 2^63 and exact Python ints (an object array) above, where int64 would
wrap.  Reduced sums add indices and correct the coordinates that wrap,
deduplication is one sort of that key column, and footprints multiply
per-group table lookups.  The (len, l) array of exponents and the tuples of
Python ints are decoded only for callers that read them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import CapacityError, InfeasibleError, ParameterError, RangeError

Vec = tuple[int, ...]

# Cap on explicit set enumerations (hyp_set and friends).
DEFAULT_ENUM_LIMIT = 1 << 22

# Digit and budget tables cover groups of coordinates with at most this many values.
_GROUP_SIZE = 4096

# minkowski_sum_q forms at most this many sums at once (16 MiB of int64 keys).
_SUM_CHUNK = 1 << 21


def reduce_q(a: int, q: int) -> int:
    """Reduce an exponent sum to its canonical representative in [0, q).

    Exponents live in [0, q) because x^q and x define the same function; a
    sum of two reduced exponents is at most 2q - 2 and wraps to
    (a mod q) + 1 rather than a mod q since x^q = x, not 1.  The value
    2q - 1 cannot arise from such a sum and would wrap out of range, so it
    is rejected along with everything above it.
    """
    if not 0 <= a <= 2 * q - 2:
        raise RangeError(f"exponent {a} outside the reducible range [0, {2 * q - 2}]")
    return a if a < q else (a % q) + 1


def reduce_q_vec(v: Iterable[int], q: int) -> Vec:
    return tuple(reduce_q(a, q) for a in v)


@lru_cache(maxsize=None)
def radix(q: int, l: int) -> np.ndarray:
    """Place values q^(l-1-i) of the row-major grid index on {0..q-1}^l,
    read-only: int64 when q^l < 2^63, exact Python ints (object) above."""
    out = np.array([q ** (l - 1 - i) for i in range(l)], dtype=np.int64 if q**l < 1 << 63 else object)
    out.setflags(write=False)
    return out


def vector_at(q: int, l: int, key: int) -> Vec:
    """The vector of {0..q-1}^l with row-major grid index `key`, as Python ints."""
    key = int(key)
    return tuple(key // q ** (l - 1 - i) % q for i in range(l))


@dataclass(frozen=True, eq=False)
class ExponentSet:
    """A finite set of exponent vectors sharing one (q, l).

    ``index`` is the only stored data: a read-only 1-D array of the members'
    row-major grid indices, ascending and distinct, in ``radix(q, l)``'s
    dtype (int64 when q^l < 2^63, Python ints above).  So equality is set
    equality and iteration order is lexicographic.  ``rows`` is the same set
    as a read-only (len, l) array in the smallest unsigned dtype that holds
    q - 1, and ``vectors`` as a tuple of tuples of Python ints; both are
    decoded on first use.
    """

    q: int
    l: int
    index: np.ndarray

    def __post_init__(self) -> None:
        self.index.setflags(write=False)

    @classmethod
    def of(cls, q: int, l: int, vectors: Iterable[Iterable[int]] | np.ndarray) -> "ExponentSet":
        """Validate, sort and deduplicate vectors given as integer sequences
        or as a 2-D integer array."""
        rows = _int_rows(q, l, vectors)
        outside = ((rows < 0) | (rows >= q)).any(axis=1)
        if outside.any():
            v = tuple(rows[outside.argmax()].tolist())
            raise RangeError(f"vector {v} has entries outside [0, {q})")
        return cls(q, l, _distinct(rows @ radix(q, l)))

    @cached_property
    def rows(self) -> np.ndarray:
        rows = np.empty((len(self.index), self.l), dtype=np.min_scalar_type(self.q - 1))
        for start, width, values in _groups(self):
            rows[:, start:start + width] = values[:, None] if width == 1 else _digits(self.q, width)[values]
        rows.setflags(write=False)
        return rows

    @cached_property
    def vectors(self) -> tuple[Vec, ...]:
        return tuple(map(tuple, self.rows.tolist()))

    def __len__(self) -> int:
        return len(self.index)

    def __iter__(self) -> Iterator[Vec]:
        return iter(self.vectors)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExponentSet):
            return NotImplemented
        return self.q == other.q and self.l == other.l and np.array_equal(self.index, other.index)

    def __hash__(self) -> int:
        keys = self.index.tobytes() if self.index.dtype != object else tuple(self.index.tolist())
        return hash((self.q, self.l, keys))

    def to_text(self) -> str:
        return "".join(format_vec(v) + "\n" for v in self.vectors)


def _distinct(keys: np.ndarray) -> np.ndarray:
    """The distinct values of a 1-D key array, ascending: one sort, then
    equal neighbours dropped."""
    keys = np.sort(keys)
    keep = np.ones(len(keys), dtype=bool)
    keep[1:] = keys[1:] != keys[:-1]
    return keys if keep.all() else keys[keep]


@lru_cache(maxsize=None)
def _spans(q: int, l: int) -> tuple[tuple[int, int], ...]:
    """(first coordinate, width) of the runs of consecutive coordinates, from
    the first, whose joint values fit a table of at most _GROUP_SIZE entries
    (one coordinate when q itself is larger)."""
    width = 1
    while q ** (width + 1) <= _GROUP_SIZE:
        width += 1
    return tuple((start, min(width, l - start)) for start in range(0, l, width))


def _groups(s: ExponentSet) -> Iterator[tuple[int, int, np.ndarray]]:
    """(first coordinate, width, int64 values in [0, q^width)) of each run of
    `_spans`, read off the members' indices."""
    q = s.q
    for start, width in _spans(q, s.l):
        place = q ** (s.l - start - width)
        values = s.index // place if place > 1 else s.index
        if start:
            values = values % q**width
        yield start, width, values.astype(np.int64, copy=False)


@lru_cache(maxsize=None)
def _digits(q: int, width: int) -> np.ndarray:
    """The digits of each of the q^width values of a coordinate group, in the
    row dtype, read-only."""
    digits = np.arange(q**width, dtype=np.int64)[:, None] // radix(q, width) % q
    digits = digits.astype(np.min_scalar_type(q - 1))
    digits.setflags(write=False)
    return digits


@lru_cache(maxsize=None)
def _hyp_factors(q: int, l: int) -> np.ndarray:
    """The one-budget factor table of the vanishing budget prod(q - a_i)."""
    return np.broadcast_to(q - np.arange(q, dtype=np.int64), (1, l, q))


@lru_cache(maxsize=256)
def _run(q: int, shape: tuple[int, int], data: bytes) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]]:
    """For a run of coordinates, given by the bytes of its int64 (budgets,
    width, q) slice of a factor table: the values with no zero factor, each
    budget's product over the run at them, and each budget's largest product
    (0 if none is left), read-only."""
    factors = np.frombuffer(data, dtype=np.int64).reshape(shape + (q,))
    products = factors[:, np.arange(shape[1]), _digits(q, shape[1])].prod(axis=2)
    keep = (products > 0).all(axis=0)
    values, products = np.flatnonzero(keep), products[:, keep]
    values.setflags(write=False)
    products.setflags(write=False)
    return values, products, tuple(products.max(axis=1, initial=0).tolist())


def _int_rows(q: int, l: int, vectors: Iterable[Iterable[int]] | np.ndarray) -> np.ndarray:
    """`vectors` as an (n, l) int64 array; ParameterError names the first
    vector that is not a sequence of l integers (bools excluded)."""
    if isinstance(vectors, np.ndarray):
        if vectors.dtype.kind not in "iu" or vectors.ndim != 2 or vectors.shape[1] != l:
            raise ParameterError(
                f"need an integer array of shape (n, {l}), got {vectors.dtype} {vectors.shape}"
            )
        return vectors.astype(np.int64)
    vecs = []
    for v in vectors:
        try:
            v = tuple(v)
        except TypeError:
            raise ParameterError(f"vector {v!r} is not a sequence of integers") from None
        if len(v) != l:
            raise ParameterError(f"vector {v} has length {len(v)}, expected {l}")
        if not all(isinstance(x, (int, np.integer)) and not isinstance(x, bool) for x in v):
            raise ParameterError(f"vector {v} has non-integer entries")
        vecs.append(v)
    try:
        return np.array(vecs, dtype=np.int64).reshape(len(vecs), l)
    except OverflowError:
        v = next(v for v in vecs if not all(0 <= x < q for x in v))
        raise RangeError(f"vector {v} has entries outside [0, {q})") from None


def format_vec(v: Vec) -> str:
    return "(" + ",".join(str(x) for x in v) + ")"


def parse_vec(text: str) -> Vec:
    inner = text.strip()
    if inner.startswith("(") and inner.endswith(")"):
        inner = inner[1:-1]
    if not inner:
        return ()
    try:
        return tuple(int(x) for x in inner.split(","))
    except ValueError:
        raise ParameterError(f"vector {text!r} is not a comma-separated list of integers") from None


@dataclass(frozen=True)
class FootprintValue:
    """min over c in S of prod(q - c_i), with a lexicographically least witness."""

    value: int
    witness: Vec


def _same_frame(a: ExponentSet, b: ExponentSet) -> None:
    if a.q != b.q or a.l != b.l:
        raise ParameterError(f"(q, l) mismatch: ({a.q},{a.l}) vs ({b.q},{b.l})")


def pair_sums(a: ExponentSet, b: ExponentSet, lo: int = 0, hi: int | None = None) -> np.ndarray:
    """Grid indices of the reduced sums of A's members lo..hi-1 (all of them
    by default) with each of B's: shape (hi - lo, len(b)), in radix(q, l)'s
    dtype and in the order of the pairs (a, b).

    Adding two indices adds their vectors coordinatewise.  A coordinate i
    whose sum reaches q wraps to sum - (q - 1), because x^q = x, which takes
    (q - 1) q^(l-1-i) off the index.  Only coordinates with
    max a_i + max b_i >= q can wrap, and only those are decoded.  int64 keys
    are added as uint64: two indices below 2^63 can sum past it before the
    corrections bring them back.
    """
    _same_frame(a, b)
    q, l = a.q, a.l
    exact = a.index.dtype == object
    wide = object if exact else np.uint64
    sums = np.add.outer(a.index[lo:hi].astype(wide), b.index.astype(wide))
    top = a.rows.max(axis=0, initial=0).astype(np.int64) + b.rows.max(axis=0, initial=0)
    for i in np.flatnonzero(top >= q).tolist():
        wraps = np.add.outer(a.rows[lo:hi, i].astype(np.int64), b.rows[:, i]) >= q
        step = (q - 1) * q ** (l - 1 - i)
        np.subtract(sums, step if exact else np.uint64(step), out=sums, where=wraps)
    return sums if exact else sums.view(np.int64)


def minkowski_sum_q(a: ExponentSet, b: ExponentSet) -> ExponentSet:
    """Pairwise sums reduced coordinatewise; duplicates collapse.

    The sums are `pair_sums` indices, formed for chunks of A's members
    holding at most _SUM_CHUNK sums to bound peak memory.  Each chunk is
    sorted and its equal neighbours dropped, and more than one chunk is
    merged the same way.
    """
    chunk = max(1, _SUM_CHUNK // max(1, len(b)))
    parts = [_distinct(pair_sums(a, b, lo, lo + chunk).ravel()) for lo in range(0, max(1, len(a)), chunk)]
    return ExponentSet(a.q, a.l, parts[0] if len(parts) == 1 else _distinct(np.concatenate(parts)))


def fb(s: ExponentSet) -> FootprintValue:
    """Footprint value of a set: the worst (smallest) vanishing budget.

    Each member's budget prod(q - a_i) is a product of per-group table
    lookups (`_groups`), in radix(q, l)'s dtype: int64 when q^l < 2^63 (no
    product can wrap) and exact Python ints otherwise.  Members are sorted,
    so the first minimum is the lexicographically least witness, and only
    the witness is decoded.
    """
    if not len(s):
        raise ParameterError("footprint of an empty set is undefined")
    budgets = np.ones(len(s), dtype=s.index.dtype)
    for _, width, values in _groups(s):
        table = _run(s.q, (1, width), _hyp_factors(s.q, width).tobytes())[1][0]
        budgets = budgets * table[values].astype(s.index.dtype, copy=False)
    i = int(np.argmin(budgets))
    return FootprintValue(int(budgets[i]), vector_at(s.q, s.l, s.index[i]))


def delta(s: ExponentSet) -> int:
    """Largest possible zero count of a nonzero function spanned by S's monomials.

    Equals q^l - fb(S): a recovery threshold of delta(S) + 1 evaluations.
    """
    return s.q**s.l - fb(s).value


def budget_set(q: int, factors: np.ndarray, floors: Sequence[int]) -> ExponentSet:
    """All vectors a of N_{<q}^l with prod_i factors[j, i, a_i] >= floors[j]
    for every budget j.

    `factors` is a (budgets, l, q) table of integers in [0, q], so no
    product passes q^l and the products can share radix(q, l)'s dtype.
    Floors below 1 count as 1, so a zero factor rules its value out.  Built
    one run of `_spans` coordinates at a time in lexicographic order, from
    cached run tables: a prefix survives while each budget's product, times
    the most the remaining runs can contribute, still reaches its floor.
    """
    factors = np.asarray(factors, dtype=np.int64)
    n, l = factors.shape[:2]
    runs = [(width, *_run(q, (n, width), factors[:, start:start + width].tobytes()))
            for start, width in _spans(q, l)]
    rest = [(1,) * n]  # rest[k][j]: budget j's largest product over the runs after run k
    for *_, top in reversed(runs):
        rest.insert(0, tuple(x * y for x, y in zip(top, rest[0])))
    floors = [max(1, int(f)) for f in floors]
    keys = np.zeros(1, dtype=radix(q, l).dtype)
    if any(top < f for top, f in zip(rest[0], floors)):
        return ExponentSet(q, l, keys[:0])
    budget = np.ones((n, 1), dtype=keys.dtype)
    for (width, values, products, _), after in zip(runs, rest[1:]):
        keys = np.add.outer(keys * q**width, values.astype(keys.dtype)).ravel()
        budget = (budget[:, :, None] * products[:, None, :].astype(keys.dtype)).reshape(n, -1)
        need = np.array([-(-f // r) for f, r in zip(floors, after)], dtype=keys.dtype)
        keep = (budget >= need[:, None]).all(axis=0)
        keys, budget = keys[keep], budget.compress(keep, axis=1)
    return ExponentSet(q, l, keys)


def hyp_set(q: int, l: int, f: int, limit: int = DEFAULT_ENUM_LIMIT) -> ExponentSet:
    """All vectors of N_{<q}^l whose vanishing budget prod(q - a_i) is >= f."""
    if q**l > limit:
        raise CapacityError(f"q^l = {q**l} exceeds enumeration limit {limit}")
    return budget_set(q, _hyp_factors(q, l), [f])


@lru_cache(maxsize=None)
def hyp_size(q: int, l: int, f: int) -> int:
    """|hyp_set(q, l, f)| by recurrence; no enumeration, safe for huge q^l."""
    if l < 1:
        raise ParameterError(f"need l >= 1, got {l}")
    if f <= 1:
        return q**l
    if f > q**l:
        return 0
    if l == 1:
        return max(0, q - f + 1)
    return sum(hyp_size(q, l - 1, -(-f // i)) for i in range(1, q + 1))


def hyp2_size(l: int, f: int) -> int:
    """Closed form for q = 2: sum of binomials up to weight l - ceil(log2 f)."""
    if f < 1:
        f = 1
    top = l - (f - 1).bit_length()  # ceil(log2 f) for f >= 1
    if top < 0:
        return 0
    return sum(math.comb(l, i) for i in range(top + 1))


def xi_bound(q: int, l: int, target: int) -> int:
    """Largest f such that the hyperbolic set still holds `target` vectors.

    Upper-bounds the footprint value of any non-colliding pair of degree sets
    whose reduced sum has `target` elements.
    """
    if target < 1:
        raise ParameterError(f"target must be >= 1, got {target}")
    if target > q**l:
        raise InfeasibleError(f"target {target} exceeds q^l = {q**l}")
    lo, hi = 1, q**l
    while lo < hi:  # hyp_size is nonincreasing in f
        mid = (lo + hi + 1) // 2
        if hyp_size(q, l, mid) >= target:
            lo = mid
        else:
            hi = mid - 1
    return lo


def support(s: ExponentSet) -> frozenset[int]:
    """1-based coordinates where some member of S is nonzero."""
    return frozenset((np.flatnonzero(s.rows.any(axis=0)) + 1).tolist())
