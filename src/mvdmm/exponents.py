"""Combinatorics of exponent vectors for multivariate evaluation codes.

Everything here is pure integer combinatorics over the box N_{<q}^l: the
exponent reduction that mirrors x^q = x, reduced Minkowski sums, footprint
values, hyperbolic sets, and the recursive size formulas that make the large
cases (e.g. l = 20) tractable without enumeration.  No field arithmetic is
involved; q is any natural number >= 2.

An ExponentSet keeps its members as one read-only numpy array of distinct
rows in lexicographic order.  Sums, footprints, hyperbolic sets and supports
are computed on that array; tuples of Python ints are built only for
callers that iterate over the set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Iterator

import numpy as np

from .errors import CapacityError, InfeasibleError, ParameterError, RangeError

Vec = tuple[int, ...]

# Cap on explicit set enumerations (hyp_set and friends).
DEFAULT_ENUM_LIMIT = 1 << 22


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


@dataclass(frozen=True, eq=False)
class ExponentSet:
    """A finite set of exponent vectors sharing one (q, l).

    ``rows`` is the only stored data: a read-only (len, l) array of the
    distinct members in lexicographic order, of the smallest unsigned dtype
    that holds q - 1.  So equality is set equality and iteration order is
    deterministic.  ``vectors`` is the same set as a tuple of tuples of
    Python ints, built on first use.
    """

    q: int
    l: int
    rows: np.ndarray

    def __post_init__(self) -> None:
        self.rows.setflags(write=False)

    @classmethod
    def of(cls, q: int, l: int, vectors: Iterable[Iterable[int]] | np.ndarray) -> "ExponentSet":
        """Validate, sort and deduplicate vectors given as integer sequences
        or as a 2-D integer array."""
        rows = _int_rows(q, l, vectors)
        outside = ((rows < 0) | (rows >= q)).any(axis=1)
        if outside.any():
            v = tuple(rows[outside.argmax()].tolist())
            raise RangeError(f"vector {v} has entries outside [0, {q})")
        return cls(q, l, _distinct_rows(rows.astype(np.min_scalar_type(q - 1))))

    @cached_property
    def vectors(self) -> tuple[Vec, ...]:
        return tuple(map(tuple, self.rows.tolist()))

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[Vec]:
        return iter(self.vectors)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExponentSet):
            return NotImplemented
        return self.q == other.q and self.l == other.l and np.array_equal(self.rows, other.rows)

    def __hash__(self) -> int:
        return hash((self.q, self.l, self.rows.tobytes()))

    def to_text(self) -> str:
        return "".join(format_vec(v) + "\n" for v in self.vectors)


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


def minkowski_sum_q(a: ExponentSet, b: ExponentSet) -> ExponentSet:
    """Pairwise sums reduced coordinatewise; duplicates collapse.

    Sums are formed in the smallest dtype that holds 2q - 2, in chunks of
    A's rows holding at most 16 MiB of sums to bound peak memory.  Each
    chunk's distinct rows are kept in the sets' row dtype, and more than one
    chunk is merged the same way.
    """
    _same_frame(a, b)
    q, l = a.q, a.l
    wide = np.min_scalar_type(2 * q - 2)
    av, bv = a.rows.astype(wide), b.rows.astype(wide)
    chunk = max(1, (1 << 24) // max(1, len(b) * l * wide.itemsize))
    parts = [np.empty((0, l), dtype=a.rows.dtype)]
    for start in range(0, len(a), chunk):
        s = av[start:start + chunk, None, :] + bv[None, :, :]
        np.subtract(s, q - 1, out=s, where=s >= q)  # x^q = x: q + r reduces to r + 1
        parts.append(_distinct_rows(s.reshape(-1, l).astype(a.rows.dtype, copy=False)))
    # A single chunk is already distinct and sorted.
    rows = parts[1] if len(parts) == 2 else _distinct_rows(np.concatenate(parts))
    return ExponentSet(q, l, rows)


def _distinct_rows(rows: np.ndarray) -> np.ndarray:
    """The distinct rows of a 2-D array, in lexicographic order."""
    rows = rows[np.lexsort(rows.T[::-1])]
    keep = np.ones(len(rows), dtype=bool)
    keep[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    return rows[keep]


def fb(s: ExponentSet) -> FootprintValue:
    """Footprint value of a set: the worst (smallest) vanishing budget.

    The budgets are int64 when q^l < 2^63 (no product can wrap) and exact
    Python ints otherwise.  Rows are sorted, so the first minimum is the
    lexicographically least witness.
    """
    if not len(s):
        raise ParameterError("footprint of an empty set is undefined")
    exact = np.int64 if s.q**s.l < 1 << 63 else object
    budgets = np.subtract(s.q, s.rows.T, dtype=exact).prod(axis=0)
    i = int(np.argmin(budgets))
    return FootprintValue(int(budgets[i]), tuple(s.rows[i].tolist()))


def delta(s: ExponentSet) -> int:
    """Largest possible zero count of a nonzero function spanned by S's monomials.

    Equals q^l - fb(S): a recovery threshold of delta(S) + 1 evaluations.
    """
    return s.q**s.l - fb(s).value


def hyp_set(q: int, l: int, f: int, limit: int = DEFAULT_ENUM_LIMIT) -> ExponentSet:
    """All vectors of N_{<q}^l whose vanishing budget prod(q - a_i) is >= f.

    Built one coordinate at a time in lexicographic order: a prefix of
    length j survives while its budget times q^(l - j), the most the
    remaining coordinates can contribute, still reaches f.
    """
    if q**l > limit:
        raise CapacityError(f"q^l = {q**l} exceeds enumeration limit {limit}")
    digits = np.arange(q, dtype=np.min_scalar_type(q - 1))
    factors = q - np.arange(q, dtype=np.int64)
    rows = np.empty((1, 0), dtype=digits.dtype)
    budget = np.ones(1, dtype=np.int64)
    for j in range(1, l + 1):
        n = len(rows)
        rows = np.hstack([np.repeat(rows, q, axis=0), np.tile(digits, n)[:, None]])
        budget = np.repeat(budget, q) * np.tile(factors, n)
        keep = budget * q ** (l - j) >= f
        rows, budget = rows[keep], budget[keep]
    return ExponentSet(q, l, rows)


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
