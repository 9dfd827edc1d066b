"""Combinatorics of exponent vectors for multivariate evaluation codes.

Everything here is pure integer combinatorics over the box N_{<q}^l: the
exponent reduction that mirrors x^q = x, reduced Minkowski sums, footprint
values, hyperbolic sets, and the recursive size formulas that make the large
cases (e.g. l = 20) tractable without enumeration.  No field arithmetic is
involved; q is any natural number >= 2.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
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


@dataclass(frozen=True)
class ExponentSet:
    """A finite set of exponent vectors sharing one (q, l).

    Vectors are stored sorted lexicographically, so equality is set equality
    and iteration order is deterministic.
    """

    q: int
    l: int
    vectors: tuple[Vec, ...]

    @classmethod
    def of(cls, q: int, l: int, vectors: Iterable[Iterable[int]]) -> "ExponentSet":
        vecs = sorted({tuple(int(x) for x in v) for v in vectors})
        for v in vecs:
            if len(v) != l:
                raise ParameterError(f"vector {v} has length {len(v)}, expected {l}")
            if any(not 0 <= x < q for x in v):
                raise RangeError(f"vector {v} has entries outside [0, {q})")
        return cls(q, l, tuple(vecs))

    def __len__(self) -> int:
        return len(self.vectors)

    def __iter__(self) -> Iterator[Vec]:
        return iter(self.vectors)

    def to_text(self) -> str:
        return "".join(format_vec(v) + "\n" for v in self.vectors)

    @classmethod
    def from_text(cls, q: int, l: int, text: str) -> "ExponentSet":
        vecs = [parse_vec(line) for line in text.splitlines() if line.strip()]
        return cls.of(q, l, vecs)


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

    A's rows go in chunks of at most 2^21 sum entries to bound peak memory;
    each chunk's distinct rows are kept in the smallest dtype that holds
    q - 1, and the chunks are merged the same way.
    """
    _same_frame(a, b)
    q, l = a.q, a.l
    av = np.asarray(a.vectors, dtype=np.int64).reshape(-1, l)
    bv = np.asarray(b.vectors, dtype=np.int64).reshape(-1, l)
    dtype = np.min_scalar_type(q - 1)
    chunk = max(1, (1 << 21) // max(1, len(b) * l))
    parts = [np.empty((0, l), dtype=dtype)]
    for start in range(0, len(a), chunk):
        s = av[start:start + chunk, None, :] + bv[None, :, :]
        s = np.where(s < q, s, s % q + 1).astype(dtype)
        parts.append(_distinct_rows(s.reshape(-1, l)))
    rows = _distinct_rows(np.concatenate(parts))
    return ExponentSet(q, l, tuple(map(tuple, rows.tolist())))


def _distinct_rows(rows: np.ndarray) -> np.ndarray:
    """The distinct rows of a 2-D array, in lexicographic order."""
    rows = rows[np.lexsort(rows.T[::-1])]
    keep = np.ones(len(rows), dtype=bool)
    keep[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    return rows[keep]


def fb(s: ExponentSet) -> FootprintValue:
    """Footprint value of a set: the worst (smallest) vanishing budget."""
    if not s.vectors:
        raise ParameterError("footprint of an empty set is undefined")
    best_value = None
    best_witness = None
    for v in s.vectors:  # lexicographic order, so first minimum is the least witness
        value = math.prod(s.q - x for x in v)
        if best_value is None or value < best_value:
            best_value = value
            best_witness = v
    return FootprintValue(best_value, best_witness)


def delta(s: ExponentSet) -> int:
    """Largest possible zero count of a nonzero function spanned by S's monomials.

    Equals q^l - fb(S): a recovery threshold of delta(S) + 1 evaluations.
    """
    return s.q**s.l - fb(s).value


def hyp_set(q: int, l: int, f: int, limit: int = DEFAULT_ENUM_LIMIT) -> ExponentSet:
    """All vectors of N_{<q}^l whose vanishing budget prod(q - a_i) is >= f."""
    if q**l > limit:
        raise CapacityError(f"q^l = {q**l} exceeds enumeration limit {limit}")
    if f <= 1:
        return ExponentSet(q, l, tuple(itertools.product(range(q), repeat=l)))
    out: list[Vec] = []

    def extend(prefix: list[int], budget: int, level: int) -> None:
        if level == l:
            out.append(tuple(prefix))
            return
        for a in range(q):
            rem = budget * (q - a)
            # Remaining coordinates can contribute at most q^(l - level - 1).
            if rem * q ** (l - level - 1) < f:
                break  # larger a only shrinks the budget
            prefix.append(a)
            extend(prefix, rem, level + 1)
            prefix.pop()

    extend([], 1, 0)
    return ExponentSet(q, l, tuple(out))


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
    out = set()
    for v in s.vectors:
        for i, x in enumerate(v):
            if x:
                out.add(i + 1)
    return frozenset(out)
