"""Degree-set constructions for distributed matrix multiplication.

Two families of solutions are built here.  Polynomial splittings pick degree
sets D_A, D_B whose reduced Minkowski sum has no collisions, so every block
product owns one coefficient of the worker polynomial product.  Matdot
splittings instead make exactly m pairs collide on one target exponent d, so
the full product A.B is the single coefficient at x^d.

Every construction enumerates its sets explicitly, as grid indices.  Boxes,
better-box's D_B and the half-hyperbolic matdot set are budget sets: the
vectors a with prod_i f_i(a_i) >= F for per-coordinate factors f_i, listed
by exponents.budget_set.  Separated variables place two hyperbolic sets on
disjoint coordinates by index arithmetic.  The recursive size formulas
(db_size, d_size, hyp_size) are independent cross-checks, and any mismatch
raises InternalConsistencyError instead of being silently accepted.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

import numpy as np

from . import exponents
from .errors import (
    CapacityError,
    InfeasibleError,
    InternalConsistencyError,
    ParameterError,
)
from .exponents import ExponentSet, FootprintValue, Vec, minkowski_sum_q, reduce_q_vec

# Above this D_A x D_B size, pairwise sum enumeration is skipped for
# constructions whose non-collision is structural (disjoint variable blocks).
_SUM_ENUM_LIMIT = 1 << 18

DEFAULT_SEARCH_LIMIT = 10**6


# ---------------------------------------------------------------------------
# solution containers


@dataclass(frozen=True)
class _Solution:
    """Degree sets D_A, D_B with the footprint of their summed set.

    ``footprint`` is the achieved footprint value of the summed degree set;
    ``design_footprint`` is the lower bound the construction guarantees.
    """

    q: int
    l: int
    d_a: ExponentSet
    d_b: ExponentSet
    footprint: FootprintValue
    design_footprint: int
    xi: int
    sum_size: int

    @property
    def m(self) -> int:
        return len(self.d_a)

    @property
    def recovery_threshold(self) -> int:
        return self.q**self.l - self.footprint.value + 1

    @property
    def design_threshold(self) -> int:
        return self.q**self.l - self.design_footprint + 1

    def sum_set(self) -> ExponentSet:
        return minkowski_sum_q(self.d_a, self.d_b)


@dataclass(frozen=True)
class PolySolution(_Solution):
    """A validated polynomial splitting: row blocks of A times column blocks of B.

    For the box and separated-variables families the achieved and designed
    footprints coincide.
    """

    @property
    def n(self) -> int:
        return len(self.d_b)


@dataclass(frozen=True)
class MatdotSolution(_Solution):
    """A validated matdot splitting: A.B is the coefficient at x^d.

    ``block_order`` holds the m matched (a, d - a) couples as two read-only
    arrays of grid indices, the a's and the b's in pair order (ascending
    a): the order in which codec.encode places A's and B's blocks.
    ``removable_coords`` are
    1-based coordinates where d is zero (droppable via project_zero_coords).
    The quoted threshold of the scheme is ``design_threshold``; the achieved
    footprint of the explicit sum set can be strictly better.
    """

    degree_target: Vec
    removable_coords: tuple[int, ...]
    block_order: tuple[np.ndarray, np.ndarray] = field(compare=False, repr=False)


# ---------------------------------------------------------------------------
# shared factory helpers


def _box(q: int, upper: Sequence[int]) -> ExponentSet:
    """The box {a : a_i < upper_i}: a budget set whose factors are 0 or 1."""
    return exponents.budget_set(q, (np.arange(q) < np.array(upper)[:, None])[None], [1])


def _star(k: Sequence[int], s: ExponentSet) -> ExponentSet:
    """Coordinatewise product k * s, the expansion that prevents collisions."""
    return ExponentSet.of(s.q, s.l, s.rows.astype(np.int64) * np.asarray(k, dtype=np.int64))


def _translate(s: ExponentSet) -> ExponentSet:
    """Shift coordinate minima to zero; the shift never hurts the footprint."""
    mins = s.rows.min(axis=0)
    if not mins.any():
        return s
    return ExponentSet.of(s.q, s.l, s.rows - mins)


def _poly_solution(
    q: int,
    l: int,
    d_a: ExponentSet,
    d_b: ExponentSet,
    design_footprint: int,
    structural: bool = False,
) -> PolySolution:
    if not len(d_a) or not len(d_b):
        raise InfeasibleError("degree sets must be nonempty")
    m, n = len(d_a), len(d_b)
    if structural and m * n > _SUM_ENUM_LIMIT:
        # Disjoint variable blocks: sums are concatenations, so they are
        # pairwise distinct and the minimum factors over the two blocks; the
        # witness is the sum of the per-set witnesses.
        sum_size = m * n
        fa = exponents.fb(d_a)
        fbv = exponents.fb(d_b)
        witness = tuple(x + y for x, y in zip(fa.witness, fbv.witness))
        footprint = FootprintValue(math.prod(q - w for w in witness), witness)
    else:
        summed = minkowski_sum_q(d_a, d_b)
        sum_size = len(summed)
        if sum_size != m * n:
            raise InternalConsistencyError(
                f"construction produced colliding sums: |sum| = {sum_size}, expected {m * n}"
            )
        footprint = exponents.fb(summed)
    xi = exponents.xi_bound(q, l, sum_size)
    if footprint.value > xi:
        raise InternalConsistencyError(
            f"achieved footprint {footprint.value} exceeds hyperbolic bound {xi}"
        )
    if footprint.value < design_footprint:
        raise InternalConsistencyError(
            f"achieved footprint {footprint.value} below designed {design_footprint}"
        )
    return PolySolution(
        q=q, l=l, d_a=d_a, d_b=d_b, footprint=footprint,
        design_footprint=design_footprint, xi=xi, sum_size=sum_size,
    )


def matdot_from_sets(
    q: int, l: int, d_a: ExponentSet, d_b: ExponentSet, degree_target: Sequence[int],
    design_footprint: int | None = None,
) -> MatdotSolution:
    """Validate raw degree sets as a matdot splitting with target d.

    Raises ParameterError unless exactly m reduced pairwise sums hit d, one
    per member of each set.
    """
    d = tuple(int(x) for x in degree_target)
    if len(d) != l:
        raise ParameterError(f"target degree {d} has length {len(d)}, expected {l}")
    if len(d_a) != len(d_b):
        raise ParameterError(f"|D_A| = {len(d_a)} != |D_B| = {len(d_b)}")
    m = len(d_a)
    hit_a = hit_b = np.empty(0, dtype=np.intp)  # positions in D_A and D_B of each pair
    if all(0 <= x < q for x in d):  # a reduced sum never leaves [0, q)
        target = sum(x * q ** (l - 1 - i) for i, x in enumerate(d))
        hit_a, hit_b = np.nonzero(exponents.pair_sums(d_a, d_b) == target)
    if len(hit_a) != m:
        raise ParameterError(
            f"{len(hit_a)} pairs sum to the target degree, need exactly {m}"
        )
    if not all(np.array_equal(np.sort(hit), np.arange(m)) for hit in (hit_a, hit_b)):
        raise ParameterError("matched pairs must use every set member exactly once")
    summed = minkowski_sum_q(d_a, d_b)
    footprint = exponents.fb(summed)
    xi = exponents.xi_bound(q, l, len(summed))
    if footprint.value > xi:
        raise InternalConsistencyError(
            f"achieved footprint {footprint.value} exceeds hyperbolic bound {xi}"
        )
    removable = tuple(i + 1 for i, x in enumerate(d) if x == 0)
    if removable:
        warnings.warn(
            f"target degree is zero on coordinates {removable}; "
            "project_zero_coords() gives an equivalent lower-variable scheme",
            stacklevel=2,
        )
    block_order = d_a.index[hit_a], d_b.index[hit_b]
    for order in block_order:
        order.setflags(write=False)
    return MatdotSolution(
        q=q, l=l, d_a=d_a, d_b=d_b, degree_target=d,
        block_order=block_order,
        footprint=footprint,
        design_footprint=design_footprint if design_footprint is not None else footprint.value,
        xi=xi, sum_size=len(summed), removable_coords=removable,
    )


# ---------------------------------------------------------------------------
# polynomial constructions


def box_poly(q: int, mvec: Sequence[int], nvec: Sequence[int]) -> PolySolution:
    """Hypercube degree sets: D_A a box, D_B the star-expanded box.

    Per-coordinate constraint m_i * n_i <= q keeps all sums below q, so the
    reduced sum is the plain Minkowski sum and the footprint has the closed
    form prod(q - m_i n_i + 1).
    """
    mvec, nvec = tuple(mvec), tuple(nvec)
    if len(mvec) != len(nvec):
        raise ParameterError("m and n vectors must have equal length")
    if not mvec:
        raise ParameterError("empty block-count vector")
    l = len(mvec)
    for i, (mi, ni) in enumerate(zip(mvec, nvec)):
        if mi < 1 or ni < 1:
            raise ParameterError(f"block counts must be >= 1, got ({mi}, {ni}) at coordinate {i + 1}")
        if mi * ni > q:
            raise ParameterError(
                f"coordinate {i + 1} violates m_i * n_i <= q: {mi} * {ni} > {q}"
            )
    d_a = _box(q, mvec)
    d_b = _star(mvec, _box(q, nvec))
    closed = math.prod(q - mi * ni + 1 for mi, ni in zip(mvec, nvec))
    sol = _poly_solution(q, l, d_a, d_b, design_footprint=closed)
    if sol.footprint.value != closed:
        raise InternalConsistencyError(
            f"box footprint {sol.footprint.value} != closed form {closed}"
        )
    return sol


def expand_db(q: int, d_a: ExponentSet, d_b_prime: ExponentSet) -> PolySolution:
    """Expand an arbitrary D_B' by the coordinate spans of D_A.

    With m_i = 1 + max span of D_A in coordinate i and D_B = m * D_B', sums
    cannot collide as long as every coordinatewise sum stays below q.  Both
    sets are then shifted so that every coordinate's minimum is zero.
    """
    if d_a.q != q or d_b_prime.q != q or d_a.l != d_b_prime.l:
        raise ParameterError("degree sets must share (q, l)")
    if not len(d_a) or not len(d_b_prime):
        raise InfeasibleError("degree sets must be nonempty")
    l = d_a.l
    d_a = _translate(d_a)
    top_a = d_a.rows.max(axis=0).astype(np.int64)  # the minima are now zero
    for i, top in enumerate((top_a + (1 + top_a) * d_b_prime.rows.max(axis=0)).tolist()):
        if top >= q:
            raise ParameterError(
                f"coordinate {i + 1} violates max(a_i + b_i) < q: {top} >= {q}"
            )
    d_b = _star(1 + top_a, d_b_prime)
    return _poly_solution(q, l, d_a, _translate(d_b), design_footprint=1)


@lru_cache(maxsize=None)
def _db_count(q: int, mvec: Vec, f: int) -> int:
    m1 = mvec[0]
    q1 = q - m1 + 1
    if len(mvec) == 1:
        return max(0, (q1 - f) // m1 + 1)
    ml = mvec[-1]
    ql = q - ml + 1
    return sum(
        _db_count(q, mvec[:-1], -(-f // (ql - ml * b)))
        for b in range(0, (ql - 1) // ml + 1)
    )


def db_size(q: int, mvec: Sequence[int], f: int) -> int:
    """Size of the expanded degree set of better_box, by recurrence."""
    mvec = tuple(mvec)
    _check_mvec(q, mvec)
    return _db_count(q, mvec, max(1, f))


def db_set(q: int, mvec: Sequence[int], f: int) -> ExponentSet:
    """Explicit enumeration of better_box's D_B (largest star-expanded set).

    Every factor q - m_i + 1 - m_i b_i is kept >= 1: a negative factor would
    break the expansion hypothesis even when the product stays positive.
    """
    mvec = tuple(mvec)
    _check_mvec(q, mvec)
    a, m = np.arange(q), np.array(mvec)[:, None]
    factors = q - m + 1 - a
    return exponents.budget_set(q, np.where((a % m == 0) & (factors >= 1), factors, 0)[None], [f])


def _check_mvec(q: int, mvec: Vec) -> None:
    if not mvec:
        raise ParameterError("empty block-count vector")
    for i, mi in enumerate(mvec):
        if not 1 <= mi < q:
            raise ParameterError(f"coordinate {i + 1}: need 1 <= m_i < q, got {mi}")


def better_box(q: int, mvec: Sequence[int], f: int) -> PolySolution:
    """Box D_A with the largest D_B keeping the footprint at least f."""
    mvec = tuple(mvec)
    _check_mvec(q, mvec)
    f = max(1, f)
    d_b = db_set(q, mvec, f)
    if not len(d_b):
        raise InfeasibleError(f"no expanded degrees reach footprint {f} for m = {mvec}")
    expected = db_size(q, mvec, f)
    if len(d_b) != expected:
        raise InternalConsistencyError(
            f"enumerated |D_B| = {len(d_b)} != recurrence value {expected}"
        )
    return _poly_solution(q, len(mvec), _box(q, mvec), d_b, design_footprint=f)


def sep_vars(q: int, m_prime: int, n_prime: int, f_a: int, f_b: int) -> PolySolution:
    """Disjoint variable blocks: A's degrees use the first m' variables, B's
    the last n'.  The only family that splits both operands over GF(2).
    """
    if m_prime < 1 or n_prime < 1:
        raise ParameterError("variable block sizes must be >= 1")
    f_a, f_b = max(1, f_a), max(1, f_b)
    l = m_prime + n_prime
    left = exponents.hyp_set(q, m_prime, f_a)
    right = exponents.hyp_set(q, n_prime, f_b)
    if not len(left) or not len(right):
        raise InfeasibleError(f"hyperbolic set empty for footprints ({f_a}, {f_b})")
    dtype = exponents.radix(q, l).dtype
    d_a = ExponentSet(q, l, left.index.astype(dtype) * q**n_prime)
    d_b = ExponentSet(q, l, right.index.astype(dtype))
    return _poly_solution(
        q, l, d_a, d_b, design_footprint=f_a * f_b, structural=True
    )


def validate_poly(d_a: ExponentSet, d_b: ExponentSet) -> "PolyValidation":
    """Brute-force audit of the non-collision condition for raw degree sets.

    Never raises on invalid input; returns a report with the offending pairs.
    """
    if d_a.q != d_b.q or d_a.l != d_b.l:
        raise ParameterError("degree sets must share (q, l)")
    q, l = d_a.q, d_a.l
    seen: dict[Vec, tuple[Vec, Vec]] = {}
    collisions: list[tuple[tuple[Vec, Vec], tuple[Vec, Vec]]] = []
    for a in d_a:
        for b in d_b:
            s = reduce_q_vec(tuple(x + y for x, y in zip(a, b)), q)
            if s in seen and seen[s] != (a, b):
                collisions.append((seen[s], (a, b)))
            else:
                seen[s] = (a, b)
    sum_size = len(seen)
    expected = len(d_a) * len(d_b)
    ok = not collisions and sum_size == expected
    summed = ExponentSet.of(q, l, np.array(list(seen), dtype=np.int64).reshape(len(seen), l))
    footprint = exponents.fb(summed)
    xi = exponents.xi_bound(q, l, sum_size)
    return PolyValidation(
        ok=ok,
        sum_size=sum_size,
        expected_size=expected,
        collisions=tuple(collisions),
        footprint=footprint,
        recovery_threshold=q**l - footprint.value + 1,
        xi=xi,
        bound_ok=footprint.value <= xi,
    )


@dataclass(frozen=True)
class PolyValidation:
    ok: bool
    sum_size: int
    expected_size: int
    collisions: tuple
    footprint: FootprintValue
    recovery_threshold: int
    xi: int
    bound_ok: bool


# ---------------------------------------------------------------------------
# matdot constructions


def box_matdot(q: int, mvec: Sequence[int]) -> MatdotSolution:
    """Equal box degree sets with target d = m - 1 (componentwise).

    Requires 2(m_i - 1) < q in every coordinate, which rules out any real
    splitting over GF(2).
    """
    mvec = tuple(mvec)
    if not mvec:
        raise ParameterError("empty block-count vector")
    l = len(mvec)
    for i, mi in enumerate(mvec):
        if mi < 1:
            raise ParameterError(f"coordinate {i + 1}: block count must be >= 1, got {mi}")
        if 2 * (mi - 1) >= q:
            raise ParameterError(
                f"coordinate {i + 1} violates 2(m_i - 1) < q: m_i = {mi}, q = {q}"
            )
    box = _box(q, mvec)
    d = tuple(mi - 1 for mi in mvec)
    closed = math.prod(q - 2 * mi + 2 for mi in mvec)
    sol = matdot_from_sets(q, l, box, box, d, design_footprint=closed)
    if sol.footprint.value != closed:
        raise InternalConsistencyError(
            f"box matdot footprint {sol.footprint.value} != closed form {closed}"
        )
    return sol


def half_hyp_set(q: int, f: int, g: int, degree_target: Sequence[int]) -> ExponentSet:
    """Enumerate {a : a <= d, prod(q - 2a_i) >= f, prod(q - 2(d_i - a_i)) >= g}.

    Membership of a requires d - a to be a usable partner degree, hence the
    a <= d cap on top of the two budget conditions: a budget set with two
    budgets whose factors are zero above d.
    """
    d = tuple(int(x) for x in degree_target)
    _check_degree_target(q, d)
    a, dv = np.arange(q), np.array(d)[:, None]
    inside = a <= dv
    factors = np.stack([np.where(inside, q - 2 * a, 0), np.where(inside, q - 2 * (dv - a), 0)])
    return exponents.budget_set(q, factors, [f, g])


@lru_cache(maxsize=None)
def _d_count(q: int, f: int, g: int, d: Vec) -> int:
    d1 = d[-1]
    if len(d) == 1:
        hi = min(d1, (q - f) // 2)
        lo = max(0, -(-(g - q + 2 * d1) // 2))
        return max(0, hi - lo + 1)
    return sum(
        _d_count(q, -(-f // (q - 2 * a)), -(-g // (q - 2 * d1 + 2 * a)), d[:-1])
        for a in range(0, d1 + 1)
    )


def _check_l(l: int) -> None:
    if l < 1:
        raise ParameterError(f"need l >= 1, got {l}")


def _check_degree_target(q: int, d: Vec) -> None:
    _check_l(len(d))
    half = -(-q // 2)  # ceil(q/2); valid degrees are 0..half-1
    for i, x in enumerate(d):
        if not 0 <= x < half:
            raise ParameterError(
                f"coordinate {i + 1}: target degree must satisfy 0 <= d_i < q/2, got {x}"
            )


def d_size(q: int, f: int, g: int, degree_target: Sequence[int]) -> int:
    """Size of the half-hyperbolic set by recurrence over coordinates."""
    d = tuple(int(x) for x in degree_target)
    _check_degree_target(q, d)
    return _d_count(q, max(1, f), max(1, g), d)


def half_hyperbolic(q: int, l: int, f: int, degree_target: Sequence[int]) -> MatdotSolution:
    """The largest symmetric matdot set with designed footprint f at target d.

    f = 0 (or 1) means unconstrained and reproduces the box construction with
    d = m - 1.
    """
    d = tuple(int(x) for x in degree_target)
    if len(d) != l:
        raise ParameterError(f"target degree {d} has length {len(d)}, expected {l}")
    dset = half_hyp_set(q, f, f, d)
    if not len(dset):
        raise InfeasibleError(f"no degrees reach footprint {f} at target {d}")
    expected = d_size(q, f, f, d)
    if len(dset) != expected:
        raise InternalConsistencyError(
            f"enumerated size {len(dset)} != recurrence value {expected}"
        )
    design = max(1, f) if f >= 1 else math.prod(q - 2 * x for x in d)
    return matdot_from_sets(q, l, dset, dset, d, design_footprint=design)


def corner_degree(q: int, l: int) -> Vec:
    """The largest admissible target degree (ceil(q/2) - 1 in each coordinate).

    This is the target the bundled appendix tables use for the symmetric
    matdot family.
    """
    _check_l(l)
    return (-(-q // 2) - 1,) * l


def search_best_d(
    q: int, l: int, f: int, limit: int = DEFAULT_SEARCH_LIMIT
) -> tuple[Vec, int]:
    """Exhaustive scan of target degrees maximizing the half-hyperbolic size.

    Ties break to the lexicographically smallest degree.  Note that the
    bundled tables instead fix the corner degree (see corner_degree), which
    is not always the maximizer.
    """
    _check_l(l)
    half = -(-q // 2)
    total = half**l
    if total > limit:
        raise CapacityError(f"{total} candidate degrees exceed limit {limit}")
    best_d: Vec | None = None
    best_m = -1
    for d in itertools.product(range(half), repeat=l):
        m = _d_count(q, max(1, f), max(1, f), d)
        if m > best_m:
            best_d, best_m = d, m
    return best_d, best_m


def matdot_q2_fb(sol: MatdotSolution) -> FootprintValue:
    """Closed-form footprint of any binary matdot splitting.

    Over GF(2) the footprint collapses to 2^(l - |support of the sum set|),
    so any splitting touching every variable is useless (footprint 1).
    Cross-checked against the enumerated sum set.
    """
    if sol.q != 2:
        raise ParameterError(f"closed form only applies to q = 2, got q = {sol.q}")
    summed = sol.sum_set()
    supp = exponents.support(summed)
    closed = 2 ** (sol.l - len(supp))
    actual = exponents.fb(summed)
    if actual.value != closed:
        raise InternalConsistencyError(
            f"binary matdot footprint {actual.value} != closed form {closed}"
        )
    return actual


def project_zero_coords(sol: MatdotSolution) -> MatdotSolution:
    """Drop coordinates where the target degree is zero (fewer variables,
    same footprint).  Keeps at least one coordinate."""
    keep = [i for i, x in enumerate(sol.degree_target) if x] or [0]
    if len(keep) == sol.l:
        return sol
    d_a = ExponentSet.of(sol.q, len(keep), sol.d_a.rows[:, keep])
    d_b = ExponentSet.of(sol.q, len(keep), sol.d_b.rows[:, keep])
    return matdot_from_sets(
        sol.q, len(keep), d_a, d_b, tuple(sol.degree_target[i] for i in keep),
        design_footprint=max(1, sol.design_footprint // sol.q ** (sol.l - len(keep))),
    )


# ---------------------------------------------------------------------------
# descriptor resolution (shared by the CLI and the simulator)

POLY_KINDS = ("poly-box", "better-box", "sep-vars")
MATDOT_KINDS = ("matdot-box", "matdot-half")


def build(descriptor: str, q: int) -> PolySolution | MatdotSolution:
    """Resolve a construction descriptor, "KIND KEY=VALUE ...", to a
    validated solution over GF(q).

    Kinds and their keys (<vec> is comma-separated, e.g. m=2,2):
      poly-box    m=<vec> n=<vec>
      better-box  m=<vec> F=<int>
      sep-vars    mprime=<int> nprime=<int> and F=<int>, or FA=<int> FB=<int>
      matdot-box  m=<vec>
      matdot-half l=<int> F=<int> and one of d=<vec> | d=corner | d=best
    Each key is given once; a missing key, or one the kind does not use,
    is an error.
    """
    parts = descriptor.split()
    if not parts:
        raise ParameterError("empty construction descriptor")
    kind = parts[0]
    p: dict[str, str] = {}
    for tok in parts[1:]:
        key, sep, value = tok.partition("=")
        if not sep:
            raise ParameterError(f"bad construction parameter {tok!r}")
        if key in p:
            raise ParameterError(f"construction parameter {key!r} given twice")
        p[key] = value

    def take(key: str) -> str:
        if key not in p:
            raise ParameterError(f"{kind} needs parameter {key!r}")
        return p.pop(key)

    def take_vec(key: str) -> Vec:
        return exponents.parse_vec(take(key))

    def take_int(key: str) -> int:
        v = take(key)
        try:
            return int(v)
        except ValueError:
            raise ParameterError(f"{kind} parameter {key}={v!r} is not an integer") from None

    if kind == "poly-box":
        sol = box_poly(q, take_vec("m"), take_vec("n"))
    elif kind == "better-box":
        sol = better_box(q, take_vec("m"), take_int("F"))
    elif kind == "sep-vars":
        if "F" in p:
            f = take_int("F")
            fa = fb_ = f
        else:
            fa, fb_ = take_int("FA"), take_int("FB")
        sol = sep_vars(q, take_int("mprime"), take_int("nprime"), fa, fb_)
    elif kind == "matdot-box":
        sol = box_matdot(q, take_vec("m"))
    elif kind == "matdot-half":
        l = take_int("l")
        f = take_int("F")
        draw = take("d")
        if draw == "corner":
            d = corner_degree(q, l)
        elif draw == "best":
            d, _ = search_best_d(q, l, f)
        else:
            d = exponents.parse_vec(draw)
        sol = half_hyperbolic(q, l, f, d)
    else:
        raise ParameterError(f"unknown construction kind {kind!r}")
    if p:
        raise ParameterError(f"unused parameters for {kind}: {sorted(p)}")
    return sol
