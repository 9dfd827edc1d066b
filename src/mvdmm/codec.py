"""The coding pipeline: split, encode, evaluate, interpolate, extract.

A multiplication A.B is distributed by splitting the operands into blocks,
attaching one block to each degree of a solution's degree set, and handing
every worker the two encoded operands evaluated at its own point.  The
products returned by any large-enough subset of workers determine the
coefficient blocks of the product polynomial.  The decoder solves for
whichever unknowns are fewer: the e grid points that did not respond (the
dual side, through the closed-form inverse of the grid's Vandermonde map) or
the kappa coefficients (the primal side, one linear system).  Either way it
recovers A.B exactly.  All arithmetic is exact, so every equality test in
this module is literal.

Inside the codec a point or an exponent vector is its row-major index on
the grid {0..q-1}^l, and a set of coefficient blocks is one stacked
(k, r, c) array whose i-th row belongs to the i-th member of its degree set
in lexicographic (so ascending-index) order.  Lookups are binary searches
on those indices; extraction gathers rows of the stacked array.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from . import _linalg, exponents
from .constructions import MatdotSolution, PolySolution
from .errors import (
    FieldMismatchError,
    IncompleteRecoveryError,
    InsufficientResponsesError,
    InternalConsistencyError,
    ParameterError,
    ShapeError,
)
from .exponents import ExponentSet, Vec
from .field import DEFAULT_POINT_LIMIT, FieldSpec, Point

# ---------------------------------------------------------------------------
# matrices


@dataclass(frozen=True)
class MatrixFq:
    """A dense matrix of field-element indices."""

    spec: FieldSpec
    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data)
        if arr.size and arr.dtype.kind not in "biu":
            raise ParameterError(f"matrix entries must be integers, got dtype {arr.dtype}")
        arr = np.ascontiguousarray(arr, dtype=np.int64)
        if arr.ndim != 2:
            raise ShapeError(f"matrix data must be 2-D, got shape {arr.shape}")
        if arr.size and (arr.min() < 0 or arr.max() >= self.spec.q):
            raise ParameterError("matrix entries must be element indices in [0, q)")
        object.__setattr__(self, "data", arr)

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, MatrixFq)
            and self.spec == other.spec
            and self.data.shape == other.data.shape
            and bool(np.array_equal(self.data, other.data))
        )

    @classmethod
    def zeros(cls, spec: FieldSpec, rows: int, cols: int) -> "MatrixFq":
        return cls(spec, np.zeros((rows, cols), dtype=np.int64))

    @classmethod
    def identity(cls, spec: FieldSpec, n: int) -> "MatrixFq":
        return cls(spec, np.eye(n, dtype=np.int64))

    def to_text(self) -> str:
        head = f"{self.rows} {self.cols} {self.spec}\n"
        body = "\n".join(" ".join(str(int(x)) for x in row) for row in self.data)
        return head + body + "\n"

    @classmethod
    def from_text(cls, text: str) -> "MatrixFq":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        head = lines[0].split() if lines else []
        if len(head) != 3:
            raise ParameterError(f"matrix header must be 'rows cols field', got {' '.join(head)!r}")
        spec = FieldSpec.from_string(head[2])
        try:
            r, c = int(head[0]), int(head[1])
            values = [int(tok) for ln in lines[1:] for tok in ln.split()]
        except ValueError as exc:
            raise ParameterError(f"matrix text holds a non-integer: {exc}") from None
        if len(values) != r * c:
            raise ParameterError(f"expected {r * c} entries, got {len(values)}")
        return cls(spec, np.array(values, dtype=np.int64).reshape(r, c))


def random_matrix(spec: FieldSpec, rows: int, cols: int, rng: np.random.Generator) -> MatrixFq:
    return MatrixFq(spec, rng.integers(0, spec.q, size=(rows, cols), dtype=np.int64))


def matmul(a: MatrixFq, b: MatrixFq) -> MatrixFq:
    """Exact schoolbook product; the ground-truth oracle for every decoder test."""
    if a.spec != b.spec:
        raise FieldMismatchError(f"field mismatch: {a.spec} vs {b.spec}")
    if a.cols != b.rows:
        raise ShapeError(f"inner dimensions disagree: {a.cols} vs {b.rows}")
    return MatrixFq(a.spec, a.spec.matmul(a.data, b.data))


# ---------------------------------------------------------------------------
# block splitting


@dataclass(frozen=True)
class BlockSplit:
    """One operand cut into equal blocks along one axis, zero-padded as needed.

    blocks[i] is the i-th block; the array has shape (count, *block_shape).
    """

    spec: FieldSpec
    mode: str  # poly-a | poly-b | matdot-a | matdot-b
    count: int
    original_shape: tuple[int, int]
    padded_shape: tuple[int, int]
    padding: int
    blocks: np.ndarray

    @property
    def block_shape(self) -> tuple[int, int]:
        return self.blocks.shape[1:]


_SPLIT_AXIS = {"poly-a": 0, "poly-b": 1, "matdot-a": 1, "matdot-b": 0}


def _split_one(mat: MatrixFq, mode: str, count: int) -> BlockSplit:
    axis = _SPLIT_AXIS[mode]
    size = mat.data.shape[axis]
    padded = -(-size // count) * count
    pad = padded - size
    data = mat.data
    if pad:
        widths = [(0, 0), (0, 0)]
        widths[axis] = (0, pad)
        data = np.pad(data, widths)
    blocks = np.stack(np.split(data, count, axis=axis))
    return BlockSplit(
        spec=mat.spec,
        mode=mode,
        count=count,
        original_shape=(mat.rows, mat.cols),
        padded_shape=data.shape,
        padding=pad,
        blocks=blocks,
    )


def split(a: MatrixFq, b: MatrixFq, mode: str, m: int, n: int | None = None) -> tuple[BlockSplit, BlockSplit]:
    """Cut A and B for a polynomial (row x column) or matdot (inner) scheme."""
    if a.spec != b.spec:
        raise FieldMismatchError(f"field mismatch: {a.spec} vs {b.spec}")
    if a.cols != b.rows:
        raise ShapeError(f"inner dimensions disagree: {a.cols} vs {b.rows}")
    if m < 1 or (n is not None and n < 1):
        raise ParameterError("block counts must be >= 1")
    if mode == "poly":
        if n is None:
            raise ParameterError("polynomial mode needs both block counts")
        return _split_one(a, "poly-a", m), _split_one(b, "poly-b", n)
    if mode == "matdot":
        sa = _split_one(a, "matdot-a", m)
        sb = _split_one(b, "matdot-b", m)
        return sa, sb
    raise ParameterError(f"unknown split mode {mode!r}")


def reassemble(blocks: BlockSplit) -> MatrixFq:
    """Concatenate blocks and trim padding; inverse of the split."""
    axis = _SPLIT_AXIS[blocks.mode]
    data = np.concatenate(blocks.blocks, axis=axis)
    r, c = blocks.original_shape
    return MatrixFq(blocks.spec, data[:r, :c])


# ---------------------------------------------------------------------------
# encoding and evaluation


@dataclass(frozen=True)
class EncodedOperand:
    """A block-matrix polynomial: blocks[i] is the coefficient block of the
    i-th degree of `support` (lexicographic order)."""

    spec: FieldSpec
    q: int
    l: int
    support: ExponentSet
    blocks: np.ndarray  # (len(support), *block_shape)

    @property
    def block_shape(self) -> tuple[int, int]:
        return self.blocks.shape[1:]


def encode(
    blocks: BlockSplit, degrees: ExponentSet, order: Sequence[Vec] | None = None
) -> EncodedOperand:
    """Attach block i to the i-th degree.

    By default degrees are taken in lexicographic order.  An explicit
    `order` (a permutation of the set) overrides this; matdot schemes need
    it so that B's i-th block carries the degree matched to A's i-th.
    """
    if blocks.count != len(degrees):
        raise ParameterError(
            f"{blocks.count} blocks cannot be matched to {len(degrees)} degrees"
        )
    stacked = blocks.blocks
    if order is not None:
        # Block j goes to order[j]; in support order that is one permutation.
        at = _grid_index(degrees.q, degrees.l, order)
        if not np.array_equal(np.sort(at), _grid_index(degrees.q, degrees.l, degrees.rows)):
            raise ParameterError("explicit degree order must permute the degree set")
        stacked = stacked[np.argsort(at)]
    return EncodedOperand(blocks.spec, degrees.q, degrees.l, degrees, stacked)


def monomial_matrix(spec: FieldSpec, support: ExponentSet, points: Sequence[Point]) -> np.ndarray:
    """Values of each support monomial (rows) at each point (columns), 0^0 = 1."""
    pts = np.asarray(points, dtype=np.int64)

    def powers(c: int) -> np.ndarray:
        """x_c^e at every point, for the exponent e of every monomial."""
        exps = support.rows[:, c]
        pow_rows = np.ones((int(exps.max(initial=0)) + 1, len(pts)), dtype=np.int64)
        for e in range(1, len(pow_rows)):
            pow_rows[e] = spec.mul_arr(pow_rows[e - 1], pts[:, c])
        return pow_rows[exps]

    out = powers(0)
    for c in range(1, support.l):
        out = spec.mul_arr(out, powers(c))
    return out


def evaluate_many(op: EncodedOperand, points: Sequence[Point]) -> np.ndarray:
    """Evaluations at many points, shape (len(points), *block_shape)."""
    spec = op.spec
    vals = monomial_matrix(spec, op.support, points)  # (terms, points)
    out = spec.matmul(vals.T, op.blocks.reshape(len(op.blocks), -1))  # (points, block entries)
    return out.reshape(len(points), *op.block_shape)


# ---------------------------------------------------------------------------
# the grid GF(q)^l and its inverse Vandermonde transform
#
# Every point set is a subset of GF(q)^l and every reduced exponent vector a
# member of {0..q-1}^l.  Both are numbered row-major, last coordinate fastest
# (the order of field.enumerate_points).  On the whole grid the evaluation
# map is the Kronecker product of l univariate q x q Vandermonde maps, so its
# inverse is the Kronecker product T of l copies of the closed-form T1.


def _grid_index(q: int, l: int, vectors: Sequence[Sequence[int]]) -> np.ndarray:
    """Row-major index of each vector of {0..q-1}^l."""
    try:
        arr = np.asarray(vectors, dtype=np.int64)
    except ValueError:  # ragged
        arr = None
    if arr is None or arr.ndim != 2 or arr.shape[1] != l or arr.min() < 0 or arr.max() >= q:
        raise ParameterError(f"vectors must have {l} coordinates in [0, {q})")
    return arr @ q ** np.arange(l - 1, -1, -1, dtype=np.int64)


def _grid_digits(q: int, l: int, index: np.ndarray) -> np.ndarray:
    """Inverse of _grid_index: shape (len(index), l)."""
    return index[:, None] // q ** np.arange(l - 1, -1, -1, dtype=np.int64) % q


def _positions(grid: np.ndarray, wanted: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where each of `wanted` sits in the ascending `grid`, and whether it is there."""
    pos = np.searchsorted(grid, wanted)
    hit = pos < grid.size
    hit[hit] = grid[pos[hit]] == wanted[hit]
    return pos, hit


def _complement(size: int, index: np.ndarray) -> np.ndarray:
    """The sorted grid indices in [0, size) missing from `index`."""
    return np.setdiff1d(np.arange(size, dtype=np.int64), index)


def _outside(q: int, l: int, support_grid: np.ndarray) -> np.ndarray:
    """Exponent-grid indices outside the support, highest total degree first.

    Those rows of T are the densest, so the first e of them offered to the
    erasure solve are usually independent.
    """
    rows = _complement(q**l, support_grid)
    return rows[np.argsort(-_grid_digits(q, l, rows).sum(axis=1), kind="stable")]


@lru_cache(maxsize=None)
def inverse_vandermonde(spec: FieldSpec) -> np.ndarray:
    """T1 = (V1^T)^-1 for the univariate Vandermonde V1[a, x] = x^a, read-only.

    In closed form T1[0, x] = [x = 0] and T1[a, x] = -x^(q-1-a) for a >= 1
    (0^0 = 1): the coefficients of the indicator 1 - (t - x)^(q-1) of x.
    V1^T . T1 = I is checked exactly, once per field.
    """
    q = spec.q
    v1 = monomial_matrix(spec, ExponentSet.of(q, 1, [(a,) for a in range(q)]),
                         [(x,) for x in range(q)])
    t1 = spec.neg_arr(v1[::-1])
    t1[0] = 0
    t1[0, 0] = 1
    if not np.array_equal(spec.matmul(v1.T, t1), np.eye(q, dtype=np.int64)):
        raise InternalConsistencyError(f"closed-form inverse Vandermonde is wrong over {spec}")
    t1.setflags(write=False)
    return t1


def _dual_block(spec: FieldSpec, l: int, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """T[rows, cols] for exponent-grid rows and point-grid columns."""
    t1 = inverse_vandermonde(spec)
    r = _grid_digits(spec.q, l, rows)
    c = _grid_digits(spec.q, l, cols)
    out = t1[r[:, :1], c[:, 0]]
    for i in range(1, l):
        out = spec.mul_arr(out, t1[r[:, i:i + 1], c[:, i]])
    return np.asarray(out, dtype=np.int64)


def _transform(spec: FieldSpec, l: int, values: np.ndarray, stats: _linalg.EliminationStats) -> np.ndarray:
    """T . values for a (q^l, w) array of grid values, one coordinate at a time.

    Over GF(2), T1 = [[1, 0], [1, 1]] and each coordinate is one in-place
    XOR butterfly.  Otherwise each pass applies T1 to the leading coordinate
    and rotates it to the back, so after l passes the coordinates are in
    their original order.  `values` may be overwritten.
    """
    q, w = spec.q, values.shape[1]
    if q == 2:
        for i in range(l):
            pairs = values.reshape(2**i, 2, -1)
            pairs[:, 1] ^= pairs[:, 0]
        stats.add_ops += l * values.size // 2
        return values
    t1 = inverse_vandermonde(spec)
    out = values
    for _ in range(l):
        lead = spec.matmul(t1, out.reshape(q, -1))
        stats.mult_ops += lead.size * q
        stats.add_ops += lead.size * q
        out = lead.reshape(q, -1, w).transpose(1, 0, 2)
    return out.reshape(q**l, w)


def _dual_side(spec: FieldSpec, erasures: int, kappa: int) -> bool:
    """Solve for the erasures (dual) rather than the coefficients (primal)?

    The dual side has `erasures` unknowns and the primal side kappa.  T1 is
    q x q, so the dual side also needs T1 to be no larger than the largest
    point grid, i.e. q <= 1024.
    """
    return erasures < kappa and spec.q**2 <= DEFAULT_POINT_LIMIT


# ---------------------------------------------------------------------------
# interpolation system


@dataclass(frozen=True)
class InterpolationSystem:
    """An audited evaluation code: the support S of the product polynomial
    and the N evaluation points, both as grid indices.

    kappa = |S| is the number of unknown coefficients; recovery_threshold
    is the evaluation count that guarantees solvability for any point
    subset.  point_grid holds the points' grid indices in the caller's
    order, support_grid those of S in ascending order.  No evaluation
    matrix is kept: the primal side builds the rows it needs on demand.
    """

    spec: FieldSpec
    support: ExponentSet
    kappa: int
    recovery_threshold: int
    point_grid: np.ndarray
    support_grid: np.ndarray

    def index_of_degree(self, degree: Vec) -> int:
        wanted = _grid_index(self.spec.q, self.support.l, [degree])
        pos, hit = _positions(self.support_grid, wanted)
        if not hit[0]:
            raise ParameterError(f"degree {tuple(degree)} is not in the support S")
        return int(pos[0])


def build_system(spec: FieldSpec, support: ExponentSet, points: Sequence[Point]) -> InterpolationSystem:
    """Verify that the points determine every function in the span of the
    support.

    With e0 unused grid points the audit takes the side with fewer unknowns
    (see _dual_side): either the kappa x N monomial matrix, built for the
    audit only, has rank kappa (primal), or no nonzero function vanishing
    off the e0 unused points lies in the span, i.e. the block T[outside the
    support, unused points] has rank e0 (dual).  The two are the same
    guarantee; on a full grid (e0 = 0) the dual side rests on the exact
    check of T1.
    """
    threshold = exponents.delta(support) + 1
    if len(points) < threshold:
        raise InsufficientResponsesError(threshold, len(points))
    q, l = spec.q, support.l
    point_grid = _grid_index(q, l, points)
    if np.unique(point_grid).size != point_grid.size:
        raise ParameterError("evaluation points must be distinct")
    support_grid = _grid_index(q, l, support.rows)
    kappa = len(support)
    unused = _complement(q**l, point_grid)
    if _dual_side(spec, unused.size, kappa):
        block = _dual_block(spec, l, _outside(q, l, support_grid), unused)
        rank = kappa - unused.size + _linalg.matrix_rank(spec, block.T)
    else:
        rank = _linalg.matrix_rank(spec, monomial_matrix(spec, support, points))
    if rank != kappa:
        # Would contradict the footprint bound; surface loudly.
        raise InternalConsistencyError(
            f"evaluation matrix rank {rank} < kappa {kappa} on {len(points)} points"
        )
    return InterpolationSystem(
        spec=spec,
        support=support,
        kappa=kappa,
        recovery_threshold=threshold,
        point_grid=point_grid,
        support_grid=support_grid,
    )


# ---------------------------------------------------------------------------
# worker payloads and responses


@dataclass(frozen=True)
class WorkerPayload:
    index: int
    point: Point
    a_part: MatrixFq
    b_part: MatrixFq


@dataclass(frozen=True)
class WorkerResponse:
    index: int
    point: Point
    product: MatrixFq


def make_payloads(
    enc_a: EncodedOperand, enc_b: EncodedOperand, points: Sequence[Point]
) -> list[WorkerPayload]:
    vals_a = evaluate_many(enc_a, points)
    vals_b = evaluate_many(enc_b, points)
    spec = enc_a.spec
    return [
        WorkerPayload(i, tuple(p), MatrixFq(spec, vals_a[i]), MatrixFq(spec, vals_b[i]))
        for i, p in enumerate(points)
    ]


def worker_compute(payload: WorkerPayload) -> WorkerResponse:
    return WorkerResponse(payload.index, payload.point, matmul(payload.a_part, payload.b_part))


def format_response(resp: WorkerResponse) -> str:
    coords = ",".join(str(c) for c in resp.point)
    flat = " ".join(str(int(x)) for x in resp.product.data.reshape(-1))
    return f"{resp.index} {coords} {flat}"


def parse_response(line: str, spec: FieldSpec, shape: tuple[int, int]) -> WorkerResponse:
    parts = line.split()
    entries = shape[0] * shape[1]
    if len(parts) != entries + 2:
        raise ParameterError(
            f"response line needs an index, a point and {entries} entries, "
            f"got {len(parts)} fields: {line!r}")
    try:
        index = int(parts[0])
        point = tuple(int(c) for c in parts[1].split(","))
        values = np.array([int(x) for x in parts[2:]], dtype=np.int64).reshape(shape)
    except ValueError:
        raise ParameterError(f"response line has a non-integer field: {line!r}") from None
    return WorkerResponse(index, point, MatrixFq(spec, values))


# ---------------------------------------------------------------------------
# decoding


@dataclass
class Interpolation:
    """Recovered coefficient blocks plus the work done to get them.

    blocks[i] is the coefficient block at the degree with grid index
    grid[i]; grid is ascending (the whole support, or the one degree asked
    for with `only`).
    """

    spec: FieldSpec
    l: int
    grid: np.ndarray
    blocks: np.ndarray  # (len(grid), *block_shape)
    used_points: tuple[Point, ...]
    stats: _linalg.EliminationStats

    def __getitem__(self, degree: Vec) -> MatrixFq:
        pos, hit = _positions(self.grid, _grid_index(self.spec.q, self.l, [degree]))
        if not hit[0]:
            raise IncompleteRecoveryError(f"missing coefficient at {tuple(degree)}")
        return MatrixFq(self.spec, self.blocks[pos[0]])


# Responses stacked per product when combining them with decoder weights;
# bounds the stacked copy (and its digit planes) rather than holding all R.
COMBINE_CHUNK = 64


def _distinct(responses: Iterable[WorkerResponse]) -> list[WorkerResponse]:
    """One response per point in arrival order; conflicting duplicates raise."""
    first: dict[Point, WorkerResponse] = {}
    for r in responses:
        p = tuple(r.point)
        kept = first.setdefault(p, r)
        if kept is not r and kept.product != r.product:
            raise ParameterError(f"conflicting responses at point {p}")
    return list(first.values())


def _combine(
    spec: FieldSpec, weights: np.ndarray, responses: Sequence[WorkerResponse],
    stats: _linalg.EliminationStats,
) -> np.ndarray:
    """sum_i weights[i] * responses[i].product, flattened."""
    acc = None
    for start in range(0, len(responses), COMBINE_CHUNK):
        part = np.stack([r.product.data.reshape(-1)
                         for r in responses[start:start + COMBINE_CHUNK]])
        term = spec.matmul(weights[None, start:start + COMBINE_CHUNK], part)[0]
        acc = term if acc is None else spec.add_arr(acc, term)
    stats.mult_ops += weights.size * acc.size
    stats.add_ops += weights.size * acc.size
    return acc


def _solve_erasures(
    spec: FieldSpec, l: int, outside: np.ndarray, missing: np.ndarray,
    rhs: Sequence[np.ndarray], stats: _linalg.EliminationStats,
) -> np.ndarray:
    """Z with T[outside, missing] . Z = rhs, read off the first independent rows."""
    block = _dual_block(spec, l, outside, missing)
    z, _, solved = _linalg.solve_exact(spec, list(block), list(rhs), missing.size)
    stats.add(solved)
    return z


def interpolate(
    sys: InterpolationSystem,
    responses: Iterable[WorkerResponse],
    only: Vec | None = None,
    require_threshold: bool = True,
) -> Interpolation:
    """Solve for the product polynomial's coefficients from worker responses.

    With R distinct responses there are e = q^l - R erasures on the grid.
    When e < kappa (see _dual_side) the decoder works on the dual problem:

    * place the responses on the grid (zeros at the erasures) and apply T,
      one T1 per coordinate: O(l q q^l w) for w entries per block product;
    * the coefficients outside the support S must vanish, which determines
      the e erased values from the |S-bar| rows outside S: an exact
      O(|S-bar| e^2) elimination with right-hand side width w;
    * correct the coefficients on S by T[S, erasures] times those values:
      O(kappa e w).

    Otherwise it eliminates the kappa unknown coefficients directly from the
    monomial rows at the responding points, built on demand (primal side).
    Both sides raise RankDeficiencyError, in kappa terms, exactly when the
    responding points do not determine every function in the span of S.

    With `only`, just the requested coefficient is recovered, as one weight
    per response: on the dual side T's row at the target, corrected through
    the erasure solve (O(e R) after the solve), then applied to the products
    in chunks (O(R w)); on the primal side the eliminator expresses that
    unknown as a combination of response equations.
    """
    uniq = _distinct(responses)
    if require_threshold and len(uniq) < sys.recovery_threshold:
        raise InsufficientResponsesError(sys.recovery_threshold, len(uniq))
    if not uniq:
        raise InsufficientResponsesError(sys.kappa, 0)
    shape = uniq[0].product.data.shape
    if any(r.product.data.shape != shape for r in uniq):
        raise ShapeError("responses carry products of different shapes")
    spec, l = sys.spec, sys.support.l
    size = spec.q**l
    try:
        grid = _grid_index(spec.q, l, [r.point for r in uniq])
    except ParameterError as exc:
        raise ParameterError(f"response at a point outside GF({spec.q})^{l}") from exc
    unknown = np.flatnonzero(~np.isin(grid, sys.point_grid))
    if unknown.size:
        raise ParameterError(f"response at unknown point {tuple(uniq[unknown[0]].point)}")

    missing = _complement(size, grid)
    if not _dual_side(spec, missing.size, sys.kappa):
        return _interpolate_primal(sys, uniq, grid, only)
    try:
        return _interpolate_dual(sys, uniq, grid, missing, only)
    except _linalg.RankDeficiencyError as exc:
        # The kappa-column system lacks exactly the dual block's rank deficit.
        raise _linalg.RankDeficiencyError(
            sys.kappa, sys.kappa - missing.size + exc.got) from None


def _interpolate_dual(
    sys: InterpolationSystem, uniq: list[WorkerResponse], grid: np.ndarray,
    missing: np.ndarray, only: Vec | None,
) -> Interpolation:
    """Solve for the erased grid values, then read off the coefficients."""
    spec, l = sys.spec, sys.support.l
    shape = uniq[0].product.data.shape
    outside = _outside(spec.q, l, sys.support_grid)
    used = tuple(r.point for r in uniq)
    stats = _linalg.EliminationStats()
    if only is not None:
        target = sys.support_grid[sys.index_of_degree(only)][None]
        weights = _dual_block(spec, l, target, grid)[0]
        if missing.size:
            z = _solve_erasures(spec, l, outside, missing, _dual_block(spec, l, outside, grid), stats)
            weights = spec.sub_arr(weights, spec.matmul(_dual_block(spec, l, target, missing), z)[0])
            stats.mult_ops += z.size
            stats.add_ops += z.size
        combined = _combine(spec, weights, uniq, stats)
        return Interpolation(spec, l, target, combined.reshape(1, *shape), used, stats)
    values = np.zeros((spec.q**l, int(np.prod(shape))), dtype=np.int64)
    for g, r in zip(grid, uniq):
        values[g] = r.product.data.reshape(-1)
    c = _transform(spec, l, values, stats)
    x = c[sys.support_grid]
    if missing.size:
        z = _solve_erasures(spec, l, outside, missing, [c[i] for i in outside], stats)
        x = spec.sub_arr(x, spec.matmul(_dual_block(spec, l, sys.support_grid, missing), z))
        stats.mult_ops += sys.kappa * z.size
        stats.add_ops += sys.kappa * z.size
    return Interpolation(spec, l, sys.support_grid, x.reshape(sys.kappa, *shape), used, stats)


def _interpolate_primal(
    sys: InterpolationSystem, uniq: list[WorkerResponse], grid: np.ndarray,
    only: Vec | None,
) -> Interpolation:
    """Eliminate the kappa coefficients from the responders' evaluation rows."""
    spec, l = sys.spec, sys.support.l
    shape = uniq[0].product.data.shape
    rows = list(monomial_matrix(spec, sys.support, _grid_digits(spec.q, l, grid)).T)
    if only is not None:
        target = sys.index_of_degree(only)
        y, used, stats = _linalg.express_unit(spec, rows, target, sys.kappa)
        combined = _combine(spec, y, [uniq[i] for i in used], stats)
        return Interpolation(spec, l, sys.support_grid[target][None], combined.reshape(1, *shape),
                             tuple(uniq[i].point for i in used), stats)
    rhs = [r.product.data.reshape(-1) for r in uniq]
    x, used, stats = _linalg.solve_exact(spec, rows, rhs, sys.kappa)
    return Interpolation(spec, l, sys.support_grid, x.reshape(sys.kappa, *shape),
                         tuple(uniq[i].point for i in used), stats)


def extract_poly(
    coeffs: Interpolation, sol: PolySolution, split_a: BlockSplit, split_b: BlockSplit,
) -> MatrixFq:
    """Assemble the block grid of A.B from recovered coefficients.

    Block (i, j) is the coefficient at the reduced sum of the i-th degree of
    D_A and the j-th of D_B; all m x n sums are formed at once and their
    blocks gathered in one step.
    """
    q = sol.q
    sums = (sol.d_a.rows[:, None, :].astype(np.int64) + sol.d_b.rows[None, :, :]).reshape(-1, sol.l)
    np.subtract(sums, q - 1, out=sums, where=sums >= q)  # x^q = x: q + r reduces to r + 1
    pos, hit = _positions(coeffs.grid, _grid_index(q, sol.l, sums))
    if not hit.all():
        first = tuple(sums[hit.argmin()].tolist())
        raise IncompleteRecoveryError(f"missing coefficient at {first}")
    m, n = len(sol.d_a), len(sol.d_b)
    br, bc = coeffs.blocks.shape[1:]
    full = coeffs.blocks[pos].reshape(m, n, br, bc).transpose(0, 2, 1, 3).reshape(m * br, n * bc)
    r = split_a.original_shape[0]
    t = split_b.original_shape[1]
    return MatrixFq(split_a.spec, full[:r, :t])


def extract_matdot(
    coeffs: Interpolation, sol: MatdotSolution, split_a: BlockSplit, split_b: BlockSplit,
) -> MatrixFq:
    """A.B is the single coefficient at the solution's target degree."""
    r = split_a.original_shape[0]
    t = split_b.original_shape[1]
    return MatrixFq(split_a.spec, coeffs[sol.degree_target].data[:r, :t])
