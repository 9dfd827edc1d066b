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

In characteristic 2 both directions of the grid transform, evaluating
(`evaluate_many`) and interpolating (`_transform`), run on packed bit
planes: an entry's e bits are e GF(2) values, and one coordinate's
Vandermonde map or its inverse is a GF(2) map on them, applied by table
lookups on bytes (`_grid_pass`; over GF(2) it is the XOR butterfly).
Each direction keeps the generic product where it is the cheaper: see
`_packed_side` and `_transform`.

Inside the codec a point or an exponent vector is its row-major index on
the grid {0..q-1}^l, and a set of coefficient blocks is one stacked
(k, r, c) array whose i-th row belongs to the i-th member of its degree set
in lexicographic (so ascending-index) order.  Lookups are binary searches
on those indices; extraction gathers rows of the stacked array.

The worker plane takes points in that numbering too, as 1-D integer
arrays, and is held as data (`WorkerPlane`): the points' grid indices and
each operand's evaluations as one (N, r, c) array, or over GF(2) as
(N, ceil(r c / 8)) bytes of packed bits.  A payload, its
point's grid index and the worker's two blocks (row views, or over GF(2)
its rows unpacked), is built only when a worker is looked up, and
`WorkerPlane.products` runs any set of workers in one batched product.
A response holds a grid index and its product as a bare array;
`interpolate` stacks the responses into one (grid indices, (R, r, c)
products) pair, checks it once and decodes it with `interpolate_stack`,
which takes such a stack directly.  Coordinates are decoded only to be
printed (`format_response`).  `MatrixFq` is kept for the caller's A and B
and the product A.B.
"""

from __future__ import annotations

import math
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
    RangeError,
    ShapeError,
)
from .exponents import ExponentSet, Vec
from .field import DEFAULT_POINT_LIMIT, MATMUL_TILE, TABLE_LIMIT, FieldSpec

# ---------------------------------------------------------------------------
# matrices


@dataclass(frozen=True)
class MatrixFq:
    """A dense matrix of field-element indices.

    `data` is C-contiguous in the field's index dtype (`spec.dtype`),
    checked and cast by `_indices`.
    """

    spec: FieldSpec
    data: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "data", _indices(self.spec, self.data))

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
            and bool(np.array_equal(self.data, other.data))
        )


def _indices(spec: FieldSpec, data, ndim: int = 2) -> np.ndarray:
    """`data`, with `ndim` axes, as a C-contiguous array in the field's index
    dtype; entries are checked to lie in [0, q) before that cast, so none wraps."""
    arr = np.asarray(data)
    if arr.dtype == object:  # where Python ints beyond the int64 range land
        bad = next((x for x in arr.flat if isinstance(x, int) and not 0 <= x < spec.q), None)
        if bad is not None:
            raise ParameterError(f"matrix entries must be element indices in [0, q), got {bad}")
    if arr.size and arr.dtype.kind not in "biu":
        raise ParameterError(f"matrix entries must be integers, got dtype {arr.dtype}")
    if arr.ndim != ndim:  # a stack of matrices has one more axis
        raise ShapeError(f"matrix data must be 2-D, got shape {arr.shape[ndim - 2:]}")
    if arr.size and ((arr.dtype.kind == "i" and arr.min() < 0) or arr.max() >= spec.q):
        raise ParameterError("matrix entries must be element indices in [0, q)")
    return np.ascontiguousarray(arr, dtype=spec.dtype)


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


@dataclass(frozen=True, eq=False)
class BlockSplit:
    """One operand cut into equal blocks along one axis, zero-padded as needed.

    blocks[i] is the i-th block; the array has shape (count, *block_shape).
    `==` is identity; to compare contents, compare `.blocks`.
    """

    spec: FieldSpec
    original_shape: tuple[int, int]
    blocks: np.ndarray

    @property
    def count(self) -> int:
        return len(self.blocks)

    @property
    def block_shape(self) -> tuple[int, int]:
        return self.blocks.shape[1:]


def _split_one(mat: MatrixFq, axis: int, count: int) -> BlockSplit:
    data = mat.data
    pad = -data.shape[axis] % count
    if pad:
        widths = [(0, 0), (0, 0)]
        widths[axis] = (0, pad)
        data = np.pad(data, widths)
    return BlockSplit(mat.spec, (mat.rows, mat.cols), np.stack(np.split(data, count, axis=axis)))


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
        return _split_one(a, 0, m), _split_one(b, 1, n)
    if mode == "matdot":
        return _split_one(a, 1, m), _split_one(b, 0, m)
    raise ParameterError(f"unknown split mode {mode!r}")


# ---------------------------------------------------------------------------
# encoding and evaluation


@dataclass(frozen=True, eq=False)
class EncodedOperand:
    """A block-matrix polynomial: blocks[i] is the coefficient block of the
    i-th degree of `support` (lexicographic order).

    `==` is identity; to compare contents, compare `.blocks`.
    """

    spec: FieldSpec
    support: ExponentSet
    blocks: np.ndarray  # (len(support), *block_shape)

    @property
    def block_shape(self) -> tuple[int, int]:
        return self.blocks.shape[1:]


def encode(
    blocks: BlockSplit, degrees: ExponentSet, order: Sequence[int] | np.ndarray | None = None
) -> EncodedOperand:
    """Attach block i to the i-th degree.

    By default degrees are taken in lexicographic order.  An explicit
    `order`, the grid indices of the degrees as a permutation of
    `degrees.index`, overrides this; matdot schemes need it so that B's i-th
    block carries the degree matched to A's i-th (`MatdotSolution.block_order`).
    """
    if blocks.count != len(degrees):
        raise ParameterError(
            f"{blocks.count} blocks cannot be matched to {len(degrees)} degrees"
        )
    stacked = blocks.blocks
    if order is not None:
        # Block j goes to grid index order[j]; in support order that is one permutation.
        at = np.asarray(order)
        if at.ndim != 1 or at.dtype.kind not in "iuO" or not np.array_equal(np.sort(at), degrees.index):
            raise ParameterError("explicit degree order must permute the degree set's grid indices")
        stacked = stacked[np.argsort(at)]
    return EncodedOperand(blocks.spec, degrees, stacked)


def _powers(spec: FieldSpec, n: int, x: np.ndarray) -> np.ndarray:
    """x^a (0^0 = 1) for the exponents a in [0, n) (rows) and the elements
    x (columns), int64: row a is row a - 1 times x."""
    out = np.ones((n, len(x)), dtype=np.int64)
    for a in range(1, n):
        out[a] = spec.mul_arr(out[a - 1], x)
    return out


def monomial_matrix(spec: FieldSpec, support: ExponentSet, points) -> np.ndarray:
    """Values of each support monomial (rows) at each point (columns), 0^0 = 1;
    the points are grid indices (see _grid_points)."""
    pts = _grid_digits(spec.q, support.l, _grid_points(spec.q, support.l, points))

    def powers(c: int) -> np.ndarray:
        """x_c^e at every point, for the exponent e of every monomial."""
        exps = support.rows[:, c]
        return _powers(spec, int(exps.max(initial=0)) + 1, pts[:, c])[exps]

    out = powers(0)
    for c in range(1, support.l):
        out = spec.mul_arr(out, powers(c))
    return out


def evaluate_many(op: EncodedOperand, points) -> np.ndarray:
    """Evaluations at many points, shape (len(points), *block_shape), in the
    field's index dtype.  The points are grid indices, checked once on every
    field (see _grid_points); a point off the grid raises ParameterError.

    In characteristic 2 the evaluations are formed as packed bit planes
    (`_evaluation_planes`) and unpacked back into indices here, unless its
    cost rule picks the monomial product (`_monomial_evaluations`), which
    every field of odd characteristic takes.  `make_payloads` keeps the
    GF(2) planes packed.
    """
    at = _grid_points(op.spec.q, op.support.l, points)
    planes = _evaluation_planes(op, at)
    if planes is None:
        flat = _monomial_evaluations(op, at)
    else:
        flat = _from_bit_planes(op.spec, planes, math.prod(op.block_shape))
    return flat.reshape(at.size, *op.block_shape)


def _evaluation_planes(op: EncodedOperand, at: np.ndarray) -> np.ndarray | None:
    """The evaluations at the grid indices `at` as (e, len(at), ceil(w / 8))
    uint8 bit planes (see `_bit_planes`), w entries a block; None where the
    monomial product is the cheaper side.

    In characteristic 2 evaluating on the grid is the transform that
    `_transform` inverts: V1^T on every coordinate, run on bit planes (see
    `_grid_pass`).  The blocks are split into their e bit planes,
    packed eight entries to a byte, and placed on the smallest box of
    exponents that holds the support (over GF(2) the sub-cube itself, for
    `_butterfly`'s in-place passes).  Only the prefix sub-grid [0, q^j)
    holding every point index is transformed: a point there has its leading
    l - j coordinates zero, so degrees outside the sub-grid contribute
    nothing to it.  The points' rows are then gathered; the padding bits of
    a row's last byte stay zero.  No (terms x points) matrix is built.  When
    the passes cost much more than the product (a few points scattered over
    a large grid, or few terms over a large field, see `_packed_side`), and
    over every field without `_on_planes`, this returns None.
    """
    spec, l = op.spec, op.support.l
    if not _on_planes(spec):
        return None
    j = -(-int(at.max(initial=0)).bit_length() // spec.e)  # q^j > every point
    inside = op.support.index < spec.q**j
    if spec.q == 2:  # the sub-cube, where a degree's row is its grid index
        box, rows = (2,) * j, op.support.index[inside]
    else:
        digits = op.support.rows[inside, l - j:].astype(np.int64)
        box = tuple((digits.max(axis=0, initial=0) + 1).tolist())
        rows = digits @ np.array([math.prod(box[c + 1:]) for c in range(j)], dtype=np.int64)
    if not _packed_side(spec, box, at.size, len(op.blocks)):
        return None
    flat = op.blocks.reshape(len(op.blocks), -1)  # (terms, block entries)
    planes = np.zeros((spec.e, math.prod(box), -(-flat.shape[1] // 8)), dtype=np.uint8)
    planes[:, rows] = _bit_planes(spec, flat[inside])
    return _grid_pass(spec, planes, box, inverse=False)[:, at]


def _monomial_evaluations(op: EncodedOperand, at: np.ndarray) -> np.ndarray:
    """The (len(at), w) evaluations at the grid indices `at`, w entries a
    block: the points x monomials matrix times the stacked blocks."""
    vals = monomial_matrix(op.spec, op.support, at)  # (terms, points)
    return op.spec.matmul(vals.T, op.blocks.reshape(len(op.blocks), -1))


# ---------------------------------------------------------------------------
# the grid GF(q)^l and its inverse Vandermonde transform
#
# Every point set is a subset of GF(q)^l and every reduced exponent vector a
# member of {0..q-1}^l.  Both are numbered row-major, last coordinate fastest,
# so index order is lexicographic order.  On the whole grid the evaluation
# map is the Kronecker product of l univariate q x q Vandermonde maps, so its
# inverse is the Kronecker product T of l copies of the closed-form T1.


def _degree_index(q: int, l: int, degree: Vec) -> np.ndarray:
    """Row-major index of one exponent vector of {0..q-1}^l, as a 1-element
    array.  The coordinates must have an integer dtype: a cast would truncate
    floats and take bools as 0/1."""
    try:
        arr = np.asarray(degree)
    except ValueError:  # ragged
        arr = np.empty(0)
    if arr.dtype.kind not in "iu" or arr.shape != (l,) or arr.min() < 0 or arr.max() >= q:
        raise ParameterError(f"a degree must have {l} coordinates in [0, {q}), as integers")
    return arr[None].astype(np.int64) @ exponents.radix(q, l)


def _grid_points(q: int, l: int, points) -> np.ndarray:
    """`points`, grid indices of GF(q)^l, as a 1-D int64 array checked to lie in
    [0, q^l).  They must have an integer dtype: a cast would truncate floats
    and take bools as 0/1."""
    try:
        arr = np.asarray(points)
    except ValueError:  # ragged
        arr = np.empty((0, 0))
    if arr.shape == (0,):  # no points at all
        arr = arr.astype(np.int64)
    if (arr.dtype.kind not in "iu" or arr.ndim != 1
            or arr.min(initial=0) < 0 or arr.max(initial=0) >= q**l):
        raise ParameterError(f"points must be a 1-D integer array of grid indices in [0, {q}^{l})")
    return arr.astype(np.int64, copy=False)


def _grid_digits(q: int, l: int, index: np.ndarray) -> np.ndarray:
    """The (len(index), l) coordinates of grid indices."""
    return index[:, None] // exponents.radix(q, l) % q


def _positions(grid: np.ndarray, wanted: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where each of `wanted` sits in the ascending `grid`, and whether it is there."""
    pos = np.searchsorted(grid, wanted)
    hit = pos < grid.size
    hit[hit] = grid[pos[hit]] == wanted[hit]
    return pos, hit


def _complement(size: int, index: np.ndarray) -> np.ndarray:
    """The sorted grid indices in [0, size) missing from `index`."""
    absent = np.ones(size, dtype=bool)
    absent[index] = False
    return np.flatnonzero(absent)


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
    v1 = _powers(spec, q, np.arange(q))
    t1 = spec.neg_arr(v1[::-1])
    t1[0] = 0
    t1[0, 0] = 1
    if not np.array_equal(spec.matmul(v1.T, t1), np.eye(q, dtype=np.int64)):
        raise InternalConsistencyError(f"closed-form inverse Vandermonde is wrong over {spec}")
    t1.setflags(write=False)
    return t1


def _dual_block(spec: FieldSpec, l: int, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """T[rows, cols] for exponent-grid rows and point-grid columns, int64.

    Over GF(2), T1 = [[1, 0], [1, 1]], so T[r, c] = [c & ~r = 0]: point c
    lies under exponent r bit by bit.  That is one vectorised bit test.
    Otherwise each entry is the product of l entries of T1.
    """
    if spec.q == 2:
        return (cols[None, :] & ~rows[:, None] == 0).astype(np.int64)
    t1 = inverse_vandermonde(spec)
    r = _grid_digits(spec.q, l, rows)
    c = _grid_digits(spec.q, l, cols)
    out = t1[r[:, :1], c[:, 0]]
    for i in range(1, l):
        out = spec.mul_arr(out, t1[r[:, i:i + 1], c[:, i]])
    return np.asarray(out, dtype=np.int64)


@dataclass(frozen=True, eq=False)
class _DualRows:
    """Rows of T[rows, cols] (see _dual_block), built a slice at a time: the
    eliminator builds only the rows it offers, and no product by T holds the
    whole block."""

    spec: FieldSpec
    l: int
    rows: np.ndarray
    cols: np.ndarray

    def __len__(self) -> int:
        return self.rows.size

    def __getitem__(self, part: slice) -> np.ndarray:
        return _dual_block(self.spec, self.l, self.rows[part], self.cols)

    def times(self, z: np.ndarray) -> np.ndarray:
        """T[rows, cols] . z, from slices of about MATMUL_TILE entries of T."""
        step = max(1, MATMUL_TILE // max(self.cols.size, 1))
        return np.concatenate([self.spec.matmul(self[lo:lo + step], z)
                               for lo in range(0, len(self), step)])


def _butterfly(grid: np.ndarray, l: int) -> np.ndarray:
    """The GF(2) transform of a (2^l, ...) unsigned array, in place.

    Pass i XORs each row whose coordinate i is 0 into its partner whose
    coordinate i is 1, so row x ends up holding the XOR of the rows y with
    y & ~x = 0.  That single map is both the Reed-Muller encoder (fast
    zeta transform: coefficients to values) and its inverse (fast Moebius
    transform: values to coefficients), since T1 = V1^T = [[1, 0], [1, 1]]
    is its own inverse over GF(2).  Rows may be bytes of packed bits.
    """
    for i in range(l):
        pairs = grid.reshape(2**i, 2, -1)
        pairs[:, 1] ^= pairs[:, 0]
    return grid


def _bit_planes(spec: FieldSpec, flat: np.ndarray) -> np.ndarray:
    """The (e, rows, ceil(w / 8)) uint8 bit planes of a (rows, w) index array:
    plane i packs bit i of every entry, its coefficient of alpha^i, eight
    entries to a byte (`np.packbits` takes any nonzero entry as a 1)."""
    planes = np.empty((spec.e, flat.shape[0], -(-flat.shape[1] // 8)), dtype=np.uint8)
    for i in range(spec.e):
        planes[i] = np.packbits(flat if spec.q == 2 else flat & flat.dtype.type(1 << i), axis=1)
    return planes


def _from_bit_planes(spec: FieldSpec, planes: np.ndarray, w: int) -> np.ndarray:
    """The (rows, w) index array of `_bit_planes`' output, in the field's index
    dtype.  Plane 0 is unpacked in place of the result; each further plane
    is unpacked, shifted into place and ORed in, eight entries to a uint64
    word (no entry's bits reach its neighbour)."""
    out = np.unpackbits(planes[0], axis=1).astype(spec.dtype, copy=False)
    words = out.view(np.uint64)
    for i in range(1, spec.e):
        bits = np.unpackbits(planes[i], axis=1).astype(spec.dtype, copy=False).view(np.uint64)
        bits <<= np.uint64(i)
        words |= bits
    return np.ascontiguousarray(out[:, :w])


@lru_cache(maxsize=None)
def _plane_map(spec: FieldSpec, inverse: bool, extent: int) -> np.ndarray:
    """One coordinate's map K on bit planes, read-only: K = V1^T restricted to
    exponents below `extent` (to evaluate), or T1 with extent q (`inverse`,
    to interpolate).

    Output plane j at x is the XOR of the input planes i at a with bit j of
    K[x, a] alpha^i set.  Entry [a, j q + x] is that choice of i as an
    e-bit mask, so it indexes the table of every XOR of input a's e planes
    (see _plane_pass).  Built from the field's tables, once per field and
    extent.
    """
    x = np.arange(spec.q)
    k = inverse_vandermonde(spec).T if inverse else _powers(spec, extent, x)  # k[a, x] = K[x, a]
    out = np.zeros((extent, spec.e, spec.q), dtype=spec.dtype)
    for i in range(spec.e):
        times = np.asarray(spec.mul_arr(k, 1 << i))  # K[x, a] alpha^i
        for j in range(spec.e):
            out[:, j] |= ((times >> j & 1) << i).astype(spec.dtype)
    out = out.reshape(extent, -1)
    out.setflags(write=False)
    return out


def _plane_pass(planes: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """(e, extent, S) uint8 planes to (e, q, S) through a `_plane_map`.

    For each input row a, a table of the q XORs of its e planes is built by
    doubling, and each of the e q output rows gathers its mask's entry from
    it; those gathers are XORed over a.  Inputs are taken a chunk at a
    time, so the gathered rows stay within MATMUL_TILE bytes (chunks of
    512 KiB and up made a matdot-gf8 encode about 35% slower in a fresh
    process, as the allocator maps and faults in each one), and a chunk's
    gathers are folded pairwise (ufunc.reduce along the chunk is slow).
    """
    e, extent, width = planes.shape
    q, rows = 1 << e, mask.shape[1]
    step = max(1, MATMUL_TILE // (rows * width))
    out = None
    for lo in range(0, extent, step):
        n = min(step, extent - lo)
        table = np.empty((n, q, width), dtype=np.uint8)
        table[:, 0] = 0
        for i in range(e):
            np.bitwise_xor(table[:, :1 << i], planes[i, lo:lo + n, None],
                           out=table[:, 1 << i:2 << i])
        at = mask[lo:lo + n] + q * np.arange(n)[:, None]  # rows of the n stacked tables
        picked = np.take(table.reshape(n * q, width), at, axis=0)
        while n > 1:
            half = n // 2
            picked[:half] ^= picked[n - half:n]
            n -= half
        out = picked[0] if out is None else np.bitwise_xor(out, picked[0], out=out)
    return out.reshape(e, q, width)


def _on_planes(spec: FieldSpec) -> bool:
    """Can the grid transform of this field run on bit planes?  Only in
    characteristic 2, and only up to TABLE_LIMIT: the passes' (extent, e q)
    maps and q-row tables grow with q (200 MB for 100 exponents over
    GF(2^16)).  `_packed_side` (evaluating) and `_transform` (interpolating)
    then choose the side from the work at hand."""
    return spec.p == 2 and spec.q <= TABLE_LIMIT


def _grid_pass(
    spec: FieldSpec, data: np.ndarray, box: tuple[int, ...], inverse: bool,
) -> np.ndarray:
    """The map K on every coordinate of grid data, box[c] rows along
    coordinate c: V1^T restricted to the box's extents, or T1 (`inverse`).
    Each pass maps the leading coordinate and rotates it to the back, so the
    result has q^len(box) rows in row-major grid order.  The data's form
    picks the backend.  (e, prod(box), S) uint8 bit planes of a
    characteristic-2 field go through `_plane_pass`'s table lookups (K is
    GF(2)-linear on an element's bits, `_plane_map`), or over GF(2), where
    T1 = V1^T, through `_butterfly` in place.  A (q^l, w) index array goes
    through `FieldSpec.matmul` by T1, so only `inverse` (an encode by V1^T
    products lost 3.5-5 times to the monomial product over odd p).
    """
    planes = data.ndim == 3
    lead, width = data.shape[:-2], data.shape[-1]
    if not width:  # blocks without entries
        return np.zeros((*lead, spec.q ** len(box), 0), dtype=data.dtype)
    if planes and spec.q == 2:
        _butterfly(data[0], len(box))
        return data
    t1 = None if planes else inverse_vandermonde(spec)
    out = data
    for extent in box:
        # reshaped inline: a copy the reshape makes is freed when the pass returns
        if planes:
            mapped = _plane_pass(out.reshape(spec.e, extent, -1), _plane_map(spec, inverse, extent))
        else:
            mapped = spec.matmul(t1, out.reshape(extent, -1))
        out = mapped.reshape(*lead, spec.q, -1, width).swapaxes(-3, -2)
    return out.reshape(*lead, -1, width)


def _transform(spec: FieldSpec, l: int, values: np.ndarray, stats: _linalg.EliminationStats) -> np.ndarray:
    """T . values for a (q^l, w) array of grid values, one coordinate at a
    time (`_grid_pass`).

    Over GF(2) this is the fast Moebius transform, `_butterfly`'s l XOR
    passes on packed bits.  Over the other fields with `_on_planes`, once a
    packed byte holds w >= 2 entries of a row, the values are split into bit
    planes and run through the table passes with T1.  At w = 1 seven of a
    byte's eight bits are padding while the passes' cost stays that of a
    byte.  Timed with one BLAS thread on a 2-core x86 VM over 19 grids
    GF(4)^3-GF(512)^2, the product was the faster at w = 1 on 15 (up to 4
    times: 0.20 against 0.05 ms on GF(32)^2, 7.0 against 2.1 ms on
    GF(128)^2).  From w = 2 the planes lose on some grids, by at most 3
    times and 1.8 times where the product takes a millisecond or more, and
    win by up to 57 times as w grows; over the 182 cases (w = 1-256) this
    rule's total time was within about 1% of taking the faster side each
    time, against 4% for planes alone and 18 times for the product alone.
    Otherwise the passes multiply by T1 with `FieldSpec.matmul`.
    The tallies count the field operations of the l passes of T1 either
    way (over GF(2), the butterfly's XORs).  `values` may be overwritten.
    """
    q, w, box = spec.q, values.shape[1], (spec.q,) * l
    if q == 2:
        stats.add_ops += l * values.size // 2
    else:
        stats.mult_ops += l * q * values.size
        stats.add_ops += l * q * values.size
    if _on_planes(spec) and (q == 2 or w >= 2):
        return _from_bit_planes(spec, _grid_pass(spec, _bit_planes(spec, values), box, inverse=True), w)
    return _grid_pass(spec, values, box, inverse=True)


def _dual_side(spec: FieldSpec, erasures: int, kappa: int) -> bool:
    """Solve for the erasures (dual) rather than the coefficients (primal)?

    The dual side has `erasures` unknowns and the primal side kappa.  T1 is
    q x q, so the dual side also needs T1 to be no larger than the largest
    point grid, i.e. q <= 1024.
    """
    return erasures < kappa and spec.q**2 <= DEFAULT_POINT_LIMIT


def _packed_side(spec: FieldSpec, box: tuple[int, ...], points: int, terms: int) -> bool:
    """Evaluate in characteristic 2 by bit-plane passes over `box` (see
    evaluate_many) rather than by the monomial product?

    Per block entry the passes make xors / 8 byte XORs and the product
    points * terms multiply-adds.  Over GF(2) the butterfly's j passes over
    the sub-cube make xors = j 2^j; otherwise pass c builds box[c] tables of
    q rows and gathers e q rows from each, every row as long as the
    coordinates before c (already q values) and after it (still box extents)
    make it.  Timed with one BLAS thread on a 2-core x86 VM, the two break
    even where the XORs are 6-24 times the products over GF(2), for blocks
    of 256-2048 entries (50-100 times for 8 entries, where the per-row cost
    of a pass dominates), and 2-4 times over GF(4)-GF(256), where a pass
    gathers its rows instead of XORing them in place (full grids and thirds
    of them, 4-256 terms, 8-1024 entries).  So the product is kept only
    beyond 16 and 4 times: a few points scattered over a large grid, or few
    terms over a large field.  Only for fields with `_on_planes`.
    """
    q, j = spec.q, len(box)
    if q == 2:
        return j * 2**j <= 16 * 8 * points * terms
    xors = sum(extent * (1 + spec.e) * q * q**c * math.prod(box[c + 1:])
               for c, extent in enumerate(box))
    return xors <= 4 * 8 * points * terms


# ---------------------------------------------------------------------------
# interpolation system


@dataclass(frozen=True, eq=False)
class InterpolationSystem:
    """An audited evaluation code: the support S of the product polynomial
    and the N evaluation points, both as grid indices.

    kappa = |S| is the number of unknown coefficients; recovery_threshold
    is the evaluation count that guarantees solvability for any point
    subset.  point_grid holds the points' grid indices in the caller's
    order; S's own, ascending, are `support.index`.  No evaluation
    matrix is kept: each primal decode builds the responders' rows, all of
    them in one monomial_matrix call (building them in panels is ROADMAP
    item 11).
    `==` is identity; to compare contents, compare the grids.
    """

    spec: FieldSpec
    support: ExponentSet
    kappa: int
    recovery_threshold: int
    point_grid: np.ndarray

    def index_of_degree(self, degree: Vec) -> int:
        wanted = _degree_index(self.spec.q, self.support.l, degree)
        pos, hit = _positions(self.support.index, wanted)
        if not hit[0]:
            raise ParameterError(f"degree {tuple(degree)} is not in the support S")
        return int(pos[0])


def build_system(spec: FieldSpec, support: ExponentSet, points) -> InterpolationSystem:
    """Verify that the points, distinct grid indices, determine every
    function in the span of the support.

    With e0 unused grid points the audit takes the side with fewer unknowns
    (see _dual_side): either the kappa x N monomial matrix, built for the
    audit only, has rank kappa (primal), or no nonzero function vanishing
    off the e0 unused points lies in the span, i.e. the block T[outside the
    support, unused points] has rank e0 (dual).  The two are the same
    guarantee; on a full grid (e0 = 0) the dual side rests on the exact
    check of T1.
    """
    q, l = spec.q, support.l
    point_grid = np.array(_grid_points(q, l, points))  # a copy the caller cannot change
    point_grid.setflags(write=False)
    threshold = exponents.delta(support) + 1
    if point_grid.size < threshold:
        raise InsufficientResponsesError(threshold, point_grid.size)
    ordered = np.sort(point_grid)
    if (ordered[1:] == ordered[:-1]).any():
        raise ParameterError("evaluation points must be distinct")
    kappa = len(support)
    unused = _complement(q**l, point_grid)
    if _dual_side(spec, unused.size, kappa):
        block = _dual_block(spec, l, _outside(q, l, support.index), unused)
        rank = kappa - unused.size + _linalg.matrix_rank(spec, block.T)
    else:
        rank = _linalg.matrix_rank(spec, monomial_matrix(spec, support, point_grid))
    if rank != kappa:
        # Would contradict the footprint bound; surface loudly.
        raise InternalConsistencyError(
            f"evaluation matrix rank {rank} < kappa {kappa} on {point_grid.size} points"
        )
    return InterpolationSystem(
        spec=spec,
        support=support,
        kappa=kappa,
        recovery_threshold=threshold,
        point_grid=point_grid,
    )


# ---------------------------------------------------------------------------
# worker payloads and responses


@dataclass(eq=False, slots=True)
class WorkerPayload:
    """The operands at grid point `point`, as (r, s) and (s, t) index arrays:
    row views of a `WorkerPlane`'s evaluation arrays, or over GF(2) the
    worker's packed rows unpacked.  Slotted and not frozen, so one costs
    about what a tuple does: the plane builds one each time a worker is
    looked up."""

    spec: FieldSpec
    point: int
    a_part: np.ndarray
    b_part: np.ndarray


@dataclass(eq=False, slots=True)
class WorkerResponse:
    """The product at grid point `point`; `interpolate` checks it in its stack."""

    point: int
    product: np.ndarray


@dataclass(frozen=True, eq=False)
class WorkerPlane:
    """Every worker's operands as data: the points' grid indices and the two
    operands' evaluations, row i belonging to worker i, for blocks of
    `shapes`, (r, s) and (s, t).  Over GF(2) an operand's evaluations are
    the (N, ceil(w / 8)) uint8 rows of packed bits that `_evaluation_planes`
    leaves, w entries a block, one eighth of the index arrays; over every
    other field they are the (N, r, s) and (N, s, t) index arrays of
    `evaluate_many`.  (Over GF(2^e) a lookup would OR e planes back into
    indices, `_from_bit_planes`, at about 15 us an operand: more per worker
    than the encode saves.)  No per-worker object exists until one is asked
    for: `plane[i]` builds worker i's `WorkerPayload` (over GF(2) unpacking
    its two rows, else from row views), a slice is the plane of those
    workers, and `len` and iteration work as on a list.  `products` runs
    any workers in one batched product.  `==` is identity."""

    spec: FieldSpec
    points: np.ndarray
    a_vals: np.ndarray
    b_vals: np.ndarray
    shapes: tuple[tuple[int, int], tuple[int, int]]

    def __len__(self) -> int:
        return self.points.size

    def __getitem__(self, i):
        if type(i) is not int and not isinstance(i, np.integer):  # a bool is neither
            if isinstance(i, slice):
                return WorkerPlane(self.spec, self.points[i], self.a_vals[i], self.b_vals[i],
                                   self.shapes)
            raise ParameterError(f"a worker is named by an integer or a slice, not {type(i).__name__}")
        try:
            point = self.points.item(i)
        except (IndexError, OverflowError):
            raise RangeError(f"worker {i} outside a plane of {self.points.size}") from None
        return WorkerPayload(self.spec, point, *self._blocks(i))

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    def _blocks(self, at) -> tuple[np.ndarray, np.ndarray]:
        """Row `at`, or the rows of the index array `at`, of both operands
        as index arrays: over GF(2) the packed rows unpacked."""
        a, b = self.a_vals[at], self.b_vals[at]
        if self.spec.q == 2:
            a, b = _unpacked(a, self.shapes[0]), _unpacked(b, self.shapes[1])
        return a, b

    def products(self, workers) -> np.ndarray:
        """The products of `workers`, a 1-D integer array of positions in the
        plane, in that order: one (len(workers), r, t) stack from one
        batched `FieldSpec.matmul`."""
        at = np.asarray(workers)
        if at.dtype.kind not in "iu" or at.ndim != 1:
            raise ParameterError("workers must be a 1-D integer array of positions in the plane")
        if at.size and (at.min() < -self.points.size or at.max() >= self.points.size):
            raise RangeError(f"workers outside a plane of {self.points.size}")
        return self.spec.matmul(*self._blocks(at))


def _unpacked(rows: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Packed GF(2) evaluations, (..., ceil(w / 8)) uint8 rows, as
    (..., *shape) index arrays, w = r c: one `np.unpackbits` whose count
    drops the padding bits of each row's last byte."""
    r, c = shape
    return np.unpackbits(rows, -1, r * c).reshape(*rows.shape[:-1], r, c)  # axis, count


def make_payloads(enc_a: EncodedOperand, enc_b: EncodedOperand, points) -> WorkerPlane:
    """The worker plane at `points`, grid indices, in the order given.  Over
    GF(2) each operand is kept as packed rows: the bit plane that
    `_evaluation_planes` leaves, or where it takes the monomial product,
    that product packed."""
    spec = enc_a.spec
    at = _grid_points(spec.q, enc_a.support.l, points)
    shapes = (enc_a.block_shape, enc_b.block_shape)
    if spec.q != 2:
        return WorkerPlane(spec, at, evaluate_many(enc_a, at), evaluate_many(enc_b, at), shapes)

    def packed(op: EncodedOperand) -> np.ndarray:
        planes = _evaluation_planes(op, at)
        return np.packbits(_monomial_evaluations(op, at), axis=1) if planes is None else planes[0]

    return WorkerPlane(spec, at, packed(enc_a), packed(enc_b), shapes)


def worker_compute(payload: WorkerPayload) -> WorkerResponse:
    return WorkerResponse(payload.point, payload.spec.matmul(payload.a_part, payload.b_part))


def format_response(resp: WorkerResponse, q: int, l: int) -> str:
    """The response's grid index, its coordinates on GF(q)^l and the product's entries."""
    coords = ",".join(map(str, exponents.vector_at(q, l, resp.point)))
    flat = " ".join(map(str, np.ravel(resp.product).tolist()))
    return f"{resp.point} {coords} {flat}"


# ---------------------------------------------------------------------------
# decoding


@dataclass(eq=False)
class Interpolation:
    """Recovered coefficient blocks plus the work done to get them.

    blocks[i] is the coefficient block at the degree with grid index
    grid[i]; grid is ascending (the whole support, or the one degree asked
    for with `only`).  `==` is identity; to compare contents, compare
    `.grid` and `.blocks`.
    """

    spec: FieldSpec
    l: int
    grid: np.ndarray
    blocks: np.ndarray  # (len(grid), *block_shape)
    stats: _linalg.EliminationStats

    def __getitem__(self, degree: Vec) -> MatrixFq:
        pos, hit = _positions(self.grid, _degree_index(self.spec.q, self.l, degree))
        if not hit[0]:
            raise IncompleteRecoveryError(f"missing coefficient at {tuple(degree)}")
        return MatrixFq(self.spec, self.blocks[pos[0]])


def _stack(
    sys: InterpolationSystem, responses: Sequence[WorkerResponse],
) -> tuple[np.ndarray, np.ndarray]:
    """The responses' grid indices and stacked products, checked once; identical
    duplicates collapse to their first arrival, a conflicting one raises.  A
    point must be an int (Python or numpy; no bool, float or tuple)."""
    spec, points = sys.spec, [r.point for r in responses]
    if not all(t is not bool and issubclass(t, (int, np.integer)) for t in set(map(type, points))):
        raise ParameterError("response points must be integer grid indices")
    try:
        grid = np.fromiter(points, np.int64, len(points))
        products = np.stack([r.product for r in responses])
    except OverflowError:
        raise ParameterError(f"response at a point outside GF({spec.q})^{sys.support.l}") from None
    except ValueError:
        raise ShapeError("responses carry products of different shapes") from None
    stray = ~np.isin(grid, sys.point_grid)
    if stray.any():
        raise ParameterError(f"response at unknown point {points[stray.argmax()]}")
    products = _indices(spec, products, ndim=3)
    order = np.argsort(grid, kind="stable")  # np.unique would import numpy.ma
    repeat = grid[order[1:]] == grid[order[:-1]]
    if repeat.any():  # each repeat must equal the arrival before it at its point
        later, earlier = order[1:][repeat], order[:-1][repeat]
        clash = later[(products[later] != products[earlier]).reshape(later.size, -1).any(axis=1)]
        if clash.size:
            raise ParameterError(f"conflicting responses at point {points[clash[0]]}")
        keep = np.sort(order[np.r_[True, ~repeat]])
        grid, products = grid[keep], products[keep]
    return grid, products


def _combine(
    spec: FieldSpec, weights: np.ndarray, products: np.ndarray, stats: _linalg.EliminationStats,
) -> np.ndarray:
    """sum_i weights[i] * products[i] for flattened products, in O(R w) work.

    In characteristic 2 the products are summed by weight: each distinct
    nonzero weight's rows are XORed over their bytes as uint64 words (single
    bytes when a row's length is not a multiple of 8), one reduce per
    weight, and the d <= min(q - 1, R) group sums meet their weights in one
    (1 x d) . (d x w) product.  Otherwise it is the one (1 x R) . (R x w)
    product.  The tallies count the R w multiplications and additions of
    the weighted sum.
    """
    if spec.p == 2:
        word = np.uint64 if products.shape[1] * products.itemsize % 8 == 0 else np.uint8
        rows = products.view(word)
        ranked = np.sort(weights[weights != 0])
        distinct = ranked[np.r_[True, ranked[1:] != ranked[:-1]]] if ranked.size else ranked
        sums = np.empty((distinct.size, rows.shape[1]), dtype=word)
        for k, w in enumerate(distinct.tolist()):
            np.bitwise_xor.reduce(rows[weights == w], axis=0, out=sums[k])
        acc = spec.matmul(distinct[None], sums.view(spec.dtype))[0]
    else:
        acc = spec.matmul(weights[None], products)[0]
    stats.mult_ops += weights.size * acc.size
    stats.add_ops += weights.size * acc.size
    return acc


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
      the e erased values from the rows of T[outside S, erasures].  The
      eliminator builds those rows a panel at a time and stops at the row
      that completes rank e.  Each nonzero row it offers costs O(e (e + w)),
      done in BLAS products, and each zero row nothing;
    * correct the coefficients on S by T[S, erasures] times those values,
      built a slice at a time: O(kappa e w).

    Otherwise it eliminates the kappa unknown coefficients directly from the
    monomial rows at the responding points (primal side).  All R rows, each
    kappa wide, are built in one monomial_matrix call, R kappa entries of
    memory (building them in panels is ROADMAP item 11); the eliminator
    offers them in panels of kappa - rank rows: O(kappa (kappa + w)) per
    row offered.
    Both sides raise RankDeficiencyError, in kappa terms, exactly when the
    responding points do not determine every function in the span of S.

    With `only`, just the requested coefficient is recovered, as one weight
    per response: on the dual side T's row at the target, corrected through
    the erasure solve (O(e R) after the solve), then applied to the products
    (O(R w), `_combine`); on the primal side the eliminator expresses that
    unknown as a combination of response equations.
    """
    responses = list(responses)
    if not responses:
        raise InsufficientResponsesError(sys.recovery_threshold if require_threshold else sys.kappa, 0)
    grid, products = _stack(sys, responses)
    return interpolate_stack(sys, grid, products, only, require_threshold)


def interpolate_stack(
    sys: InterpolationSystem,
    grid: np.ndarray,
    products: np.ndarray,
    only: Vec | None = None,
    require_threshold: bool = True,
) -> Interpolation:
    """`interpolate` on responses already stacked as `_stack` leaves them:
    `grid`, distinct grid indices of the system's points as int64, and
    `products`, their (R, r, c) products in the field's index dtype.  They
    are not checked again; `WorkerPlane.products` makes such a stack."""
    if require_threshold and grid.size < sys.recovery_threshold:
        raise InsufficientResponsesError(sys.recovery_threshold, grid.size)
    missing = _complement(sys.spec.q**sys.support.l, grid)
    if not _dual_side(sys.spec, missing.size, sys.kappa):
        return _interpolate_primal(sys, grid, products, only)
    try:
        return _interpolate_dual(sys, grid, products, missing, only)
    except _linalg.RankDeficiencyError as exc:
        # The kappa-column system lacks exactly the dual block's rank deficit.
        raise _linalg.RankDeficiencyError(
            sys.kappa, sys.kappa - missing.size + exc.got) from None


def _interpolate_dual(
    sys: InterpolationSystem, grid: np.ndarray, products: np.ndarray,
    missing: np.ndarray, only: Vec | None,
) -> Interpolation:
    """Solve for the erased grid values, then read off the coefficients.

    Both forms solve T[outside, missing] . Z = rhs once and correct
    x - T[rows, missing] . Z once.  The full decode takes rows = S, x = c[S]
    and rhs = c[outside] of the transformed grid c.  The target decode takes
    rows = the target, x = T's row at the target over the responders and
    rhs = T[outside, responders]: the corrected x are the responses'
    weights, which `_combine` applies to the products.
    """
    spec, l = sys.spec, sys.support.l
    shape, flat = products.shape[1:], products.reshape(grid.size, -1)
    outside = _outside(spec.q, l, sys.support.index)
    stats = _linalg.EliminationStats()
    if only is None:
        rows = sys.support.index
        values = np.zeros((spec.q**l, flat.shape[1]), dtype=spec.dtype)
        values[grid] = flat
        c = _transform(spec, l, values, stats)
        x = c[rows]
    else:
        rows = sys.support.index[sys.index_of_degree(only)][None]
        x = _dual_block(spec, l, rows, grid)
    if missing.size:
        rhs = c[outside] if only is None else _DualRows(spec, l, outside, grid)
        z, _, solved = _linalg.solve_exact(spec, _DualRows(spec, l, outside, missing), rhs,
                                           missing.size)
        del rhs  # kept to the return, a large c[outside] is paged in afresh on every decode
        stats.add(solved)
        x = spec.sub_arr(x, _DualRows(spec, l, rows, missing).times(z))
        stats.mult_ops += rows.size * z.size
        stats.add_ops += rows.size * z.size
    if only is not None:
        x = _combine(spec, x[0], flat, stats)[None]
    return Interpolation(spec, l, rows, x.reshape(rows.size, *shape), stats)


def _interpolate_primal(
    sys: InterpolationSystem, grid: np.ndarray, products: np.ndarray, only: Vec | None,
) -> Interpolation:
    """Eliminate the kappa coefficients from the responders' evaluation rows."""
    spec, l = sys.spec, sys.support.l
    shape, flat = products.shape[1:], products.reshape(grid.size, -1)
    rows = monomial_matrix(spec, sys.support, grid).T
    if only is not None:
        target = sys.index_of_degree(only)
        y, used, stats = _linalg.express_unit(spec, rows, target, sys.kappa)
        combined = _combine(spec, y, flat[used], stats)
        return Interpolation(spec, l, sys.support.index[target][None], combined.reshape(1, *shape),
                             stats)
    x, _, stats = _linalg.solve_exact(spec, rows, flat, sys.kappa)
    return Interpolation(spec, l, sys.support.index, x.reshape(sys.kappa, *shape), stats)


def _check_blocks(coeffs: Interpolation, split_a: BlockSplit, split_b: BlockSplit) -> None:
    """Raise ShapeError unless the recovered blocks are blocks of A.B."""
    want = (split_a.block_shape[0], split_b.block_shape[1])
    if coeffs.blocks.shape[1:] != want:
        raise ShapeError(f"recovered blocks of shape {coeffs.blocks.shape[1:]}, "
                         f"but the product's blocks are {want}")


def extract_poly(
    coeffs: Interpolation, sol: PolySolution, split_a: BlockSplit, split_b: BlockSplit,
) -> MatrixFq:
    """Assemble the block grid of A.B from recovered coefficients.

    Block (i, j) is the coefficient at the reduced sum of the i-th degree of
    D_A and the j-th of D_B; all m x n sums are formed at once as grid
    indices (`exponents.pair_sums`) and their blocks gathered in one step.
    """
    _check_blocks(coeffs, split_a, split_b)
    sums = exponents.pair_sums(sol.d_a, sol.d_b).ravel()
    pos, hit = _positions(coeffs.grid, sums)
    if not hit.all():
        first = exponents.vector_at(sol.q, sol.l, sums[hit.argmin()])
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
    _check_blocks(coeffs, split_a, split_b)
    r = split_a.original_shape[0]
    t = split_b.original_shape[1]
    return MatrixFq(split_a.spec, coeffs[sol.degree_target].data[:r, :t])
