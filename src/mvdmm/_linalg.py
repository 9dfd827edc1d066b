"""Exact Gauss-Jordan elimination over GF(q) for the decoder.

The decoder's systems have as many columns as it has unknowns: the e erased
grid values on the dual side (rows are the coefficients that must vanish
outside the support), or the kappa coefficients on the primal side (rows
are responding workers).  build_system's rank audits use the same
eliminator.  Rows arrive one at a time; the eliminator keeps an
incrementally fully-reduced pivot basis so that once `target` pivots exist,
the solution can be read straight off the pivot rows.  Over GF(2) rows are
packed into Python ints and all row operations are single XORs.

Operation counters tally the field elements touched by row scaling and row
combination (plus pivot inversions); they back the decoder cost contract
checked by the acceptance suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientResponsesError
from .field import FieldSpec


@dataclass
class EliminationStats:
    rows_offered: int = 0
    rows_used: int = 0
    mult_ops: int = 0
    add_ops: int = 0
    inversions: int = 0

    @property
    def total_ops(self) -> int:
        return self.mult_ops + self.add_ops + self.inversions

    def add(self, other: "EliminationStats") -> None:
        """Accumulate another tally into this one."""
        self.rows_offered += other.rows_offered
        self.rows_used += other.rows_used
        self.mult_ops += other.mult_ops
        self.add_ops += other.add_ops
        self.inversions += other.inversions


class RankDeficiencyError(InsufficientResponsesError):
    """The offered equations never reached the required rank."""

    def __init__(self, needed: int, got: int):
        super().__init__(needed, got)
        self.args = (f"equations span rank {got}, need {needed}",)


class _GenericEliminator:
    """Incremental Gauss-Jordan over any FieldSpec, rows as numpy index arrays."""

    def __init__(self, spec: FieldSpec, ncols: int, rhs_width: int, track: bool, target: int):
        self.spec = spec
        self.ncols = ncols
        self.rhs_width = rhs_width
        self.track = track
        self.target = target
        self.pivots: dict[int, np.ndarray] = {}      # pivot col -> augmented row
        self.transforms: dict[int, np.ndarray] = {}  # pivot col -> combo over used rows
        self.tags: list[object] = []                 # identities of rows that became pivots
        self.stats = EliminationStats()

    def _combine(self, dst: np.ndarray, f: int, src: np.ndarray) -> np.ndarray:
        # dst - f * src over the field
        spec = self.spec
        n = dst.shape[0]
        self.stats.mult_ops += n
        self.stats.add_ops += n
        scaled = spec.mul_arr(np.int64(f), src)
        if spec.p == 2:  # subtraction is index XOR in characteristic 2
            np.bitwise_xor(dst, scaled, out=dst)
            return dst
        return spec.sub_arr(dst, scaled)

    def offer(self, row: np.ndarray, rhs: np.ndarray, tag: object) -> bool:
        if self.complete():
            return False
        spec = self.spec
        self.stats.rows_offered += 1
        aug = np.concatenate([np.asarray(row, dtype=np.int64),
                              np.asarray(rhs, dtype=np.int64)])
        trans = None
        if self.track:
            trans = np.zeros(self.target, dtype=np.int64)
            trans[len(self.tags)] = 1
        for col, prow in self.pivots.items():
            f = int(aug[col])
            if f:
                aug = self._combine(aug, f, prow)
                if self.track:
                    trans = self._combine(trans, f, self.transforms[col])
        nz = np.nonzero(aug[: self.ncols])[0]
        if nz.size == 0:
            return False
        col = int(nz[0])
        inv = spec.inv(int(aug[col]))
        self.stats.inversions += 1
        if inv != 1:
            self.stats.mult_ops += aug.shape[0]
            aug = spec.mul_arr(np.int64(inv), aug)
            if self.track:
                self.stats.mult_ops += trans.shape[0]
                trans = spec.mul_arr(np.int64(inv), trans)
        for pcol, prow in list(self.pivots.items()):
            f = int(prow[col])
            if f:
                self.pivots[pcol] = self._combine(prow, f, aug)
                if self.track:
                    self.transforms[pcol] = self._combine(self.transforms[pcol], f, trans)
        self.pivots[col] = aug
        if self.track:
            self.transforms[col] = trans
        self.tags.append(tag)
        self.stats.rows_used += 1
        return True

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def complete(self) -> bool:
        return self.rank >= self.target

    def solution(self) -> np.ndarray:
        """X with X[col] = transformed RHS of the pivot at col; requires full rank."""
        out = np.zeros((self.ncols, self.rhs_width), dtype=np.int64)
        for col, prow in self.pivots.items():
            out[col] = prow[self.ncols:]
        return out

    def transform_for(self, col: int) -> np.ndarray:
        """Coefficients expressing unit vector e_col over the used rows."""
        return self.transforms[col][: len(self.tags)]


class _BinaryEliminator:
    """Same interface for GF(2); augmented rows live in Python ints."""

    def __init__(self, spec: FieldSpec, ncols: int, rhs_width: int, track: bool, target: int):
        self.spec = spec
        self.ncols = ncols
        self.rhs_width = rhs_width
        self.track = track
        self.target = target
        self.width = ncols + rhs_width + (target if track else 0)
        self.pivots: dict[int, int] = {}
        self.tags: list[object] = []
        self.stats = EliminationStats()
        self._colmask = (1 << ncols) - 1

    def _pack(self, row: np.ndarray, rhs: np.ndarray) -> int:
        bits = np.concatenate([np.asarray(row, dtype=np.uint8) & 1,
                               np.asarray(rhs, dtype=np.uint8) & 1])
        return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")

    def offer(self, row: np.ndarray, rhs: np.ndarray, tag: object) -> bool:
        if self.complete():
            return False
        self.stats.rows_offered += 1
        aug = self._pack(row, rhs)
        if self.track:
            aug |= 1 << (self.ncols + self.rhs_width + len(self.tags))
        # One pass clears every pivot column: pivot rows are zero at each
        # other's pivot columns, so order does not matter.
        for col, prow in self.pivots.items():
            if (aug >> col) & 1:
                aug ^= prow
                self.stats.add_ops += self.ncols + self.rhs_width
        rest = aug & self._colmask
        if not rest:
            return False
        col = (rest & -rest).bit_length() - 1
        bit = 1 << col
        for pcol, prow in list(self.pivots.items()):
            if prow & bit:
                self.pivots[pcol] = prow ^ aug
                self.stats.add_ops += self.ncols + self.rhs_width
        self.pivots[col] = aug
        self.tags.append(tag)
        self.stats.rows_used += 1
        return True

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def complete(self) -> bool:
        return self.rank >= self.target

    def solution(self) -> np.ndarray:
        out = np.zeros((self.ncols, self.rhs_width), dtype=np.int64)
        for col, prow in self.pivots.items():
            seg = (prow >> self.ncols) & ((1 << self.rhs_width) - 1)
            for j in range(self.rhs_width):
                out[col, j] = (seg >> j) & 1
        return out

    def transform_for(self, col: int) -> np.ndarray:
        prow = self.pivots[col]
        seg = prow >> (self.ncols + self.rhs_width)
        used = len(self.tags)
        return np.array([(seg >> j) & 1 for j in range(used)], dtype=np.int64)


def _make_eliminator(spec: FieldSpec, ncols: int, rhs_width: int, track: bool, target: int):
    if spec.q == 2:
        return _BinaryEliminator(spec, ncols, rhs_width, track, target)
    return _GenericEliminator(spec, ncols, rhs_width, track, target)


def solve_exact(
    spec: FieldSpec,
    rows: list[np.ndarray],
    rhs: list[np.ndarray],
    ncols: int,
) -> tuple[np.ndarray, list[int], EliminationStats]:
    """Solve a consistent overdetermined system from its first independent rows.

    Returns (X, used_row_positions, stats) with rows[i] . X = rhs[i] for the
    used equations.  Raises RankDeficiencyError if the rows never span rank
    `ncols`.
    """
    rhs_width = int(np.asarray(rhs[0]).shape[0]) if rhs else 0
    elim = _make_eliminator(spec, ncols, rhs_width, track=False, target=ncols)
    used: list[int] = []
    for i, (row, r) in enumerate(zip(rows, rhs)):
        if elim.offer(row, r, i):
            used.append(i)
        if elim.complete():
            break
    if not elim.complete():
        raise RankDeficiencyError(ncols, elim.rank)
    return elim.solution(), used, elim.stats


def express_unit(
    spec: FieldSpec,
    rows: list[np.ndarray],
    unit_col: int,
    ncols: int,
) -> tuple[np.ndarray, list[int], EliminationStats]:
    """Coefficients y over a subset of rows with sum_j y_j rows[used[j]] = e_unit."""
    elim = _make_eliminator(spec, ncols, 0, track=True, target=ncols)
    used: list[int] = []
    empty = np.zeros(0, dtype=np.int64)
    for i, row in enumerate(rows):
        if elim.offer(row, empty, i):
            used.append(i)
        if elim.complete():
            break
    if not elim.complete():
        raise RankDeficiencyError(ncols, elim.rank)
    return elim.transform_for(unit_col), used, elim.stats


def matrix_rank(spec: FieldSpec, matrix: np.ndarray) -> int:
    """Rank of an index matrix, by column elimination (stops early at full rank)."""
    matrix = np.asarray(matrix, dtype=np.int64)
    nrows = matrix.shape[0]
    elim = _make_eliminator(spec, nrows, 0, track=False, target=nrows)
    empty = np.zeros(0, dtype=np.int64)
    for j in range(matrix.shape[1]):
        elim.offer(matrix[:, j], empty, j)
        if elim.complete():
            break
    return elim.rank
