"""Exact Gauss-Jordan elimination over GF(q) for the decoder.

The decoder's systems have as many columns as it has unknowns: the e erased
grid values on the dual side (rows are the coefficients that must vanish
outside the support), or the kappa coefficients on the primal side (rows
are responding workers).  build_system's rank audits use the same
eliminator.

It computes the row-order reduced echelon form: a row becomes a pivot row
exactly when it is independent of the rows before it, and the basis is the
one fully reduced set of rows with those pivot columns, held as one dense
(rank x width) index array.  Once it has a pivot in every column, the
solution is read straight off the pivot rows.  To express a unit vector over
the used rows (express_unit), each offered row carries its own unit vector
over the used rows as extra columns.  GF(2) takes the same path as every
other field.

Rows are read rows[lo:hi] at a time, as arrays or built on demand.  A panel
is the next ncols - rank rows that are not zero as given; zero rows are
offered on the way and cost nothing.  So elimination never reads past the
row that completes the basis.  This is the blocked style of FFLAS-FFPACK
(Dumas, Giorgi and Pernet, ACM TOMS 2008), keeping the row rank profile
(Jeannerod, Pernet and Storjohann, J. Symb. Comp. 2013):

* the panel P is reduced against the basis by one FieldSpec.matmul,
  P - P[:, pivots] . basis;
* it is absorbed by halves: absorb the first half, reduce the second half
  against the first half's new pivot rows (one product), absorb the second
  half, and clear the second half's pivots from the first half's pivot rows
  (one product);
* a leaf of at most LEAF rows goes row by row, and clears each new pivot
  from all its other rows by one outer product (FieldSpec.sub_outer); over
  GF(p), p odd, with delayed reduction: the updates leave the rows
  unreduced, and only what is read is reduced (see _Eliminator._leaf);
* the old basis is cleared of the panel's pivots by one product.

Operation counters tally the work of eliminating one row at a time: per
nonzero coefficient, the row width it scales and combines, plus one
inversion per pivot.  They back the decoder cost contract checked by the
acceptance suite.  Each count follows from the pivot sequence, times the
width:

* reduction: an offered row's nonzeros, as given, at the pivot columns found
  before it (the basis is fully reduced, so those are its coefficients);
* scaling: one per pivot whose reduced value is not 1;
* clearing: for pivot k, the basis rows that have its column when it is
  found.  These are the nonzeros above the diagonal in column k of U^-1.
  U is the unit upper-triangular matrix of the pivot rows as scaled when
  found, read at the pivot columns in pivot order.  U^-1 is formed by halves
  beside the elimination (see _Eliminator._clear).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientResponsesError
from .field import FieldSpec

# Rows a leaf eliminates one at a time.  One erasure solve of each product
# workload of the benchmark (1 BLAS thread) at LEAF 8 / 16 / 24 / 32 takes
# decode-gf23 1.82 / 1.44 / 1.27 / 1.28 ms, kernel-gf2 1.18 / 1.14 / 1.13 /
# 1.23 ms and matdot-gf8 0.44 / 0.39 / 0.39 / 0.39 ms.
LEAF = 24


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


class _Eliminator:
    """Blocked Gauss-Jordan with a fully reduced, dense pivot basis.

    An augmented row is its ncols coefficients, then rhs_width right-hand
    side entries, then (with `track`) ncols columns for its combination of
    the used rows.  Elimination stops at ncols pivots.
    """

    def __init__(self, spec: FieldSpec, ncols: int, rhs_width: int, track: bool):
        self.spec = spec
        self.ncols = ncols
        self.track = track
        self.width = ncols + rhs_width + (ncols if track else 0)
        self.basis = np.zeros((ncols, self.width), dtype=np.int64)
        self.pivots = np.zeros(ncols, dtype=np.int64)  # pivot column of each basis row
        self.rank = 0
        self.stats = EliminationStats()

    def complete(self) -> bool:
        return self.rank >= self.ncols

    def _count(self, nonzeros: int) -> None:
        """One row scaling and combination per nonzero coefficient."""
        self.stats.mult_ops += nonzeros * self.width
        self.stats.add_ops += nonzeros * self.width

    def offer(self, panel: np.ndarray) -> np.ndarray:
        """Absorb a panel of at most ncols - rank augmented rows, in place; their
        tracking columns are still zero.  Returns the panel positions that
        became pivots."""
        spec, k, n, w = self.spec, self.rank, self.ncols, self.width
        b = len(panel)
        if self.track:  # each row's own unit vector, at its place if all before it are used
            panel[np.arange(b), w - n + k + np.arange(b)] = 1
        given = panel[:, :n] != 0
        if k:
            panel[...] = spec.sub_arr(panel, spec.matmul(panel[:, self.pivots[:k]], self.basis[:k]))
        pos, cols, inv = self._absorb(panel)
        if k and pos.size:
            self.basis[:k] = self._clear(self.basis[:k], cols, panel[pos], inv)[0]
        end = k + pos.size
        self.basis[k:end] = panel[pos]
        self.pivots[k:end] = cols
        if self.track:  # the used rows' unit columns close up over the unused ones
            units = self.basis[:end, w - n + k:w - n + k + b]
            units[:, :pos.size] = units[:, pos]
            units[:, pos.size:] = 0
        before = np.arange(b)[:, None] > pos[None, :]
        self._count(int(np.count_nonzero(given[:, self.pivots[:k]]))
                    + int(np.count_nonzero(given[:, cols] & before)))
        self.stats.rows_used += pos.size
        self.stats.inversions += pos.size
        self.rank = end
        return pos

    def _clear(self, rows, cols, pivot_rows, inv) -> tuple[np.ndarray, np.ndarray]:
        """Clear the pivots at `cols` from fully reduced rows, by one product.

        F = rows[:, cols] is A^-1 X for the rows' own block A of U and their
        block X at `cols`, so -F . inv is the block of U^-1 above the pivots'
        block, whose inverse is `inv`: the clearing counts.  Returns the
        cleared rows and F . inv.
        """
        spec, w = self.spec, self.width
        both = spec.matmul(rows[:, cols], np.concatenate([pivot_rows, inv], axis=1))
        self._count(int(np.count_nonzero(both[:, w:])))
        return spec.sub_arr(rows, both[:, :w]), both[:, w:]

    def _absorb(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Eliminate rows, zero at every earlier pivot column, among themselves
        in place and in order.

        Returns the positions of the rows that became pivots, their pivot
        columns, and the inverse of their block of U.  Those rows end fully
        reduced.
        """
        if len(rows) <= LEAF:
            return self._leaf(rows)
        spec, h = self.spec, len(rows) // 2
        top, bottom = rows[:h], rows[h:]
        pos, cols, inv = self._absorb(top)
        if pos.size:
            bottom[...] = spec.sub_arr(bottom, spec.matmul(bottom[:, cols], top[pos]))
        pos2, cols2, inv2 = self._absorb(bottom)
        # [[A, X], [0, C]]^-1 = [[A^-1, -A^-1 X C^-1], [0, C^-1]]
        whole = np.zeros((pos.size + pos2.size,) * 2, dtype=np.int64)
        whole[:pos.size, :pos.size] = inv
        whole[pos.size:, pos.size:] = inv2
        if pos.size and pos2.size:
            top[pos], upper = self._clear(top[pos], cols2, bottom[pos2], inv2)
            whole[:pos.size, pos.size:] = spec.neg_arr(upper)
        return np.concatenate([pos, pos2 + h]), np.concatenate([cols, cols2]), whole

    def _leaf(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """_absorb one row at a time, each pivot cleared from the whole leaf by
        one outer product (FieldSpec.sub_outer).

        Over GF(p), p odd, the updates leave the rows unreduced, so they are
        reduced only where they are read: row i just before its pivot search,
        the pivot column that the multipliers come from, and every row once
        at the end.  An entry gains at most p * (p - 1) per pivot between
        reductions, so it stays at most (p - 1) + LEAF * p * (p - 1): below
        2^37 at p = 65521 and LEAF = 32, far inside int64.

        Row d of `found` is pivot d's column of the leaf as it was found, zero
        at the pivot's own row.  The leaf's earlier pivot rows are fully
        reduced among themselves, so their entries there are minus its column
        of U^-1.
        """
        spec, n = self.spec, self.ncols
        pos, cols = [], []
        found = np.zeros((len(rows), len(rows)), dtype=np.int64)
        for i, row in enumerate(rows):
            spec.reduce_arr(row, out=row)
            nz = row[:n] != 0
            col = int(nz.argmax())
            if not nz[col]:
                continue
            if row[col] != 1:
                self.stats.mult_ops += self.width
                row[:] = spec.mul_arr(np.int64(spec.inv(int(row[col]))), row)
            g = spec.reduce_arr(rows[:, col], out=found[len(pos)])
            g[i] = 0
            spec.sub_outer(rows, g, row)
            pos.append(i)
            cols.append(col)
        spec.reduce_arr(rows, out=rows)
        d = len(pos)
        upper = np.triu(found[:d, pos].T, 1)
        self._count(int(np.count_nonzero(upper)))
        inv = spec.neg_arr(upper)
        inv[np.diag_indices(d)] = 1
        return np.array(pos, dtype=np.int64), np.array(cols, dtype=np.int64), inv


def _eliminate(
    spec: FieldSpec, rows, ncols: int, rhs=(), rhs_width: int = 0, track: bool = False,
) -> tuple[_Eliminator, list[int]]:
    """Offer rows, with rhs beside them, in panels until there are ncols pivots.

    rows and rhs slice into index rows: rows[lo:hi] is (hi - lo, ncols) and
    rhs[lo:hi] is (hi - lo, rhs_width), as arrays, lists of rows or builders
    of rows on demand.  Each read asks for as many rows as the panel still
    lacks, so no row past the one that completes the basis is read.
    Returns the complete eliminator and the positions of the rows that
    became pivots; raises RankDeficiencyError if the rows run out first.
    """
    elim = _Eliminator(spec, ncols, rhs_width, track)
    used: list[int] = []
    panel: list[np.ndarray] = []  # nonzero rows read but not yet offered, and their positions
    where: list[np.ndarray] = []
    lo, total, pending = 0, len(rows), 0
    while not elim.complete() and lo < total:
        need = ncols - elim.rank - pending
        hi = min(total, lo + need)
        aug = np.zeros((hi - lo, elim.width), dtype=np.int64)
        aug[:, :ncols] = rows[lo:hi]
        if rhs_width:
            aug[:, ncols:ncols + rhs_width] = rhs[lo:hi]
        keep = np.flatnonzero(aug[:, :ncols].any(axis=1))  # a zero row stays zero
        if keep.size:
            panel.append(aug[keep])
            where.append(lo + keep)
            pending += keep.size
        elim.stats.rows_offered += hi - lo
        lo = hi
        if pending and (keep.size == need or lo == total):
            at = np.concatenate(where)
            used += at[elim.offer(np.concatenate(panel))].tolist()
            panel, where, pending = [], [], 0
    if not elim.complete():
        raise RankDeficiencyError(ncols, elim.rank)
    return elim, used


def solve_exact(
    spec: FieldSpec,
    rows,
    rhs,
    ncols: int,
) -> tuple[np.ndarray, list[int], EliminationStats]:
    """Solve a consistent overdetermined system from its first independent rows.

    rows and rhs are (nrows, ncols) and (nrows, w) index rows, sliced a panel
    at a time (see _eliminate).  Returns (X, used_row_positions, stats) with
    rows[i] . X = rhs[i] for the used equations.  Raises RankDeficiencyError
    if the rows never span rank `ncols`.
    """
    rhs_width = np.shape(rhs[:1])[-1]
    elim, used = _eliminate(spec, rows, ncols, rhs, rhs_width)
    x = np.zeros((ncols, rhs_width), dtype=np.int64)
    x[elim.pivots] = elim.basis[:, ncols:]
    return x, used, elim.stats


def express_unit(
    spec: FieldSpec,
    rows,
    unit_col: int,
    ncols: int,
) -> tuple[np.ndarray, list[int], EliminationStats]:
    """Coefficients y over a subset of rows with sum_j y_j rows[used[j]] = e_unit."""
    elim, used = _eliminate(spec, rows, ncols, track=True)
    return elim.basis[elim.pivots == unit_col, ncols:][0], used, elim.stats


def matrix_rank(spec: FieldSpec, matrix: np.ndarray) -> int:
    """Rank of an index matrix, by column elimination (stops early at full rank)."""
    matrix = np.asarray(matrix, dtype=np.int64)
    try:
        _eliminate(spec, matrix.T, matrix.shape[0])
    except RankDeficiencyError as exc:
        return exc.got
    return matrix.shape[0]
