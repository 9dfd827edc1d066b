"""Exact Gauss-Jordan elimination over GF(q) for the decoder.

The decoder's systems have as many columns as it has unknowns: the e erased
grid values on the dual side (rows are the coefficients that must vanish
outside the support), or the kappa coefficients on the primal side (rows
are responding workers).  build_system's rank audits use the same
eliminator.

Rows arrive one at a time.  The eliminator keeps its fully reduced pivot
rows as one dense (rank x width) index array, so an offered row is reduced
against every pivot at once, as aug - f . basis with f = aug[pivot columns]:
one FieldSpec.matmul.  A new pivot is back-eliminated from the basis rows
that have it by one outer product, an elementwise FieldSpec.mul_arr (an
inner dimension of 1 needs no sums).  Once the basis has a pivot in every column, the solution is
read straight off the pivot rows.  To express a unit vector over the used
rows (express_unit), each offered row carries its own unit vector over the
used rows as extra columns.  GF(2) takes the same path as every other field.

Operation counters tally, per nonzero coefficient, the row width it scales
and combines, plus one inversion per pivot; they back the decoder cost
contract checked by the acceptance suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

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


class _Eliminator:
    """Incremental Gauss-Jordan with a fully reduced, dense pivot basis.

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

    def _tally(self, coeffs: np.ndarray) -> bool:
        """Count one row scaling and combination per nonzero coefficient;
        False if there is none."""
        n = int(np.count_nonzero(coeffs)) * self.width
        self.stats.mult_ops += n
        self.stats.add_ops += n
        return n > 0

    def offer(self, row: np.ndarray) -> bool:
        """Reduce one augmented row (without its tracking columns) against the
        basis; True if it became a pivot row."""
        spec, k = self.spec, self.rank
        self.stats.rows_offered += 1
        aug = np.zeros(self.width, dtype=np.int64)
        aug[: len(row)] = row
        if self.track:  # the row's own unit vector over the used rows
            aug[self.width - self.ncols + k] = 1
        basis = self.basis[:k]
        f = aug[self.pivots[:k]]
        if self._tally(f):  # against every pivot at once
            aug = spec.sub_arr(aug, spec.matmul(f[None], basis)[0])
        nz = np.flatnonzero(aug[: self.ncols])
        if nz.size == 0:
            return False
        col = int(nz[0])
        inv = spec.inv(int(aug[col]))
        self.stats.inversions += 1
        if inv != 1:
            self.stats.mult_ops += self.width
            aug = spec.mul_arr(np.int64(inv), aug)
        g = basis[:, col:col + 1]
        if self._tally(g):  # clear the new pivot's column from the rows that have it
            hit = np.flatnonzero(g)
            basis[hit] = spec.sub_arr(basis[hit], spec.mul_arr(g[hit], aug[None]))
        self.basis[k] = aug
        self.pivots[k] = col
        self.rank += 1
        self.stats.rows_used += 1
        return True


def _eliminate(
    spec: FieldSpec, rows: Iterable[np.ndarray], ncols: int, rhs_width: int = 0,
    track: bool = False,
) -> tuple[_Eliminator, list[int]]:
    """Offer augmented rows until there are ncols pivots.

    Returns the complete eliminator and the positions of the rows that became
    pivots; raises RankDeficiencyError if the rows run out first.
    """
    elim = _Eliminator(spec, ncols, rhs_width, track)
    used: list[int] = []
    for i, row in enumerate(rows):
        if elim.complete():
            break
        if elim.offer(row):
            used.append(i)
    if not elim.complete():
        raise RankDeficiencyError(ncols, elim.rank)
    return elim, used


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
    aug = (np.concatenate([a, b]) for a, b in zip(rows, rhs))
    elim, used = _eliminate(spec, aug, ncols, rhs_width)
    x = np.zeros((ncols, rhs_width), dtype=np.int64)
    x[elim.pivots] = elim.basis[:, ncols:]
    return x, used, elim.stats


def express_unit(
    spec: FieldSpec,
    rows: list[np.ndarray],
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
