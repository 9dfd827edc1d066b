"""The blocked eliminator against the one-row-at-a-time eliminator it replaced.

The reference below is that sequential eliminator, copied verbatim: each
offered row is reduced against the whole basis with one product, and each new
pivot is cleared from the basis by one outer product.  The blocked eliminator
must use the same rows, give the same solutions and ranks, and count the same
work, on systems whose zero, repeated and dependent rows fall inside and on
the edges of its panels and leaves, whatever its leaf size, and its leaves'
unreduced entries must stay within their documented bound.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np
import pytest

from mvdmm import _linalg
from mvdmm._linalg import EliminationStats, RankDeficiencyError
from mvdmm.field import FieldSpec


# ---------------------------------------------------------------------------
# the sequential reference, verbatim



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


# ---------------------------------------------------------------------------
# the blocked eliminator against it


FIELDS = [2, 3, 4, 5, 8, 9, 23, 25, 64, 65521]


def _edges(lo, size):
    """First and last rows of the halves and leaves of a panel of `size` rows at lo."""
    if size <= _linalg.LEAF:
        return {lo, lo + size - 1}
    h = size // 2
    return _edges(lo, h) | _edges(lo + h, size - h)


def _system(spec, rng, ncols, nrows, rank):
    """nrows x ncols rows of rank at most `rank`, with zero, repeated and
    dependent rows at random places and on edges of the first two panels and
    of their halves and leaves."""
    q = spec.q
    if rank < ncols:
        m = spec.matmul(rng.integers(0, q, (nrows, rank)), rng.integers(0, q, (rank, ncols)))
    else:
        m = rng.integers(0, q, (nrows, ncols))
    m = np.asarray(m, dtype=np.int64)
    places = _edges(0, ncols) | _edges(ncols, ncols) | set(rng.integers(0, nrows, 3).tolist())
    for i in sorted(p for p in places if p < nrows and rng.random() < 0.6):
        kind = int(rng.integers(3)) if i else 0
        if kind == 0:
            m[i] = 0
        elif kind == 1:
            m[i] = m[rng.integers(i)]
        else:
            m[i] = spec.matmul(rng.integers(0, q, (1, i)), m[:i])[0]
    return m


def _outcome(call):
    """(solution, used rows, the five tallies), or the rank a deficit reached."""
    try:
        x, used, stats = call()
    except RankDeficiencyError as exc:
        return ("deficient", exc.needed, exc.got)
    return (x.tolist(), used, (stats.rows_offered, stats.rows_used, stats.mult_ops,
                               stats.add_ops, stats.inversions))


@pytest.mark.parametrize("q", FIELDS)
def test_blocked_eliminator_matches_sequential(q):
    spec = FieldSpec.of_order(q)
    rng = np.random.default_rng(700 + q)
    outcomes = set()
    for ncols in range(1, 41):
        for _ in range(2):
            nrows = int(rng.integers(max(ncols - 2, 1), ncols + 21))
            rank = ncols if rng.random() < 0.75 else int(rng.integers(0, ncols))
            m = _system(spec, rng, ncols, nrows, rank)
            rhs = rng.integers(0, q, (nrows, int(rng.integers(0, 6))))
            unit = int(rng.integers(ncols))
            cases = [
                (lambda: solve_exact(spec, list(m), list(rhs), ncols),
                 lambda: _linalg.solve_exact(spec, m, rhs, ncols)),
                (lambda: express_unit(spec, list(m), unit, ncols),
                 lambda: _linalg.express_unit(spec, m, unit, ncols)),
            ]
            for reference, blocked in cases:
                want = _outcome(reference)
                assert _outcome(blocked) == want, (q, ncols, nrows, rank)
                outcomes.add(want[0] == "deficient")
            for a in (m, m.T):
                assert _linalg.matrix_rank(spec, a) == matrix_rank(spec, a)
    assert outcomes == {True, False}


class _CountedRows:
    """Rows of a matrix handed out a slice at a time, remembering the last row read."""

    def __init__(self, m):
        self.m, self.read = m, 0

    def __len__(self):
        return len(self.m)

    def __getitem__(self, part):
        self.read = max(self.read, part.stop)
        return self.m[part]


def _sparse_rows(rng):
    """Mostly zero rows, as the dual erasure block has far from its pivots."""
    m = np.zeros((400, 30), dtype=np.int64)
    m[np.sort(rng.choice(400, 45, replace=False))] = rng.integers(0, 5, (45, 30))
    return m


@pytest.mark.parametrize("kind", ["dense", "sparse"])
def test_rows_are_read_only_as_far_as_they_are_offered(kind):
    spec = FieldSpec.of_order(5)
    rng = np.random.default_rng(5)
    m = rng.integers(0, 5, (200, 30)) if kind == "dense" else _sparse_rows(rng)
    m[3] = m[1]  # one dependent row in the first panel
    rhs = rng.integers(0, 5, (len(m), 2))
    counted, counted_rhs = _CountedRows(m), _CountedRows(rhs)
    x, used, stats = _linalg.solve_exact(spec, counted, counted_rhs, 30)
    assert counted.read == counted_rhs.read == stats.rows_offered == used[-1] + 1
    assert _outcome(lambda: (x, used, stats)) == _outcome(lambda: solve_exact(spec, list(m), list(rhs), 30))


# ---------------------------------------------------------------------------
# leaf size and delayed reduction


LEAVES = sorted({1, 2, 3, 8, _linalg.LEAF, 64})


@pytest.mark.parametrize("q", [2, 8, 9, 23, 729, 65521])
def test_outcome_does_not_depend_on_the_leaf_size(q, monkeypatch):
    """Solutions, used rows and all five tallies, or the rank a deficit
    reached, are the same for every LEAF, on full-rank and rank-deficient
    systems, for solve_exact and express_unit."""
    spec = FieldSpec.of_order(q)
    rng = np.random.default_rng(800 + q)
    deficient = set()
    for ncols in (1, 4, 9, 17, 33, 70):
        for rank in (ncols, ncols // 2):
            nrows = ncols + int(rng.integers(0, 12))
            m = _system(spec, rng, ncols, nrows, rank)
            rhs = rng.integers(0, q, (nrows, 3))
            unit = int(rng.integers(ncols))
            outcomes = []
            for leaf in LEAVES:
                monkeypatch.setattr(_linalg, "LEAF", leaf)
                outcomes.append((_outcome(lambda: _linalg.solve_exact(spec, m, rhs, ncols)),
                                 _outcome(lambda: _linalg.express_unit(spec, m, unit, ncols))))
            assert all(o == outcomes[0] for o in outcomes), (q, ncols, rank)
            deficient.add(outcomes[0][0][0] == "deficient")
    assert deficient == {True, False}


@pytest.mark.parametrize("leaf", [8, _linalg.LEAF])
def test_leaf_entries_stay_within_the_delayed_reduction_bound(leaf, monkeypatch):
    """Over GF(65521), the largest prime, a leaf's unreduced entries stay at
    most (p - 1) + LEAF * p * (p - 1).  Lower-triangular rows of p - 1
    entries come within p * (p - 1) of it: each pivot adds that much to every
    entry of a later row right of its column.  Rows of p - 1 with a zero on
    the diagonal also grow the earlier pivot rows.  The systems span more
    than one leaf; one starts with a leaf of LEAF rows whose entries are all
    p - 1."""
    p = 65521
    spec, n = FieldSpec(p), 2 * leaf
    bound = (p - 1) + leaf * p * (p - 1)
    peaks = []
    update = FieldSpec.sub_outer

    def watched(self, rows, g, row):
        update(self, rows, g, row)
        peaks.append(int(rows.max()))

    monkeypatch.setattr(_linalg, "LEAF", leaf)
    monkeypatch.setattr(FieldSpec, "sub_outer", watched)
    tril = np.tril(np.full((n, n), p - 1, dtype=np.int64))
    off_diagonal = np.full((n + 1, n + 1), p - 1, dtype=np.int64)
    off_diagonal[np.diag_indices(n + 1)] = 0
    rng = np.random.default_rng(leaf)
    for m in (tril, np.concatenate([np.full((leaf, n), p - 1), tril]), off_diagonal):
        k, rhs = m.shape[1], rng.integers(0, p, (len(m), 2))
        assert _outcome(lambda: _linalg.solve_exact(spec, m, rhs, k)) == \
            _outcome(lambda: solve_exact(spec, list(m), list(rhs), k))
        assert _outcome(lambda: _linalg.express_unit(spec, m, 0, k)) == \
            _outcome(lambda: express_unit(spec, list(m), 0, k))
    assert max(peaks) <= bound
    assert max(peaks) >= bound - p * (p - 1)
