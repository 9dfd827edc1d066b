"""The erasure decoder: the inverse Vandermonde transform, the choice between
solving for the erasures (dual side, e < kappa) and for the coefficients
(primal side), its work counts and its typed errors; and the exact
eliminator under both sides, against a row space found by enumeration."""

import itertools

import numpy as np
import pytest

from mvdmm import _linalg, codec, constructions as cons, simulator
from mvdmm.errors import InsufficientResponsesError, ParameterError, ShapeError
from mvdmm.field import FieldSpec, enumerate_points


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25, 27])
def test_inverse_vandermonde_is_exact_inverse(q):
    spec = FieldSpec.of_order(q)
    v1t = np.array([[spec.pow(x, a) for a in range(q)] for x in range(q)], dtype=np.int64)
    t1 = codec.inverse_vandermonde(spec)
    eye = np.eye(q, dtype=np.int64)
    assert np.array_equal(spec.matmul(v1t, t1), eye)
    assert np.array_equal(spec.matmul(t1, v1t), eye)
    assert not t1.flags.writeable


def _setup(spec, sol, points, rng):
    """Responses at every point of `points`, plus what extraction needs."""
    if isinstance(sol, cons.MatdotSolution):
        a = codec.random_matrix(spec, 2, 3 * sol.m, rng)
        b = codec.random_matrix(spec, 3 * sol.m, 2, rng)
        sa, sb = codec.split(a, b, "matdot", sol.m)
        enc_a = codec.encode(sa, sol.d_a, order=[p[0] for p in sol.pairs])
        enc_b = codec.encode(sb, sol.d_b, order=[p[1] for p in sol.pairs])
    else:
        a = codec.random_matrix(spec, 2 * sol.m, 3, rng)
        b = codec.random_matrix(spec, 3, 2 * sol.n, rng)
        sa, sb = codec.split(a, b, "poly", sol.m, sol.n)
        enc_a = codec.encode(sa, sol.d_a)
        enc_b = codec.encode(sb, sol.d_b)
    responses = [codec.worker_compute(p) for p in codec.make_payloads(enc_a, enc_b, points)]
    return responses, sa, sb, codec.matmul(a, b)


def _decode(system, sol, subset, sa, sb):
    if isinstance(sol, cons.MatdotSolution):
        interp = codec.interpolate(system, subset, only=sol.degree_target, require_threshold=False)
        return codec.extract_matdot(interp, sol, sa, sb)
    interp = codec.interpolate(system, subset, require_threshold=False)
    return codec.extract_poly(interp, sol, sa, sb)


# (construction, number of system points); None means the whole grid.
DESK_CASES = [
    (lambda: cons.box_poly(3, (1, 2), (2, 1)), None),
    (lambda: cons.box_poly(3, (1, 2), (2, 1)), 7),
    (lambda: cons.box_poly(3, (1, 2), (3, 1)), None),
    (lambda: cons.half_hyperbolic(3, 2, 2, cons.corner_degree(3, 2)), None),
    (lambda: cons.box_poly(4, (1, 3), (3, 1)), 13),
    (lambda: cons.half_hyperbolic(4, 2, 5, cons.corner_degree(4, 2)), 10),
    (lambda: cons.box_poly(5, (1,), (2,)), None),
    (lambda: cons.box_poly(5, (2,), (2,)), 4),
    (lambda: cons.box_matdot(5, (2,)), None),
]


def test_every_subset_decodes_exactly_when_its_monomial_rank_is_kappa():
    rng = np.random.default_rng(2024)
    seen = set()
    for make, n_points in DESK_CASES:
        sol = make()
        spec = FieldSpec.of_order(sol.q)
        grid = enumerate_points(spec, sol.l)
        if n_points is None:
            points = grid
        else:
            picks = sorted(rng.choice(len(grid), size=n_points, replace=False).tolist())
            points = [grid[i] for i in picks]
        support = sol.sum_set()
        system = codec.build_system(spec, support, points)
        kappa = system.kappa
        responses, sa, sb, oracle = _setup(spec, sol, points, rng)
        g = codec.monomial_matrix(spec, support, points)
        for size in range(kappa, len(points) + 1):
            for subset in itertools.combinations(range(len(points)), size):
                rank = _linalg.matrix_rank(spec, g[:, list(subset)])
                side = "dual" if len(grid) - size < kappa else "primal"
                chosen = [responses[i] for i in subset]
                if rank == kappa:
                    assert _decode(system, sol, chosen, sa, sb) == oracle, (sol, subset)
                else:
                    with pytest.raises(_linalg.RankDeficiencyError) as err:
                        _decode(system, sol, chosen, sa, sb)
                    assert (err.value.needed, err.value.got) == (kappa, rank), (sol, subset)
                seen.add((side, rank == kappa, len(points) < len(grid)))
    assert seen == {(side, ok, partial) for side in ("dual", "primal")
                    for ok in (True, False) for partial in (True, False)}


def test_dual_side_builds_no_monomial_matrix(monkeypatch):
    """decode-gf23's scheme: the dual audit and decode read only T blocks."""
    spec = FieldSpec(23)
    sol = simulator.parse_construction("better-box m=2,2 F=81", 23)
    points = enumerate_points(spec, sol.l)
    rng = np.random.default_rng(23)
    responses, sa, sb, oracle = _setup(spec, sol, points, rng)
    subset = [responses[i] for i in sorted(rng.choice(len(points), size=449, replace=False))]
    codec.inverse_vandermonde(spec)  # T1 itself is built once per field from a q x q Vandermonde

    def refuse(*args):
        raise AssertionError("monomial_matrix called on the dual side")

    monkeypatch.setattr(codec, "monomial_matrix", refuse)
    system = codec.build_system(spec, sol.sum_set(), points)
    assert len(points) - len(subset) < system.kappa
    assert _decode(system, sol, subset, sa, sb) == oracle


def test_primal_side_builds_rows_for_the_responders_only(monkeypatch):
    """e >= kappa on a half grid: the primal rows are built on demand."""
    spec = FieldSpec(19)
    sol = cons.box_poly(19, (1, 1), (2, 2))
    points = enumerate_points(spec, sol.l)[::2]
    rng = np.random.default_rng(19)
    responses, sa, sb, oracle = _setup(spec, sol, points, rng)
    system = codec.build_system(spec, sol.sum_set(), points)
    subset = [responses[i] for i in sorted(rng.choice(len(points), size=sol.recovery_threshold,
                                                      replace=False))]
    assert spec.q**sol.l - len(subset) >= system.kappa
    calls = []
    real = codec.monomial_matrix

    def spy(spec_, support, pts):
        calls.append(len(pts))
        return real(spec_, support, pts)

    monkeypatch.setattr(codec, "monomial_matrix", spy)
    assert _decode(system, sol, subset, sa, sb) == oracle
    assert calls == [len(subset)]


def _gf5_responses(rng):
    spec = FieldSpec(5)
    sol = cons.box_poly(5, (2,), (2,))
    points = enumerate_points(spec, 1)
    system = codec.build_system(spec, sol.sum_set(), points)
    responses, _, _, _ = _setup(spec, sol, points, rng)
    return spec, system, responses


def test_dual_stats_count_transform_solve_and_correction():
    spec, system, responses = _gf5_responses(np.random.default_rng(3))
    q, l, kappa = 5, 1, system.kappa
    w = responses[0].product.data.size
    transform = 2 * l * q * q**l * w

    full = codec.interpolate(system, responses).stats
    assert (full.rows_offered, full.rows_used, full.inversions) == (0, 0, 0)
    assert full.total_ops == transform

    e = 1
    part = codec.interpolate(system, responses[:-e]).stats
    assert part.rows_used == part.inversions == e
    assert part.rows_offered >= part.rows_used
    assert part.total_ops > transform + 2 * kappa * e * w

    only = codec.interpolate(system, responses[:-e], only=(2,)).stats
    r = q**l - e
    assert only.rows_used == only.inversions == e
    assert only.total_ops > 2 * e * r + 2 * r * w


def test_empty_responses_raise_typed_error():
    spec, system, responses = _gf5_responses(np.random.default_rng(4))
    with pytest.raises(InsufficientResponsesError) as err:
        codec.interpolate(system, [], require_threshold=False)
    assert err.value.got == 0


def test_responses_of_different_shapes_raise():
    spec, system, responses = _gf5_responses(np.random.default_rng(5))
    odd = codec.WorkerResponse(9, responses[0].point,
                               codec.MatrixFq.zeros(spec, 1, 1))
    with pytest.raises(ShapeError):
        codec.interpolate(system, [odd] + responses[1:])


def test_conflicting_duplicate_responses_raise_and_identical_ones_collapse():
    spec, system, responses = _gf5_responses(np.random.default_rng(6))
    first = responses[0]
    bumped = codec.MatrixFq(spec, spec.add_arr(first.product.data, 1))
    clash = codec.WorkerResponse(first.index, first.point, bumped)
    with pytest.raises(ParameterError, match=r"\(0,\)"):
        codec.interpolate(system, responses + [clash])
    twice = codec.interpolate(system, responses + [first])
    once = codec.interpolate(system, responses)
    assert np.array_equal(twice.grid, once.grid)
    assert np.array_equal(twice.blocks, once.blocks)


def test_responses_at_points_outside_the_system_raise():
    spec, _, responses = _gf5_responses(np.random.default_rng(7))
    sol = cons.box_poly(5, (2,), (2,))
    system = codec.build_system(spec, sol.sum_set(), [(x,) for x in range(4)])
    with pytest.raises(ParameterError, match=r"unknown point \(4,\)"):
        codec.interpolate(system, responses)
    stray = codec.WorkerResponse(9, (5,), responses[0].product)
    with pytest.raises(ParameterError, match="outside GF"):
        codec.interpolate(system, responses[:3] + [stray])


# ---------------------------------------------------------------------------
# the eliminator against an independent reference


def _row_space_size(spec, rows):
    """Number of distinct combinations of `rows`, enumerated with the field's
    elementwise tables only."""
    space = np.zeros((1, rows.shape[1]), dtype=np.int64)
    scalars = np.arange(spec.q, dtype=np.int64)[:, None]
    for row in rows:
        multiples = spec.mul_arr(scalars, row[None])  # (q, ncols)
        space = spec.add_arr(space[:, None, :], multiples[None]).reshape(-1, rows.shape[1])
        space = np.unique(space, axis=0)
    return space.shape[0]


def _reference_rank(spec, rows):
    size, rank = _row_space_size(spec, rows), 0
    while spec.q**rank < size:
        rank += 1
    assert spec.q**rank == size
    return rank


def _random_systems(spec, rng):
    """Small systems of every shape around square, full-rank and (through a
    narrow factorisation) rank-deficient."""
    q = spec.q
    for ncols in range(1, 5):
        for nrows in range(max(ncols - 1, 1), ncols + 4):
            yield rng.integers(0, q, size=(nrows, ncols))
            inner = int(rng.integers(1, ncols + 1))
            yield spec.matmul(rng.integers(0, q, size=(nrows, inner)),
                              rng.integers(0, q, size=(inner, ncols)))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8])
def test_eliminator_matches_enumerated_row_space(q):
    spec = FieldSpec.of_order(q)
    rng = np.random.default_rng(100 + q)
    kinds = set()
    for m in _random_systems(spec, rng):
        nrows, ncols = m.shape
        rank = _reference_rank(spec, m)
        assert _linalg.matrix_rank(spec, m) == rank
        assert _linalg.matrix_rank(spec, m.T) == rank
        rows = list(m)
        x_true = rng.integers(0, q, size=(ncols, 2))
        rhs = list(spec.matmul(m, x_true))
        kinds.add(rank == ncols)
        if rank < ncols:
            for call in (lambda: _linalg.solve_exact(spec, rows, rhs, ncols),
                         lambda: _linalg.express_unit(spec, rows, 0, ncols)):
                with pytest.raises(_linalg.RankDeficiencyError) as err:
                    call()
                assert (err.value.needed, err.value.got) == (ncols, rank)
            continue
        x, used, stats = _linalg.solve_exact(spec, rows, rhs, ncols)
        assert len(used) == stats.rows_used == ncols
        assert _reference_rank(spec, m[used]) == ncols
        assert np.array_equal(spec.matmul(m[used], x), np.stack(rhs)[used])
        assert np.array_equal(x, x_true)  # full column rank: the solution is unique
        for unit in range(ncols):
            y, used, _ = _linalg.express_unit(spec, rows, unit, ncols)
            combo = spec.matmul(y[None], m[used])[0]
            assert np.array_equal(combo, np.eye(ncols, dtype=np.int64)[unit])
    assert kinds == {True, False}


def _pinned_system(q):
    spec = FieldSpec.of_order(q)
    rng = np.random.default_rng(q)
    rows = rng.integers(0, q, size=(7, 4))
    rows[2] = spec.add_arr(rows[0], spec.mul_arr(2, rows[1]))  # one dependent row
    rhs = rng.integers(0, q, size=(7, 3))
    return spec, list(rows), list(rhs)


def _tally(stats):
    return (stats.rows_offered, stats.rows_used, stats.mult_ops, stats.add_ops,
            stats.inversions)


# (solve_exact, express_unit) tallies: rows offered and used, multiplications,
# additions, inversions.  Fixed values, so a change in how work is counted shows.
PINNED_STATS = {
    5: ((5, 4, 98, 77, 4), (5, 4, 112, 88, 4)),
    8: ((5, 4, 91, 70, 4), (5, 4, 104, 80, 4)),
}


@pytest.mark.parametrize("q", sorted(PINNED_STATS))
def test_elimination_stats_pinned(q):
    spec, rows, rhs = _pinned_system(q)
    _, _, solved = _linalg.solve_exact(spec, rows, rhs, 4)
    _, _, unit = _linalg.express_unit(spec, rows, 1, 4)
    assert (_tally(solved), _tally(unit)) == PINNED_STATS[q]
