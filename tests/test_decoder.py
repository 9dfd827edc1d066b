"""The erasure decoder: the inverse Vandermonde transform, the choice between
solving for the erasures (dual side, e < kappa) and for the coefficients
(primal side), its work counts and its typed errors."""

import itertools

import numpy as np
import pytest

from mvdmm import _linalg, codec, constructions as cons
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
    assert twice.coefficients == once.coefficients
