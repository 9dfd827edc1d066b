"""Coding pipeline: splits, encodings, evaluation, interpolation, extraction."""

import itertools

import numpy as np
import pytest

from mvdmm import codec, constructions as cons, exponents as ex
from mvdmm.codec import MatrixFq
from mvdmm.errors import (
    InsufficientResponsesError,
    IncompleteRecoveryError,
    ParameterError,
    ShapeError,
)
from mvdmm.field import FieldSpec, enumerate_points


GF5 = FieldSpec(5)
GF2 = FieldSpec(2)
GF19 = FieldSpec(19)
GF8 = FieldSpec(2, 3)


def scalar_matmul(spec, a, b):
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            acc = 0
            for k in range(a.shape[1]):
                acc = spec.add(acc, spec.mul(int(a[i, k]), int(b[k, j])))
            out[i, j] = acc
    return out


def run_pipeline(spec, sol, a, b, point_subset=None, n_points=None):
    """Full encode/evaluate/decode pass, returning the recovered product."""
    mode = "matdot" if isinstance(sol, cons.MatdotSolution) else "poly"
    if mode == "poly":
        sa, sb = codec.split(a, b, "poly", sol.m, sol.n)
        enc_a = codec.encode(sa, sol.d_a)
        enc_b = codec.encode(sb, sol.d_b)
    else:
        sa, sb = codec.split(a, b, "matdot", sol.m)
        enc_a = codec.encode(sa, sol.d_a, order=[p[0] for p in sol.pairs])
        enc_b = codec.encode(sb, sol.d_b, order=[p[1] for p in sol.pairs])
    points = enumerate_points(spec, sol.l)
    if n_points is not None:
        points = points[:n_points]
    system = codec.build_system(spec, sol.sum_set(), points)
    payloads = codec.make_payloads(enc_a, enc_b, points)
    responses = [codec.worker_compute(p) for p in payloads]
    if point_subset is not None:
        responses = [responses[i] for i in point_subset]
    if mode == "matdot":
        interp = codec.interpolate(system, responses, only=sol.degree_target)
        return codec.extract_matdot(interp, sol, sa, sb)
    interp = codec.interpolate(system, responses)
    return codec.extract_poly(interp, sol, sa, sb)


# ---------------------------------------------------------------------------
# matmul


def test_matmul_examples():
    a = MatrixFq(GF2, [[1, 1], [0, 1]])
    b = MatrixFq(GF2, [[1, 0], [1, 1]])
    assert codec.matmul(a, b) == MatrixFq(GF2, [[0, 1], [1, 1]])

    rng = np.random.default_rng(0)
    m = codec.random_matrix(GF19, 4, 4, rng)
    eye = MatrixFq.identity(GF19, 4)
    zero = MatrixFq.zeros(GF19, 4, 4)
    assert codec.matmul(eye, m) == m
    assert codec.matmul(zero, m) == zero

    with pytest.raises(ShapeError):
        codec.matmul(MatrixFq.zeros(GF5, 2, 3), MatrixFq.zeros(GF5, 2, 3))


GF65521 = FieldSpec(65521)
GF65536 = FieldSpec(2, 16)
MATMUL_CASES = {
    "spec0": (GF8, (3, 5, 2)),
    "spec1": (FieldSpec(3, 2), (3, 5, 2)),
    "spec2": (FieldSpec(5, 2), (3, 5, 2)),
    "spec3": (GF19, (3, 5, 2)),
    "gf2": (GF2, (3, 5, 2)),
    "gf4": (FieldSpec(2, 2), (3, 5, 2)),
    "gf65521": (GF65521, (3, 5, 2)),
    "gf65536": (GF65536, (3, 5, 2)),
    "gf19-inner0": (GF19, (3, 0, 2)),
    "gf8-inner0": (GF8, (3, 0, 2)),
    "gf65521-row": (GF65521, (1, 5, 2)),
    "gf65536-row": (GF65536, (1, 5, 2)),
    "gf19-col": (GF19, (3, 5, 1)),
    "gf8-col": (GF8, (3, 5, 1)),
}


@pytest.mark.parametrize("spec, shape", MATMUL_CASES.values(), ids=MATMUL_CASES.keys())
def test_matmul_against_scalar_reference(spec, shape):
    r, n, t = shape
    rng = np.random.default_rng(spec.q)
    a = rng.integers(0, spec.q, size=(r, n))
    b = rng.integers(0, spec.q, size=(n, t))
    fast = codec.matmul(MatrixFq(spec, a), MatrixFq(spec, b))
    assert np.array_equal(fast.data, scalar_matmul(spec, a, b))


def test_matrix_rejects_non_integer_entries():
    with pytest.raises(ParameterError):
        MatrixFq(GF5, [[1.7, 2.2]])
    with pytest.raises(ParameterError):
        MatrixFq(GF5, np.ones((2, 2)))
    assert MatrixFq(GF5, [[1, 2]]).data.dtype == np.int64
    assert MatrixFq(GF5, np.zeros((0, 3))).rows == 0
    assert MatrixFq(GF5, [[]]).cols == 0


# ---------------------------------------------------------------------------
# split


def test_split_identity():
    a = MatrixFq(GF5, [[1, 2], [3, 4]])
    b = MatrixFq(GF5, [[0, 1], [2, 3]])
    sa, sb = codec.split(a, b, "poly", 1, 1)
    assert sa.blocks[0].tolist() == a.data.tolist()
    assert sb.blocks[0].tolist() == b.data.tolist()
    assert sa.padding == 0


def test_split_partition_and_padding():
    rng = np.random.default_rng(1)
    a4 = codec.random_matrix(GF5, 4, 3, rng)
    b = codec.random_matrix(GF5, 3, 4, rng)
    sa, _ = codec.split(a4, b, "poly", 2, 2)
    assert np.array_equal(np.concatenate(sa.blocks, axis=0), a4.data)

    a5 = codec.random_matrix(GF5, 5, 3, rng)
    sa, sb = codec.split(a5, b, "poly", 2, 2)
    assert sa.padding == 1
    assert sa.block_shape == (3, 3)
    assert codec.reassemble(sa) == a5
    assert codec.reassemble(sb) == b


def test_split_matdot_axes():
    rng = np.random.default_rng(2)
    a = codec.random_matrix(GF5, 4, 6, rng)
    b = codec.random_matrix(GF5, 6, 3, rng)
    sa, sb = codec.split(a, b, "matdot", 3)
    assert sa.block_shape == (4, 2)
    assert sb.block_shape == (2, 3)
    assert codec.reassemble(sa) == a
    assert codec.reassemble(sb) == b
    with pytest.raises(ShapeError):
        codec.split(a, a, "matdot", 2)


# ---------------------------------------------------------------------------
# encode / evaluate


def monomial_value(spec, point, exponent):
    """x^exponent at one point, with 0^0 = 1 so constants survive at 0."""
    value = 1
    for coord, e in zip(point, exponent):
        value = spec.mul(value, spec.pow(coord, e))
    return value


def evaluate(op, point):
    """Pointwise reference for codec.evaluate_many: sum of block * monomial value."""
    if len(point) != op.l:
        raise ParameterError(f"point has {len(point)} coordinates, expected {op.l}")
    spec = op.spec
    acc = np.zeros(op.block_shape, dtype=np.int64)
    for degree, block in zip(op.support.vectors, op.blocks):
        v = monomial_value(spec, point, degree)
        if v:
            acc = spec.add_arr(acc, spec.mul_arr(np.int64(v), block))
    return MatrixFq(spec, acc)


def test_encode_constant_and_linear():
    a = MatrixFq(GF5, [[1, 2], [3, 4]])
    b = MatrixFq(GF5, [[1], [2]])
    sa, sb = codec.split(a, b, "poly", 1, 1)
    const = codec.encode(sa, ex.ExponentSet.of(5, 1, [(0,)]))
    for p in enumerate_points(GF5, 1):
        assert evaluate(const, p) == a

    a2 = MatrixFq(GF5, [[1, 2], [3, 4]])
    sa, _ = codec.split(a2, b, "poly", 2, 1)
    linear = codec.encode(sa, ex.ExponentSet.of(5, 1, [(0,), (1,)]))
    # p(x) = A1 + A2 x
    for x in range(5):
        want = GF5.add_arr(sa.blocks[0], GF5.mul_arr(np.int64(x), sa.blocks[1]))
        assert evaluate(linear, (x,)).data.tolist() == want.tolist()
    # the coefficient at each degree is the exact block
    assert np.array_equal(linear.blocks, sa.blocks)

    with pytest.raises(ParameterError):
        codec.encode(sa, ex.ExponentSet.of(5, 1, [(0,)]))


def test_encode_order_places_block_j_at_order_j():
    a = MatrixFq(GF5, [[1], [2], [3]])
    sa, _ = codec.split(a, MatrixFq.zeros(GF5, 1, 1), "poly", 3, 1)
    degrees = ex.ExponentSet.of(5, 1, [(0,), (1,), (4,)])
    op = codec.encode(sa, degrees, order=[(4,), (0,), (1,)])
    assert op.blocks[:, 0, 0].tolist() == [2, 3, 1]  # degrees (0,), (1,), (4,)
    for bad in ([(0,), (0,), (1,)], [(0,), (1,), (3,)], [(0,), (1,), (5,)], [(0,), (1,)]):
        with pytest.raises(ParameterError):
            codec.encode(sa, degrees, order=bad)


def test_evaluate_at_origin_and_zero_power():
    blocks = codec.split(MatrixFq(GF5, [[1, 2], [3, 4]]), MatrixFq(GF5, [[0], [0]]),
                         "poly", 2, 1)[0]
    op = codec.encode(blocks, ex.ExponentSet.of(5, 1, [(0,), (2,)]))
    at_zero = evaluate(op, (0,))
    assert at_zero.data.tolist() == blocks.blocks[0].tolist()  # 0^0 = 1, 0^2 = 0

    op_no_const = codec.encode(
        codec.split(MatrixFq(GF5, [[1, 2]]), MatrixFq(GF5, [[0], [0]]), "poly", 1, 1)[0],
        ex.ExponentSet.of(5, 1, [(3,)]),
    )
    assert evaluate(op_no_const, (0,)).data.tolist() == [[0, 0]]


def test_evaluate_binary_example():
    rng = np.random.default_rng(3)
    a = codec.random_matrix(GF2, 2, 2, rng)
    sa, _ = codec.split(a, MatrixFq.zeros(GF2, 2, 2), "poly", 2, 1)
    op = codec.encode(sa, ex.ExponentSet.of(2, 2, [(0, 0), (1, 1)]))
    want = GF2.add_arr(sa.blocks[0], sa.blocks[1])
    assert evaluate(op, (1, 1)).data.tolist() == want.tolist()


@pytest.mark.parametrize("spec, l", [(GF8, 3), (GF19, 2), (GF2, 4), (GF5, 1)])
def test_monomial_matrix_matches_monomial_value(spec, l):
    q = spec.q
    support = ex.ExponentSet.of(q, l, np.random.default_rng(q).integers(0, q, size=(30, l)))
    points = enumerate_points(spec, l)
    got = codec.monomial_matrix(spec, support, points)
    assert got.shape == (len(support), len(points))
    for i, degree in enumerate(support):
        assert got[i].tolist() == [monomial_value(spec, p, degree) for p in points]


def test_evaluate_many_matches_pointwise():
    rng = np.random.default_rng(4)
    sol = cons.box_poly(5, (2,), (2,))
    a = codec.random_matrix(GF5, 4, 3, rng)
    b = codec.random_matrix(GF5, 3, 4, rng)
    sa, sb = codec.split(a, b, "poly", 2, 2)
    enc = codec.encode(sa, sol.d_a)
    points = enumerate_points(GF5, 1)
    batch = codec.evaluate_many(enc, points)
    for i, p in enumerate(points):
        assert batch[i].tolist() == evaluate(enc, p).data.tolist()


# ---------------------------------------------------------------------------
# interpolation system


def test_build_system_tiny():
    sys1 = codec.build_system(GF5, ex.ExponentSet.of(5, 1, [(0,)]), [(0,)])
    assert codec.monomial_matrix(GF5, sys1.support, [(0,)]).tolist() == [[1]]
    assert sys1.kappa == 1

    support = ex.ExponentSet.of(5, 1, [(0,), (1,), (2,)])
    sys3 = codec.build_system(GF5, support, [(0,), (1,), (2,)])
    assert codec.monomial_matrix(GF5, sys3.support, [(0,), (1,), (2,)]).tolist() == [
        [1, 1, 1], [0, 1, 2], [0, 1, 4]]
    assert sys3.point_grid.tolist() == [0, 1, 2]
    assert sys3.support_grid.tolist() == [0, 1, 2]

    with pytest.raises(ParameterError):
        codec.build_system(GF5, support, [(0,), (0,), (1,)])
    with pytest.raises(InsufficientResponsesError):
        codec.build_system(GF5, support, [(0,), (1,)])


def test_build_system_binary_rank():
    sol = cons.sep_vars(2, 5, 5, 8, 8)
    points = enumerate_points(GF2, 10)
    system = codec.build_system(GF2, sol.sum_set(), points)
    assert system.kappa == 256
    assert system.recovery_threshold == 961


# ---------------------------------------------------------------------------
# interpolate + extract, polynomial mode


def test_interpolate_constant():
    rng = np.random.default_rng(5)
    sol = cons.box_poly(5, (1,), (1,))
    a = codec.random_matrix(GF5, 2, 2, rng)
    b = codec.random_matrix(GF5, 2, 2, rng)
    got = run_pipeline(GF5, sol, a, b, point_subset=[3])
    assert got == codec.matmul(a, b)


def test_interpolate_all_four_subsets_of_five_points():
    """Degrees {0,1} x {0,2}: any 4 of the 5 points recover all coefficients."""
    rng = np.random.default_rng(6)
    d_a = ex.ExponentSet.of(5, 1, [(0,), (1,)])
    d_b = ex.ExponentSet.of(5, 1, [(0,), (2,)])
    sol = cons.expand_db(5, d_a, ex.ExponentSet.of(5, 1, [(0,), (1,)]))
    assert sol.d_b == d_b
    a = codec.random_matrix(GF5, 4, 2, rng)
    b = codec.random_matrix(GF5, 2, 4, rng)
    sa, sb = codec.split(a, b, "poly", 2, 2)
    enc_a = codec.encode(sa, sol.d_a)
    enc_b = codec.encode(sb, sol.d_b)
    points = enumerate_points(GF5, 1)
    system = codec.build_system(GF5, sol.sum_set(), points)
    responses = [codec.worker_compute(p) for p in codec.make_payloads(enc_a, enc_b, points)]

    # independent oracle: coefficient of x^(a+b) is block_a . block_b
    expect = {}
    for i, av in enumerate(sol.d_a.vectors):
        for j, bv in enumerate(sol.d_b.vectors):
            key = (av[0] + bv[0],)
            expect[key] = GF5.matmul(sa.blocks[i], sb.blocks[j])

    for subset in itertools.combinations(range(5), 4):
        interp = codec.interpolate(system, [responses[i] for i in subset])
        for key, want in expect.items():
            assert interp[key].data.tolist() == want.tolist()
        got = codec.extract_poly(interp, sol, sa, sb)
        assert got == codec.matmul(a, b)

    with pytest.raises(InsufficientResponsesError) as err:
        codec.interpolate(system, responses[:3])
    assert err.value.needed == 4 and err.value.got == 3


def test_extract_poly_gf19_table_config():
    rng = np.random.default_rng(7)
    sol = cons.box_poly(19, (2, 2), (6, 6))
    a = codec.random_matrix(GF19, 6, 4, rng)
    b = codec.random_matrix(GF19, 4, 6, rng)
    got = run_pipeline(GF19, sol, a, b, n_points=sol.recovery_threshold)
    assert got == codec.matmul(a, b)


def test_extract_poly_gf2_sepvars():
    rng = np.random.default_rng(8)
    sol = cons.sep_vars(2, 5, 5, 8, 8)
    a = codec.random_matrix(GF2, 8, 32, rng)
    b = codec.random_matrix(GF2, 32, 8, rng)
    subset = sorted(rng.choice(1024, size=961, replace=False).tolist())
    got = run_pipeline(GF2, sol, a, b, point_subset=subset)
    assert got == codec.matmul(a, b)


def test_subset_independence():
    rng = np.random.default_rng(9)
    sol = cons.box_poly(19, (2, 2), (6, 6))
    a = codec.random_matrix(GF19, 4, 4, rng)
    b = codec.random_matrix(GF19, 4, 4, rng)
    sa, sb = codec.split(a, b, "poly", sol.m, sol.n)
    enc_a = codec.encode(sa, sol.d_a)
    enc_b = codec.encode(sb, sol.d_b)
    points = enumerate_points(GF19, 2)
    system = codec.build_system(GF19, sol.sum_set(), points)
    responses = [codec.worker_compute(p) for p in codec.make_payloads(enc_a, enc_b, points)]
    sub1 = [responses[i] for i in range(298)]
    sub2 = [responses[i] for i in range(63, 361)]
    i1 = codec.interpolate(system, sub1)
    i2 = codec.interpolate(system, sub2)
    assert np.array_equal(i1.grid, system.support_grid)
    assert np.array_equal(i1.grid, i2.grid)
    assert np.array_equal(i1.blocks, i2.blocks)


def _only_interpolation(sol, degree):
    """An Interpolation that holds the single coefficient at `degree`."""
    rng = np.random.default_rng(17)
    a = codec.random_matrix(GF5, 2 * sol.m, 2, rng)
    b = codec.random_matrix(GF5, 2, 2 * sol.n, rng)
    sa, sb = codec.split(a, b, "poly", sol.m, sol.n)
    points = enumerate_points(GF5, 1)
    system = codec.build_system(GF5, sol.sum_set(), points)
    payloads = codec.make_payloads(codec.encode(sa, sol.d_a), codec.encode(sb, sol.d_b), points)
    interp = codec.interpolate(system, [codec.worker_compute(p) for p in payloads], only=degree)
    return interp, sa, sb


def test_missing_coefficient_raises():
    sol = cons.box_poly(5, (2,), (2,))
    interp, sa, sb = _only_interpolation(sol, (1,))
    assert interp.grid.tolist() == [1]
    with pytest.raises(IncompleteRecoveryError, match=r"\(0,\)"):
        codec.extract_poly(interp, sol, sa, sb)


def test_interpolation_lacking_a_degree_raises():
    sol = cons.box_poly(5, (2,), (2,))
    interp, _, _ = _only_interpolation(sol, (3,))
    assert interp[(3,)].data.shape == interp.blocks.shape[1:]
    with pytest.raises(IncompleteRecoveryError, match=r"\(2,\)"):
        interp[(2,)]


def _reference_extract_poly(interp, sol, split_a, split_b):
    """The per-pair loop: reduce each sum of degrees and look its block up."""
    table = {degree: interp[degree].data for degree in sol.sum_set().vectors}
    grid_rows = []
    for a_vec in sol.d_a.vectors:
        row = [table[ex.reduce_q_vec(tuple(x + y for x, y in zip(a_vec, b_vec)), sol.q)]
               for b_vec in sol.d_b.vectors]
        grid_rows.append(np.concatenate(row, axis=1))
    full = np.concatenate(grid_rows, axis=0)
    return MatrixFq(split_a.spec, full[:split_a.original_shape[0], :split_b.original_shape[1]])


@pytest.mark.parametrize("make", [
    # q = 3 with three of the six sums past q - 1: (2,2) + (0,1) reduces to (1,1).
    lambda: cons._poly_solution(3, 2, ex.ExponentSet.of(3, 2, [(0, 0), (2, 2)]),
                                ex.ExponentSet.of(3, 2, [(0, 1), (0, 2), (1, 0)]), 1),
    lambda: cons.sep_vars(2, 2, 2, 2, 2),
], ids=["gf3-wrapping", "gf2-sep-vars"])
def test_extract_poly_matches_per_pair_reference(make):
    sol = make()
    spec = FieldSpec.of_order(sol.q)
    rng = np.random.default_rng(18)
    a = codec.random_matrix(spec, 2 * sol.m - 1, 3, rng)  # row padding
    b = codec.random_matrix(spec, 3, 2 * sol.n, rng)
    sa, sb = codec.split(a, b, "poly", sol.m, sol.n)
    support = sol.sum_set()
    grid = support.rows.astype(np.int64) @ sol.q ** np.arange(sol.l - 1, -1, -1)  # row-major
    blocks = rng.integers(0, sol.q, size=(len(support), 2, 2))
    interp = codec.Interpolation(spec, sol.l, grid, blocks, (), None)
    got = codec.extract_poly(interp, sol, sa, sb)
    assert got == _reference_extract_poly(interp, sol, sa, sb)
    assert got.data.shape == (a.rows, b.cols)


# ---------------------------------------------------------------------------
# matdot mode


def test_matdot_classical_all_subsets():
    rng = np.random.default_rng(10)
    sol = cons.box_matdot(5, (2,))
    assert sol.degree_target == (1,)
    a = codec.random_matrix(GF5, 3, 4, rng)
    b = codec.random_matrix(GF5, 4, 3, rng)
    oracle = codec.matmul(a, b)
    assert sol.recovery_threshold == 3  # classical 2m - 1
    for size in (3, 4):
        for subset in itertools.combinations(range(5), size):
            got = run_pipeline(GF5, sol, a, b, point_subset=list(subset))
            assert got == oracle


def test_matdot_single_block():
    rng = np.random.default_rng(11)
    with pytest.warns(UserWarning):
        sol = cons.box_matdot(5, (1,))
    a = codec.random_matrix(GF5, 3, 2, rng)
    b = codec.random_matrix(GF5, 2, 3, rng)
    got = run_pipeline(GF5, sol, a, b, point_subset=[2])
    assert got == codec.matmul(a, b)


def test_matdot_gf8_table7_f9():
    rng = np.random.default_rng(12)
    sol = cons.half_hyperbolic(8, 3, 9, cons.corner_degree(8, 3))
    assert sol.m == 62 and sol.design_threshold == 504
    a = codec.random_matrix(GF8, 4, 124, rng)
    b = codec.random_matrix(GF8, 124, 4, rng)
    subset = sorted(rng.choice(512, size=504, replace=False).tolist())
    got = run_pipeline(GF8, sol, a, b, point_subset=subset)
    assert got == codec.matmul(a, b)


def test_matdot_padding_inner_dimension():
    rng = np.random.default_rng(13)
    sol = cons.box_matdot(7, (3,))
    a = codec.random_matrix(FieldSpec(7), 3, 7, rng)  # 7 not divisible by 3
    b = codec.random_matrix(FieldSpec(7), 7, 2, rng)
    got = run_pipeline(FieldSpec(7), sol, a, b)
    assert got == codec.matmul(a, b)


# ---------------------------------------------------------------------------
# text formats


def test_matrix_text_round_trip():
    rng = np.random.default_rng(14)
    m = codec.random_matrix(GF8, 3, 5, rng)
    assert MatrixFq.from_text(m.to_text()) == m
    assert m.to_text().splitlines()[0] == "3 5 2^3/11"


@pytest.mark.parametrize(
    "text, match",
    [("", "header"), ("2 2\n1 2\n3 4\n", "header"), ("1 2 5\n1 x\n", "non-integer")],
    ids=["empty", "two-field-header", "non-integer-entry"],
)
def test_matrix_from_text_errors_are_typed(text, match):
    with pytest.raises(ParameterError, match=match):
        MatrixFq.from_text(text)


@pytest.mark.parametrize("responders", [5, 1], ids=["dual", "primal"])
def test_interpolate_only_outside_support_is_typed(responders):
    rng = np.random.default_rng(16)
    sol = cons.box_poly(5, (2,), (2,)) if responders == 5 else cons.box_poly(5, (1,), (1,))
    a = codec.random_matrix(GF5, 2, 2, rng)
    b = codec.random_matrix(GF5, 2, 2, rng)
    sa, sb = codec.split(a, b, "poly", sol.m, sol.n)
    points = enumerate_points(GF5, 1)
    system = codec.build_system(GF5, sol.sum_set(), points)
    payloads = codec.make_payloads(codec.encode(sa, sol.d_a), codec.encode(sb, sol.d_b), points)
    responses = [codec.worker_compute(p) for p in payloads[:responders]]
    assert (4,) not in sol.sum_set().vectors
    with pytest.raises(ParameterError, match=r"\(4,\)"):
        codec.interpolate(system, responses, only=(4,))


def test_response_transcript_round_trip():
    rng = np.random.default_rng(15)
    resp = codec.WorkerResponse(17, (0, 1, 1, 0), codec.random_matrix(GF2, 1, 3, rng))
    line = codec.format_response(resp)
    back = codec.parse_response(line, GF2, (1, 3))
    assert back == resp
    assert line.startswith("17 0,1,1,0 ")


def test_parse_response_wrong_entry_count_is_typed():
    with pytest.raises(ParameterError, match="4 entries, got 5 fields"):
        codec.parse_response("0 1 1 2 3", GF5, (2, 2))

