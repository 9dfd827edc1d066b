"""Coding pipeline: splits, encodings, evaluation, interpolation, extraction."""

import dataclasses
import itertools

import numpy as np
import pytest

from mvdmm import codec, constructions as cons, exponents as ex
from mvdmm.codec import MatrixFq
from mvdmm.errors import (
    InsufficientResponsesError,
    IncompleteRecoveryError,
    ParameterError,
    RangeError,
    ShapeError,
)
from mvdmm.field import FieldSpec


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
        enc_a = codec.encode(sa, sol.d_a, order=sol.block_order[0])
        enc_b = codec.encode(sb, sol.d_b, order=sol.block_order[1])
    points = np.arange(n_points or spec.q**sol.l)
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
    eye = MatrixFq(GF19, np.eye(4, dtype=int))
    zero = MatrixFq(GF19, np.zeros((4, 4), dtype=int))
    assert codec.matmul(eye, m) == m
    assert codec.matmul(zero, m) == zero

    with pytest.raises(ShapeError):
        codec.matmul(MatrixFq(GF5, np.zeros((2, 3), dtype=int)),
                     MatrixFq(GF5, np.zeros((2, 3), dtype=int)))


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
    assert MatrixFq(GF5, [[1, 2]]).data.dtype == GF5.dtype
    assert MatrixFq(GF5, np.zeros((0, 3))).rows == 0
    assert MatrixFq(GF5, [[]]).cols == 0


@pytest.mark.parametrize(
    "p, e, data",
    [
        (2, 1, np.array([[0, -1]], dtype=np.int64)),
        (2, 1, np.array([[1, 2]], dtype=np.int64)),
        (2, 1, np.array([[256, 0]], dtype=np.int64)),
        (2, 16, np.array([[65536, 0]], dtype=np.int64)),
        (2, 8, np.array([[300, 1]], dtype=np.uint16)),
    ],
    ids=["gf2-minus-1", "gf2-q", "gf2-256", "gf2^16-65536", "gf2^8-uint16-300"],
)
def test_matrix_checks_range_before_narrowing(p, e, data):
    # Each entry would wrap into [0, q) if it were cast to the index dtype first.
    with pytest.raises(ParameterError, match=r"\[0, q\)"):
        MatrixFq(FieldSpec(p, e), data)


def test_matrix_data_in_index_dtype():
    gf256, gf257 = FieldSpec(2, 8), FieldSpec(257)
    assert (gf256.dtype, gf257.dtype, GF2.dtype) == (np.uint8, np.uint16, np.uint8)
    fortran = np.asfortranarray(np.arange(12, dtype=np.int64).reshape(3, 4))
    for spec in (gf256, gf257, GF19):
        m = MatrixFq(spec, fortran)
        assert m.data.dtype == spec.dtype and m.data.flags.c_contiguous
        assert m.data.tolist() == fortran.tolist()
        assert MatrixFq(spec, np.zeros((2, 3), dtype=int)).data.dtype == spec.dtype
        assert MatrixFq(spec, np.eye(3, dtype=int)).data.dtype == spec.dtype
        assert codec.matmul(m, MatrixFq(spec, np.eye(4, dtype=int))) == m
    assert MatrixFq(GF2, np.array([[True, False]])).data.tolist() == [[1, 0]]


# ---------------------------------------------------------------------------
# split


def test_split_identity():
    a = MatrixFq(GF5, [[1, 2], [3, 4]])
    b = MatrixFq(GF5, [[0, 1], [2, 3]])
    sa, sb = codec.split(a, b, "poly", 1, 1)
    assert sa.blocks[0].tolist() == a.data.tolist()
    assert sb.blocks[0].tolist() == b.data.tolist()
    assert sa.count == sb.count == 1 and sa.original_shape == (2, 2)


def test_split_partition_and_padding():
    rng = np.random.default_rng(1)
    a4 = codec.random_matrix(GF5, 4, 3, rng)
    b = codec.random_matrix(GF5, 3, 4, rng)
    sa, _ = codec.split(a4, b, "poly", 2, 2)
    assert np.array_equal(np.concatenate(sa.blocks, axis=0), a4.data)

    a5 = codec.random_matrix(GF5, 5, 3, rng)
    sa, sb = codec.split(a5, b, "poly", 2, 2)
    assert sa.block_shape == (3, 3) and sa.original_shape == (5, 3)
    assert np.array_equal(np.concatenate(sa.blocks, axis=0)[:5], a5.data)
    assert not sa.blocks[1][2].any()  # the padding row
    assert np.array_equal(np.concatenate(sb.blocks, axis=1), b.data)


def test_split_matdot_axes():
    rng = np.random.default_rng(2)
    a = codec.random_matrix(GF5, 4, 6, rng)
    b = codec.random_matrix(GF5, 6, 3, rng)
    sa, sb = codec.split(a, b, "matdot", 3)
    assert sa.block_shape == (4, 2)
    assert sb.block_shape == (2, 3)
    assert np.array_equal(np.concatenate(sa.blocks, axis=1), a.data)
    assert np.array_equal(np.concatenate(sb.blocks, axis=0), b.data)
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
    if len(point) != op.support.l:
        raise ParameterError(f"point has {len(point)} coordinates, expected {op.support.l}")
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
    for x in range(5):
        assert evaluate(const, (x,)) == a

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
    sa, _ = codec.split(a, MatrixFq(GF5, [[0]]), "poly", 3, 1)
    degrees = ex.ExponentSet.of(5, 1, [(0,), (1,), (4,)])
    op = codec.encode(sa, degrees, order=[4, 0, 1])  # grid indices of (4,), (0,), (1,)
    assert op.blocks[:, 0, 0].tolist() == [2, 3, 1]  # degrees (0,), (1,), (4,)
    for bad in ([0, 0, 1], [0, 1, 3], [0, 1, 5], [0, 1], [4.0, 0.0, 1.0], [(4,), (0,), (1,)]):
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
    sa, _ = codec.split(a, MatrixFq(GF2, np.zeros((2, 2), dtype=int)), "poly", 2, 1)
    op = codec.encode(sa, ex.ExponentSet.of(2, 2, [(0, 0), (1, 1)]))
    want = GF2.add_arr(sa.blocks[0], sa.blocks[1])
    assert evaluate(op, (1, 1)).data.tolist() == want.tolist()


@pytest.mark.parametrize("spec, l", [(GF8, 3), (GF19, 2), (GF2, 4), (GF5, 1)])
def test_monomial_matrix_matches_monomial_value(spec, l):
    q = spec.q
    support = ex.ExponentSet.of(q, l, np.random.default_rng(q).integers(0, q, size=(30, l)))
    points = np.arange(q**l)
    got = codec.monomial_matrix(spec, support, points)
    assert got.shape == (len(support), len(points))
    for i, degree in enumerate(support):
        assert got[i].tolist() == [monomial_value(spec, ex.vector_at(q, l, p), degree)
                                   for p in points.tolist()]


def test_evaluate_many_matches_pointwise():
    rng = np.random.default_rng(4)
    sol = cons.box_poly(5, (2,), (2,))
    a = codec.random_matrix(GF5, 4, 3, rng)
    b = codec.random_matrix(GF5, 3, 4, rng)
    sa, sb = codec.split(a, b, "poly", 2, 2)
    enc = codec.encode(sa, sol.d_a)
    batch = codec.evaluate_many(enc, np.arange(5))
    for x in range(5):
        assert batch[x].tolist() == evaluate(enc, (x,)).data.tolist()



def _encoded_pair(spec, rng):
    """Both operands of box_poly(q, (1, 2), (2, 1)) over `spec`, l = 2."""
    sol = cons.box_poly(spec.q, (1, 2), (2, 1))
    a = codec.random_matrix(spec, 2, 3, rng)
    b = codec.random_matrix(spec, 3, 2, rng)
    sa, sb = codec.split(a, b, "poly", sol.m, sol.n)
    return codec.encode(sa, sol.d_a), codec.encode(sb, sol.d_b)


@pytest.mark.parametrize("spec", [GF2, GF5, GF8], ids=str)
@pytest.mark.parametrize("points", [
    [0, 4096], [0, 2**70], [1, -1], [(0, 0), (0,)], [(0, 0, 0)], [(0, 0), (1, 1)],
], ids=["beyond-q", "beyond-int64", "negative", "too-few-coords", "too-many-coords",
        "coordinate-tuples"])
def test_evaluate_many_checks_points_on_every_field(spec, points):
    """Points are grid indices below q^l = 4, 25 or 64; coordinate tuples
    are not points, whatever their length."""
    enc, _ = _encoded_pair(spec, np.random.default_rng(41))
    with pytest.raises(ParameterError, match=r"1-D integer array of grid indices in \[0, "):
        codec.evaluate_many(enc, points)


@pytest.mark.parametrize("spec", [GF2, GF5], ids=str)
@pytest.mark.parametrize("l, points", [(1, (1.7, 0.0)), (2, np.array([1.0, 2.9])), (1, [True, False])],
                         ids=["float-tuple", "float-array", "bool"])
def test_non_integer_points_raise_instead_of_truncating(spec, l, points):
    sol = cons.box_poly(spec.q, (1,) * l, (1,) * l)
    rng = np.random.default_rng(44)
    a, b = codec.random_matrix(spec, 1, 2, rng), codec.random_matrix(spec, 2, 1, rng)
    sa, sb = codec.split(a, b, "poly", sol.m, sol.n)
    enc_a, enc_b = codec.encode(sa, sol.d_a), codec.encode(sb, sol.d_b)
    for call in (lambda: codec.evaluate_many(enc_a, points), lambda: codec.monomial_matrix(
            spec, sol.d_a, points), lambda: codec.build_system(spec, sol.sum_set(), points)):
        with pytest.raises(ParameterError, match="integer array"):
            call()

    grid = np.arange(spec.q**l)
    system = codec.build_system(spec, sol.sum_set(), grid)
    resp = codec.worker_compute(codec.make_payloads(enc_a, enc_b, grid)[0])
    stray = codec.WorkerResponse(points[0], resp.product)
    with pytest.raises(ParameterError, match="integer grid indices"):
        codec.interpolate(system, [stray])


@pytest.mark.parametrize("point, message", [
    (1.0, "integer grid indices"), (True, "integer grid indices"), (np.True_, "integer grid indices"),
    ((1,), "integer grid indices"), ((0, 1), "integer grid indices"),
    (np.int8(-1), "unknown point -1"), (25, "unknown point 25"), (2**70, "outside GF"),
], ids=["float", "bool", "numpy-bool", "1-tuple", "2-tuple", "negative", "beyond-grid",
        "beyond-int64"])
def test_response_point_must_be_an_int_on_the_system(point, message):
    """A response names its point by one int grid index; a float, a bool or
    a tuple raises, among int responses too, as does an int off the system."""
    sol = cons.box_poly(5, (1, 1), (1, 1))
    rng = np.random.default_rng(45)
    a, b = codec.random_matrix(GF5, 1, 2, rng), codec.random_matrix(GF5, 2, 1, rng)
    sa, sb = codec.split(a, b, "poly", sol.m, sol.n)
    payloads = codec.make_payloads(codec.encode(sa, sol.d_a), codec.encode(sb, sol.d_b), range(3))
    system = codec.build_system(GF5, sol.sum_set(), [2, 1, 0])
    good = [codec.worker_compute(p) for p in payloads]
    odd = codec.WorkerResponse(point, good[0].product)
    with pytest.raises(ParameterError, match=message):
        codec.interpolate(system, good + [odd], require_threshold=False)
    assert [type(r.point) for r in good] == [int] * 3
    numpy_int = codec.WorkerResponse(np.uint8(1), good[1].product)  # numpy ints are ints
    assert codec.interpolate(system, [numpy_int], require_threshold=False).blocks.shape == (1, 1, 1)


@pytest.mark.parametrize("spec", [GF2, GF5, GF8], ids=str)
def test_evaluate_many_of_no_points(spec):
    enc, _ = _encoded_pair(spec, np.random.default_rng(42))
    for points in ([], np.zeros(0, dtype=np.int64)):
        out = codec.evaluate_many(enc, points)
        assert out.shape == (0, *enc.block_shape) and out.dtype == spec.dtype


@pytest.mark.parametrize("spec", [GF2, GF5, GF8], ids=str)
def test_evaluate_many_of_empty_blocks(spec):
    """Blocks with no entries (an empty inner dimension) evaluate on every side."""
    support = ex.ExponentSet(spec.q, 2, np.arange(3, dtype=np.int64))
    for shape in ((0, 3), (3, 0)):
        enc = codec.EncodedOperand(spec, support, np.zeros((3, *shape), dtype=spec.dtype))
        for points in (np.arange(spec.q**2), np.array([spec.q**2 - 1])):
            assert codec.evaluate_many(enc, points).shape == (points.size, *shape)


@pytest.mark.parametrize("spec", [GF2, GF5, GF8], ids=str)
def test_payloads_are_views_of_the_evaluate_many_rows(spec):
    enc_a, enc_b = _encoded_pair(spec, np.random.default_rng(43))
    points = np.arange(spec.q**2)[::-3]
    vals_a, vals_b = codec.evaluate_many(enc_a, points), codec.evaluate_many(enc_b, points)
    payloads = codec.make_payloads(enc_a, enc_b, points.tolist())
    assert len(payloads) == len(points)
    for i, (pay, p) in enumerate(zip(payloads, points.tolist())):
        assert (pay.point, pay.spec) == (p, spec) and type(pay.point) is int
        assert pay.a_part.dtype == pay.b_part.dtype == spec.dtype
        assert np.array_equal(pay.a_part, vals_a[i]) and np.array_equal(pay.b_part, vals_b[i])
        if spec.q != 2:  # index arrays: row views of one array each, no copies
            assert pay.a_part.base is payloads[0].a_part.base is not None
            assert pay.b_part.base is payloads[0].b_part.base is not None
        product = codec.worker_compute(pay).product
        assert product.dtype == spec.dtype
        assert np.array_equal(product, scalar_matmul(spec, pay.a_part, pay.b_part))

@pytest.mark.parametrize("spec", [GF2, GF5, GF8], ids=str)
def test_worker_plane_looks_up_like_a_list(spec):
    """Negative and numpy indices, slices (a plane of those workers), len and
    iteration; every lookup builds a payload equal to the evaluate_many rows,
    of row views where the plane holds index arrays (not over GF(2))."""
    enc_a, enc_b = _encoded_pair(spec, np.random.default_rng(44))
    points = np.arange(spec.q**2)[::-3]
    vals_a, vals_b = codec.evaluate_many(enc_a, points), codec.evaluate_many(enc_b, points)
    plane, n = codec.make_payloads(enc_a, enc_b, points), len(points)
    assert isinstance(plane, codec.WorkerPlane) and len(plane) == n
    assert [p.point for p in plane] == points.tolist()
    for i in (0, 1, n - 1, -1, -n, np.int64(1), np.uint8(n - 1), np.int32(-2)):
        pay = plane[i]
        assert pay.point == points[i] and type(pay.point) is int
        assert np.array_equal(pay.a_part, vals_a[i]) and np.array_equal(pay.b_part, vals_b[i])
        if spec.q != 2:
            assert np.array_equal(pay.a_part, plane.a_vals[int(i)]) and pay.a_part.base is not None
            assert np.array_equal(pay.b_part, plane.b_vals[int(i)]) and pay.b_part.base is not None
    for part in (slice(1, 5, 2), slice(None, None, -1), slice(-3, None), slice(n, None)):
        sub = plane[part]
        assert isinstance(sub, codec.WorkerPlane) and len(sub) == len(points[part])
        assert [p.point for p in sub] == points[part].tolist()
        assert [p.point for p in plane[part][::2]] == points[part][::2].tolist()
    assert list(plane[n:]) == [] and len(plane[:0]) == 0


@pytest.mark.parametrize("index, error", [
    (10**3, RangeError), (-10**3, RangeError), (2**70, RangeError), (np.int64(10**3), RangeError),
    (1.0, ParameterError), (True, ParameterError), (np.bool_(False), ParameterError),
    ("1", ParameterError), ((1,), ParameterError), ([1], ParameterError),
    (np.array([1]), ParameterError), (np.array(1), ParameterError), (None, ParameterError),
], ids=repr)
def test_worker_plane_lookup_errors_are_typed(index, error):
    """A bad worker index raises RangeError or ParameterError, never IndexError."""
    plane = codec.make_payloads(*_encoded_pair(GF5, np.random.default_rng(45)), np.arange(25))
    assert len(plane) == 25
    with pytest.raises(error):
        plane[index]
    with pytest.raises(RangeError):
        plane[25]
    with pytest.raises(RangeError):
        plane[-26]


@pytest.mark.parametrize("spec", [GF2, GF5, GF8], ids=str)
def test_worker_plane_products_are_the_workers_products(spec):
    """One batched product equals each worker's own, in the order asked for."""
    plane = codec.make_payloads(*_encoded_pair(spec, np.random.default_rng(46)), np.arange(spec.q**2))
    workers = np.array([3, 0, -1, 2, 3])
    stack = plane.products(workers)
    assert stack.dtype == spec.dtype and stack.shape == (5, 1, 1)
    for row, i in zip(stack, workers.tolist()):
        assert np.array_equal(row, codec.worker_compute(plane[i]).product)
    assert plane.products(np.zeros(0, dtype=np.int64)).shape == (0, 1, 1)
    for bad, error in (([1.0], ParameterError), ([[1]], ParameterError),
                       ([spec.q**2], RangeError), ([-spec.q**2 - 1], RangeError)):
        with pytest.raises(error):
            plane.products(np.array(bad))


# ---------------------------------------------------------------------------
# characteristic 2: the grid transform on bit planes (over GF(2), the XOR butterfly)


def char2_operand(spec, l, box, terms, shape, rng):
    """Random blocks on random degrees inside `box` (extents per coordinate),
    always with its top corner and never with 0, so the support is not a
    downset and its smallest box is `box`."""
    inner = np.ravel_multi_index(np.indices(box).reshape(l, -1), (spec.q,) * l)
    size = min(terms, inner.size - 1) - 1
    grid = np.union1d(rng.choice(inner[1:-1], size=size, replace=False), inner[-1:])
    support = ex.ExponentSet(spec.q, l, grid.astype(np.int64))
    blocks = rng.integers(0, spec.q, size=(len(grid), *shape)).astype(spec.dtype)
    return codec.EncodedOperand(spec, support, blocks)


def rule_side(op, points):
    """Whether the cost rule picks the bit-plane side: the points' prefix
    sub-grid [0, q^j) and the smallest box of the support inside it."""
    q, l = op.spec.q, op.support.l
    j = next(j for j in range(l + 1) if q**j > max(points))
    inside = op.support.rows[op.support.index < q**j, l - j:].astype(np.int64)
    box = tuple((inside.max(axis=0, initial=0) + 1).tolist())
    return codec._packed_side(op.spec, box, len(points), len(op.support))


def check_char2_evaluation(op, points, packed):
    """evaluate_many at the grid points equals the monomial product, and it
    takes the bit-plane side, with no monomial_matrix call, exactly when
    `packed`, which must be the cost rule's pick."""
    spec, points = op.spec, np.asarray(points)
    assert rule_side(op, points) is packed
    vals = codec.monomial_matrix(spec, op.support, points)
    want = spec.matmul(vals.T, op.blocks.reshape(len(op.blocks), -1))
    calls, real = [], codec.monomial_matrix
    codec.monomial_matrix = lambda *args: calls.append(args) or real(*args)
    try:
        got = codec.evaluate_many(op, points)
    finally:
        codec.monomial_matrix = real
    assert (not calls) is packed
    assert got.dtype == spec.dtype and got.flags.c_contiguous
    assert got.shape == (len(points), *op.block_shape)
    assert np.array_equal(got, want.reshape(got.shape))


def check_transform(spec, l, w, rng, rows=None):
    """_transform equals T . values, T the Kronecker power of T1 (`_dual_block`),
    on all rows or on `rows` of them, runs on bit planes (it splits the
    values with `_bit_planes`) exactly in characteristic 2 and there over
    GF(2) or from w = 2 entries up, and tallies l passes of T1 (over GF(2),
    the butterfly's XORs)."""
    grid = np.arange(spec.q**l)
    rows = grid if rows is None else rows
    values = rng.integers(0, spec.q, size=(grid.size, w)).astype(spec.dtype)
    stats = codec._linalg.EliminationStats()
    calls, real = [], codec._bit_planes
    codec._bit_planes = lambda *args: calls.append(args) or real(*args)
    try:
        got = codec._transform(spec, l, values.copy(), stats)
    finally:
        codec._bit_planes = real
    assert bool(calls) is (spec.p == 2 and (spec.q == 2 or w >= 2))
    assert got.dtype == spec.dtype and got.shape == values.shape
    assert np.array_equal(got[rows], spec.matmul(codec._dual_block(spec, l, rows, grid), values))
    passes = (0, l * values.size // 2) if spec.q == 2 else (l * spec.q * values.size,) * 2
    assert (stats.mult_ops, stats.add_ops) == passes


# Block shapes whose entry counts cover w = 1 and every residue mod 8.
GF2_SHAPES = [(1, 1), (1, 9), (2, 1), (11, 1), (1, 4), (13, 1), (2, 3), (1, 15), (8, 1),
              (1, 17), (3, 1), (1, 7)]


@pytest.mark.parametrize("l", range(1, 13))
def test_gf2_evaluate_many_full_grid(l):
    rng = np.random.default_rng(200 + l)
    op = char2_operand(GF2, l, (2,) * l, min(2**l, 24), GF2_SHAPES[l - 1], rng)
    check_char2_evaluation(op, np.arange(2**l), packed=True)


@pytest.mark.parametrize("l", [1, 3, 7, 12])
def test_gf2_evaluate_many_prefix_grids(l):
    rng = np.random.default_rng(300 + l)
    for n, shape in zip(sorted({2**l - 1, 2 ** (l - 1) + 1, 1}), [(1, 1), (3, 2), (1, 5)]):
        op = char2_operand(GF2, l, (2,) * l, min(2**l, 20), shape, rng)
        check_char2_evaluation(op, np.arange(n), packed=True)


def test_gf2_evaluate_many_shuffled_and_scattered_points():
    rng = np.random.default_rng(17)
    # a shuffled subset of a small grid, and many points scattered over a large one
    check_char2_evaluation(char2_operand(GF2, 9, (2,) * 9, 30, (2, 7), rng),
                           rng.permutation(512)[:300], packed=True)
    check_char2_evaluation(char2_operand(GF2, 16, (2,) * 16, 64, (1, 3), rng),
                           rng.choice(2**16, size=2000, replace=False), packed=True)
    # scattered points below 2^10 on l = 16: only the sub-cube [0, 2^10) is transformed
    check_char2_evaluation(char2_operand(GF2, 16, (2,) * 16, 40, (5, 1), rng),
                           rng.permutation(2**10)[:50], packed=True)
    # a few points scattered over a large grid keep the monomial product
    few = np.append(rng.choice(2**15, size=4, replace=False), 2**16 - 1)
    check_char2_evaluation(char2_operand(GF2, 16, (2,) * 16, 3, (1, 6), rng), few, packed=False)
    check_char2_evaluation(char2_operand(GF2, 18, (2,) * 18, 8, (2, 2), rng),
                           rng.choice(2**18, size=200), packed=False)


def check_gf2_plane(enc_a, enc_b, points):
    """make_payloads over GF(2) at `points`: the plane holds each operand's
    packed rows (padding bits zero), and every lookup, slice, iteration and
    batched product equals the evaluate_many rows and worker_compute."""
    spec, points = GF2, np.asarray(points)
    n = points.size
    plane = codec.make_payloads(enc_a, enc_b, points)
    want_a, want_b = codec.evaluate_many(enc_a, points), codec.evaluate_many(enc_b, points)
    for held, want in ((plane.a_vals, want_a), (plane.b_vals, want_b)):
        assert held.dtype == np.uint8 and held.shape == (n, -(-want[0].size // 8))
        assert np.array_equal(held, np.packbits(want.reshape(n, -1), axis=1))

    def check(pay, i):
        assert pay.point == points[i] and type(pay.point) is int and pay.spec == spec
        for part, want in ((pay.a_part, want_a[i]), (pay.b_part, want_b[i])):
            assert part.dtype == spec.dtype and part.flags.c_contiguous
            assert part.shape == want.shape and np.array_equal(part, want)

    for i in sorted({0, n // 2, n - 1}) + [-1, -n, np.int64(n - 1), np.uint16(n // 3), np.int8(-1)]:
        check(plane[i], i)
    assert [p.point for p in plane] == points.tolist()
    for i, pay in enumerate(plane):
        check(pay, i)
    for part in (slice(None, None, -1), slice(n - 2, 0, -3), slice(1, None, 2), slice(-2, None),
                 slice(n, None)):
        sub, at = plane[part], np.arange(n)[part]
        assert isinstance(sub, codec.WorkerPlane) and len(sub) == at.size
        for j, i in enumerate(at.tolist()):
            check(sub[j], i)
        assert np.array_equal(sub.products(np.arange(at.size)), plane.products(at))
    workers = np.array([n - 1, 0, -1, n // 2, 0, -n, n - 1])
    stack = plane.products(workers)
    assert stack.dtype == spec.dtype and stack.shape == (workers.size, want_a.shape[1], want_b.shape[2])
    for row, i in zip(stack, workers.tolist()):
        assert np.array_equal(row, codec.worker_compute(plane[i]).product)
        assert np.array_equal(row, spec.matmul(want_a[i], want_b[i]))


# Block shapes (r, s) and (s, t) whose operands have 0, 1, 7, 8, 9 and 17 entries.
GF2_PLANE_SHAPES = [((1, 0), (0, 1)), ((0, 3), (3, 1)), ((1, 1), (1, 7)), ((7, 1), (1, 8)),
                    ((1, 8), (8, 1)), ((9, 1), (1, 17)), ((1, 17), (17, 1)), ((3, 3), (3, 3))]


def gf2_operand_pair(l, terms, shapes, rng):
    """Operands of blocks `shapes` on random degrees of the cube {0, 1}^l."""
    return tuple(char2_operand(GF2, l, (2,) * l, terms, shape, rng) for shape in shapes)


@pytest.mark.parametrize("shapes", GF2_PLANE_SHAPES, ids=str)
def test_gf2_plane_holds_packed_rows_that_unpack_to_the_evaluations(shapes):
    """Both sides of the cost rule: the butterfly's planes on a whole small
    cube and on many points scattered over a large one; the packed monomial
    product at a few points scattered over a large cube."""
    rng = np.random.default_rng(sum(map(sum, shapes)))
    for l, terms, points, packed in (
        (5, 12, rng.permutation(32), True),
        (12, 40, rng.choice(2**12, size=1500, replace=False), True),
        (16, 3, np.append(rng.choice(2**16 - 1, size=4, replace=False), 2**16 - 1), False),
    ):
        enc_a, enc_b = gf2_operand_pair(l, terms, shapes, rng)
        assert rule_side(enc_a, points) is rule_side(enc_b, points) is packed
        check_gf2_plane(enc_a, enc_b, points)


def test_gf2_plane_mixes_the_sides_of_its_operands():
    """One operand by the butterfly and the other by the monomial product
    still make one plane of packed rows."""
    rng = np.random.default_rng(29)
    points = np.append(rng.choice(2**14 - 1, size=6, replace=False), 2**14 - 1)
    enc_a = char2_operand(GF2, 14, (2,) * 14, 2**14, (1, 9), rng)
    enc_b = char2_operand(GF2, 14, (2,) * 14, 2, (9, 2), rng)
    assert rule_side(enc_a, points) and not rule_side(enc_b, points)
    check_gf2_plane(enc_a, enc_b, points)


@pytest.mark.parametrize("l", range(1, 7))
def test_gf2_dual_block_is_the_kronecker_power_of_t1(l):
    t1 = codec.inverse_vandermonde(GF2).astype(np.int64)
    want = np.ones((1, 1), dtype=np.int64)
    for _ in range(l):
        want = np.kron(want, t1)
    grid = np.arange(2**l)
    got = codec._dual_block(GF2, l, grid, grid)
    assert got.dtype == np.int64 and np.array_equal(got, want)
    rows, cols = np.random.default_rng(l).permutation(2**l)[: 2 ** (l - 1) + 1], grid[::-1]
    assert np.array_equal(codec._dual_block(GF2, l, rows, cols), want[np.ix_(rows, cols)])


@pytest.mark.parametrize("w", [1, 3, 8, 13, 22])
def test_gf2_transform_on_packed_words_equals_the_dual_matrix(w):
    check_transform(GF2, 6, w, np.random.default_rng(w))


# (q, l) with q^l <= 4096 for every GF(2^e), e >= 2, up to GF(512) (uint16 indices)
CHAR2_GRIDS = [(4, 1), (4, 3), (4, 6), (8, 2), (8, 4), (16, 1), (16, 3), (32, 2), (64, 2),
               (128, 1), (256, 1), (512, 1)]
# Block entry counts 1..16: every residue mod 8, with and without a full byte.
CHAR2_SHAPES = [(1, 1), (2, 1), (1, 3), (4, 1), (1, 5), (2, 3), (7, 1), (2, 4), (3, 3), (1, 10),
                (11, 1), (3, 4), (13, 1), (2, 7), (5, 3), (4, 4)]


@pytest.mark.parametrize("q, l", CHAR2_GRIDS)
def test_char2_evaluate_many_full_and_prefix_grids(q, l):
    spec, rng = FieldSpec.of_order(q), np.random.default_rng(q * 10 + l)
    boxes = [(q,) * l, tuple(int(x) for x in rng.integers(2, q + 1, size=l))]
    sides = set()
    for k, shape in enumerate(CHAR2_SHAPES):
        op = char2_operand(spec, l, boxes[k % 2], 3 + k * 25, shape, rng)
        sides.add(rule_side(op, np.arange(q**l)))
        check_char2_evaluation(op, np.arange(q**l), rule_side(op, np.arange(q**l)))
    # the full grid with its whole support takes the planes (few terms over a large field may not)
    assert True in sides
    many = char2_operand(spec, l, (q,) * l, 400, (1, 3), rng)
    check_char2_evaluation(many, np.arange(q**l), packed=True)
    for n in sorted({1, q, q**l // 2 + 1, q**l - 1}):
        op = char2_operand(spec, l, (q,) * l, 12, (3, 5), rng)
        check_char2_evaluation(op, np.arange(n), rule_side(op, np.arange(n)))


@pytest.mark.parametrize("q, l", [(4, 6), (8, 4), (16, 3), (32, 2), (256, 1)])
def test_char2_evaluate_many_shuffled_and_scattered_points(q, l):
    spec, rng = FieldSpec.of_order(q), np.random.default_rng(q + l)
    op = char2_operand(spec, l, (q,) * l, 400, (2, 9), rng)
    check_char2_evaluation(op, rng.permutation(q**l)[: q**l // 3], packed=True)
    # a few points scattered over the grid, the top one among them, keep the monomial product
    few = np.append(rng.choice(q**l - 1, size=2, replace=False), q**l - 1)
    check_char2_evaluation(char2_operand(spec, l, (q,) * l, 4, (1, 6), rng), few, packed=False)


@pytest.mark.parametrize("q, l", CHAR2_GRIDS)
def test_char2_transform_equals_the_dual_matrix(q, l):
    spec, rng = FieldSpec.of_order(q), np.random.default_rng(q + 7 * l)
    for w in (0, 1, 3, 8, 13):
        rows = None if q**l <= 1024 else rng.choice(q**l, size=64, replace=False)
        check_transform(spec, l, w, rng, rows)


# (q, l) over odd characteristic, prime fields and GF(9), GF(25): T1 by FieldSpec.matmul.
ODD_GRIDS = [(3, 1), (3, 5), (5, 3), (7, 2), (9, 3), (11, 2), (25, 2)]


@pytest.mark.parametrize("q, l", ODD_GRIDS)
def test_odd_characteristic_transform_equals_the_dual_matrix(q, l):
    spec, rng = FieldSpec.of_order(q), np.random.default_rng(q + 11 * l)
    for w in (0, 1, 2, 9):  # w = 0: blocks without entries
        check_transform(spec, l, w, rng)


def test_char2_full_grid_encode_builds_no_monomial_matrix(monkeypatch):
    """matdot-gf8's operands and a 176-term GF(16) operand on 16^3 points
    are evaluated without a (terms x points) matrix."""
    rng = np.random.default_rng(8)
    sol = cons.build("matdot-half l=3 F=17 d=corner", 8)
    a = codec.random_matrix(GF8, 64, 1120, rng)
    b = codec.random_matrix(GF8, 1120, 64, rng)
    sa, sb = codec.split(a, b, "matdot", sol.m)
    operands = [codec.encode(sa, sol.d_a, order=sol.block_order[0]),
                codec.encode(sb, sol.d_b, order=sol.block_order[1]),
                char2_operand(FieldSpec(2, 4), 3, (16,) * 3, 176, (2, 3), rng)]
    want = [codec.evaluate_many(op, np.arange(op.spec.q**3)) for op in operands]

    def refuse(*args):
        raise AssertionError("monomial_matrix called by a full-grid encode")

    monkeypatch.setattr(codec, "monomial_matrix", refuse)
    for op, expect in zip(operands, want):
        got = codec.evaluate_many(op, np.arange(op.spec.q**3))
        assert np.array_equal(got, expect)


# ---------------------------------------------------------------------------
# interpolation system


def test_build_system_tiny():
    sys1 = codec.build_system(GF5, ex.ExponentSet.of(5, 1, [(0,)]), [0])
    assert codec.monomial_matrix(GF5, sys1.support, [0]).tolist() == [[1]]
    assert sys1.kappa == 1

    support = ex.ExponentSet.of(5, 1, [(0,), (1,), (2,)])
    points = np.array([2, 0, 1])
    sys3 = codec.build_system(GF5, support, points)
    assert codec.monomial_matrix(GF5, sys3.support, [0, 1, 2]).tolist() == [
        [1, 1, 1], [0, 1, 2], [0, 1, 4]]
    assert sys3.point_grid.tolist() == [2, 0, 1]
    assert sys3.support.index.tolist() == [0, 1, 2]
    points[0] = 3  # the system keeps a read-only copy of the points
    assert sys3.point_grid.tolist() == [2, 0, 1] and not sys3.point_grid.flags.writeable

    with pytest.raises(ParameterError, match="distinct"):
        codec.build_system(GF5, support, [0, 0, 1])
    with pytest.raises(InsufficientResponsesError):
        codec.build_system(GF5, support, [0, 1])


def test_build_system_rejects_repeated_points_anywhere():
    sol = cons.sep_vars(2, 5, 5, 8, 8)
    points = np.arange(2**10)
    points[700] = points[3]
    with pytest.raises(ParameterError, match="distinct"):
        codec.build_system(GF2, sol.sum_set(), points)


def test_build_system_binary_rank():
    sol = cons.sep_vars(2, 5, 5, 8, 8)
    system = codec.build_system(GF2, sol.sum_set(), np.arange(2**10))
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
    points = np.arange(5)
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
    points = np.arange(19**2)
    system = codec.build_system(GF19, sol.sum_set(), points)
    responses = [codec.worker_compute(p) for p in codec.make_payloads(enc_a, enc_b, points)]
    sub1 = [responses[i] for i in range(298)]
    sub2 = [responses[i] for i in range(63, 361)]
    i1 = codec.interpolate(system, sub1)
    i2 = codec.interpolate(system, sub2)
    assert np.array_equal(i1.grid, system.support.index)
    assert np.array_equal(i1.grid, i2.grid)
    assert np.array_equal(i1.blocks, i2.blocks)


def _only_interpolation(sol, degree):
    """An Interpolation that holds the single coefficient at `degree`."""
    rng = np.random.default_rng(17)
    a = codec.random_matrix(GF5, 2 * sol.m, 2, rng)
    b = codec.random_matrix(GF5, 2, 2 * sol.n, rng)
    sa, sb = codec.split(a, b, "poly", sol.m, sol.n)
    points = np.arange(5)
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


@pytest.mark.parametrize("degree", [(5,), (-1,), (1.0,), (True,), (1, 0), ((1,), 2)],
                         ids=["beyond-q", "negative", "float", "bool", "too-long", "ragged"])
def test_a_degree_off_the_exponent_grid_raises(degree):
    sol = cons.box_poly(5, (2,), (2,))
    interp, _, _ = _only_interpolation(sol, (1,))
    system = codec.build_system(GF5, sol.sum_set(), np.arange(5))
    for lookup in (lambda: interp[degree], lambda: system.index_of_degree(degree)):
        with pytest.raises(ParameterError, match=r"a degree must have 1 coordinates in \[0, 5\)"):
            lookup()


def test_stacked_array_records_compare_by_identity():
    """`==` on records that hold numpy arrays is identity and never raises."""
    sol = cons.box_poly(5, (2,), (2,))
    interp, sa, _ = _only_interpolation(sol, (1,))
    enc = codec.encode(sa, sol.d_a)
    system = codec.build_system(GF5, sol.sum_set(), np.arange(5))
    for record in (sa, enc, interp, system):
        twin = dataclasses.replace(record)
        assert record == record
        assert record != twin
    assert np.array_equal(dataclasses.replace(sa).blocks, sa.blocks)


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
    interp = codec.Interpolation(spec, sol.l, grid, blocks, None)
    got = codec.extract_poly(interp, sol, sa, sb)
    assert got == _reference_extract_poly(interp, sol, sa, sb)
    assert got.data.shape == (a.rows, b.cols)


# ---------------------------------------------------------------------------
# matdot mode


def _combine_weights(kind, q, rng):
    if kind == "zero":
        return np.zeros(40, dtype=np.int64)
    if kind in ("one", "full"):  # one distinct nonzero weight
        return np.full(100 if kind == "one" else 40, q - 2, dtype=np.int64)
    if kind == "distinct":  # R = 200 < q, no weight repeats
        return rng.permutation(q)[:200]
    if kind == "single":  # R = 1
        return np.array([q - 1])
    return rng.integers(0, q, size=90)


@pytest.mark.parametrize("q, kind, width", [
    (8, "zero", 16), (8, "one", 16), (256, "distinct", 24), (8, "single", 40),
    (8, "random", 13), (8, "random", 4096), (2, "random", 11),
    (512, "random", 16), (512, "random", 5),  # uint16 indices: 32 and 10 bytes a row
    (9, "random", 7), (25, "one", 9), (23, "random", 6), (23, "full", 6), (3**10, "random", 3),
    (3**10, "full", 3),  # 40 rows of q - 1 under one weight
])
def test_grouped_combine_matches_entrywise_reference(q, kind, width):
    """The decoder's weighted sum of responses (grouped by weight in
    characteristic 2) against a per-entry mul_arr/add_arr sum; its tallies
    count R w of each."""
    spec = FieldSpec.of_order(q)
    rng = np.random.default_rng(q + width)
    weights = _combine_weights(kind, q, rng)
    products = rng.integers(0, q, size=(weights.size, width)).astype(spec.dtype)
    products[::1 if kind == "full" else 3] = q - 1  # digit sums at their largest
    want = np.zeros(width, dtype=np.int64)
    for w, row in zip(weights.tolist(), products):
        want = spec.add_arr(want, spec.mul_arr(np.full(width, w), row))
    stats = codec._linalg.EliminationStats()
    got = codec._combine(spec, weights, products, stats)
    assert got.dtype == spec.dtype and np.array_equal(got, want)
    assert stats.mult_ops == stats.add_ops == weights.size * width


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


@pytest.mark.parametrize("responders", [5, 1], ids=["dual", "primal"])
def test_interpolate_only_outside_support_is_typed(responders):
    rng = np.random.default_rng(16)
    sol = cons.box_poly(5, (2,), (2,)) if responders == 5 else cons.box_poly(5, (1,), (1,))
    a = codec.random_matrix(GF5, 2, 2, rng)
    b = codec.random_matrix(GF5, 2, 2, rng)
    sa, sb = codec.split(a, b, "poly", sol.m, sol.n)
    points = np.arange(5)
    system = codec.build_system(GF5, sol.sum_set(), points)
    payloads = codec.make_payloads(codec.encode(sa, sol.d_a), codec.encode(sb, sol.d_b), points)
    responses = [codec.worker_compute(p) for p in payloads[:responders]]
    assert (4,) not in sol.sum_set().vectors
    with pytest.raises(ParameterError, match=r"\(4,\)"):
        codec.interpolate(system, responses, only=(4,))


def test_response_transcript_line():
    resp = codec.WorkerResponse(6, np.array([[1, 0, 1]], dtype=GF2.dtype))
    assert codec.format_response(resp, 2, 4) == "6 0,1,1,0 1 0 1"


def test_matrix_entry_beyond_int64_names_the_range():
    with pytest.raises(ParameterError, match=rf"\[0, q\), got {2**70}"):
        MatrixFq(GF5, [[1, 2**70]])
    with pytest.raises(ParameterError, match=rf"\[0, q\), got {-2**70}"):
        MatrixFq(GF5, [[-2**70, 0]])
