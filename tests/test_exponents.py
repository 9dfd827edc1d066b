"""Exponent combinatorics: reduction, sums, footprints, hyperbolic sets."""

import itertools
import math

import numpy as np
import pytest

from mvdmm import exponents as ex
from mvdmm.errors import InfeasibleError, ParameterError, RangeError


def brute_hyp(q, l, f):
    return sorted(
        a for a in itertools.product(range(q), repeat=l)
        if math.prod(q - x for x in a) >= f
    )


def test_reduce_q_examples():
    assert ex.reduce_q(3, 5) == 3
    assert ex.reduce_q(7, 5) == 3
    assert ex.reduce_q(2, 2) == 1
    with pytest.raises(RangeError):
        ex.reduce_q(10, 5)
    with pytest.raises(RangeError):
        ex.reduce_q(-1, 5)


@pytest.mark.parametrize("q", [2, 3, 5, 8])
def test_reduce_q_properties(q):
    for a in range(q):
        assert ex.reduce_q(a, q) == a  # idempotent on [0, q)
    for a in range(q, 2 * q - 1):
        assert 1 <= ex.reduce_q(a, q) < q  # wraps into [1, q)
    with pytest.raises(RangeError):
        ex.reduce_q(2 * q - 1, q)  # unreachable from sums of reduced exponents


def test_minkowski_sum_examples():
    origin = ex.ExponentSet.of(5, 1, [(0,)])
    b = ex.ExponentSet.of(5, 1, [(0,), (2,), (3,)])
    assert ex.minkowski_sum_q(origin, b) == b

    a = ex.ExponentSet.of(5, 1, [(0,), (1,)])
    b = ex.ExponentSet.of(5, 1, [(0,), (2,)])
    s = ex.minkowski_sum_q(a, b)
    assert s.vectors == ((0,), (1,), (2,), (3,))
    assert len(s) == len(a) * len(b)

    c = ex.ExponentSet.of(2, 2, [(0, 1)])
    assert ex.minkowski_sum_q(c, c).vectors == ((0, 1),)  # (1+1)_2 = 1

    with pytest.raises(ParameterError):
        ex.minkowski_sum_q(a, ex.ExponentSet.of(7, 1, [(0,)]))


def brute_minkowski(a, b):
    return tuple(sorted({ex.reduce_q_vec([x + y for x, y in zip(u, v)], a.q) for u in a for v in b}))


def seeded_set(q, l, size, seed):
    """`size` distinct seeded vectors of [0, q)^l."""
    rng = np.random.default_rng(seed)
    vecs = set()
    while len(vecs) < size:
        vecs.add(tuple(rng.integers(0, q, size=l).tolist()))
    return ex.ExponentSet.of(q, l, vecs)


@pytest.mark.parametrize(
    "q, l, m, n",
    [
        (7, 3, 256, 256),  # 65,536 pairs
        (7, 3, 256, 257),  # 65,792 pairs
        (2, 6, 40, 40),
        (257, 2, 60, 70),  # entries above 255
        (300, 8, 300, 300),  # q^l >= 2^63
    ],
)
def test_minkowski_sum_matches_brute_force(q, l, m, n):
    a, b = seeded_set(q, l, m, seed=q + l), seeded_set(q, l, n, seed=q * l)
    got = ex.minkowski_sum_q(a, b)
    assert got.vectors == brute_minkowski(a, b)
    assert all(type(x) is int for v in got.vectors[:5] for x in v)


def test_minkowski_sum_with_an_empty_operand():
    empty = ex.ExponentSet.of(4, 3, [])
    full = seeded_set(4, 3, 20, seed=1)
    assert ex.minkowski_sum_q(empty, full) == empty
    assert ex.minkowski_sum_q(full, empty) == empty
    assert ex.minkowski_sum_q(empty, empty) == empty


def test_fb_examples():
    s = ex.ExponentSet.of(3, 2, [(0, 0)])
    assert ex.fb(s) == ex.FootprintValue(9, (0, 0))

    # box sums with per-coordinate counts (2, 2) x (6, 6) at q = 19
    d_a = ex.ExponentSet.of(19, 2, itertools.product(range(2), repeat=2))
    d_b = ex.ExponentSet.of(19, 2, [(2 * i, 2 * j) for i in range(6) for j in range(6)])
    summed = ex.minkowski_sum_q(d_a, d_b)
    assert ex.fb(summed).value == 64

    weights = [(1, 1, 1, 1, 0, 0, 0, 0, 0, 0), (1, 1, 0, 0, 0, 0, 0, 0, 0, 0)]
    s2 = ex.ExponentSet.of(2, 10, weights)
    assert ex.fb(s2).value == 2**6

    with pytest.raises(ParameterError):
        ex.fb(ex.ExponentSet.of(2, 1, []))


def test_fb_witness_is_lexicographically_least():
    # two members attain the minimum 4: (0,2) and (2,0); witness must be (0,2)
    s = ex.ExponentSet.of(3, 2, [(0, 2), (2, 0), (0, 0)])
    f = ex.fb(s)
    assert f.value == 3
    assert f.witness == (0, 2)


def test_delta_examples():
    assert ex.delta(ex.ExponentSet.of(3, 2, [(0, 0)])) == 0
    d_a = ex.ExponentSet.of(19, 2, itertools.product(range(2), repeat=2))
    d_b = ex.ExponentSet.of(19, 2, [(2 * i, 2 * j) for i in range(6) for j in range(6)])
    assert ex.delta(ex.minkowski_sum_q(d_a, d_b)) == 297


def test_hyp_set_examples():
    for f in (0, 1):
        assert len(ex.hyp_set(3, 2, f)) == 9
    s = ex.hyp_set(11, 2, 53)
    assert s.vectors == tuple(brute_hyp(11, 2, 53))
    for extreme in ((6, 0), (5, 2), (2, 5), (0, 6)):
        assert extreme in s
    assert (7, 0) not in s and (3, 5) not in s
    assert ex.hyp_set(5, 2, 25).vectors == ((0, 0),)


@pytest.mark.parametrize("q,l", [(2, 3), (3, 2), (5, 2), (7, 1), (4, 3)])
def test_hyp_set_matches_brute_force(q, l):
    for f in range(0, q**l + 2):
        assert list(ex.hyp_set(q, l, f)) == brute_hyp(q, l, f)


def test_hyp_size_examples():
    assert ex.hyp_size(7, 1, 3) == 5
    assert ex.hyp_size(2, 5, 8) == 16
    assert ex.hyp_size(2, 10, 16) == 848
    assert ex.hyp_size(2, 10, 64) == 386


def test_hyp2_size_examples():
    assert ex.hyp2_size(5, 4) == 26
    assert ex.hyp2_size(10, 512) == 11
    for l in (1, 4, 9):
        assert ex.hyp2_size(l, 1) == 2**l


def test_xi_bound_examples():
    assert ex.xi_bound(19, 2, 144) == 102
    assert ex.xi_bound(2, 20, 968 * 968) == 128
    for q, l in ((3, 2), (5, 1)):
        assert ex.xi_bound(q, l, 1) == q**l
    with pytest.raises(InfeasibleError):
        ex.xi_bound(3, 2, 10)
    with pytest.raises(ParameterError):
        ex.xi_bound(3, 2, 0)


def test_xi_bound_is_tight_against_enumeration():
    for q, l in ((3, 2), (5, 2), (4, 2)):
        for target in range(1, q**l + 1):
            xi = ex.xi_bound(q, l, target)
            assert len(brute_hyp(q, l, xi)) >= target
            assert xi == q**l or len(brute_hyp(q, l, xi + 1)) < target


def test_support_examples():
    assert ex.support(ex.ExponentSet.of(2, 3, [(0, 0, 0)])) == frozenset()
    assert ex.support(ex.ExponentSet.of(2, 2, [(0, 1), (0, 0)])) == frozenset({2})
    assert ex.support(ex.hyp_set(2, 3, 2)) == frozenset({1, 2, 3})


def test_hyp_nesting_monotonicity():
    big = set(ex.hyp_set(11, 2, 8))
    mid = set(ex.hyp_set(11, 2, 24))
    small = set(ex.hyp_set(11, 2, 53))
    assert small <= mid <= big


@pytest.mark.parametrize("q,l", [(2, 2), (3, 2), (4, 2), (5, 2), (3, 3)])
def test_hyp_set_is_maximal_for_its_footprint(q, l):
    box = set(itertools.product(range(q), repeat=l))
    for f in range(1, q**l + 1):
        s = ex.hyp_set(q, l, f)
        if len(s):
            assert ex.fb(s).value >= f
        for outsider in box - set(s):
            assert math.prod(q - x for x in outsider) < f


def test_vector_text_forms():
    assert ex.format_vec((0, 3, 1)) == "(0,3,1)"
    assert ex.parse_vec("(0,3,1)") == (0, 3, 1)
    assert ex.parse_vec("2,5") == (2, 5)
    s = ex.hyp_set(3, 2, 4)
    assert s.to_text().splitlines() == [ex.format_vec(v) for v in s]


def test_parse_vec_rejects_non_integers():
    with pytest.raises(ParameterError, match=r"\(1,x\)"):
        ex.parse_vec("(1,x)")


def test_exponent_set_rejects_out_of_range():
    with pytest.raises(RangeError):
        ex.ExponentSet.of(3, 2, [(0, 3)])
    with pytest.raises(ParameterError):
        ex.ExponentSet.of(3, 2, [(0, 1, 2)])


# ---------------------------------------------------------------------------
# the array-backed set against tuple references


def fb_oracle(s):
    """The per-vector loop: first minimum of prod(q - x) in lexicographic order."""
    best = None
    for v in sorted(s):
        value = math.prod(s.q - x for x in v)
        if best is None or value < best[0]:
            best = (value, v)
    return ex.FootprintValue(*best)


@pytest.mark.parametrize(
    "q, l, size, seed",
    [(2, 12, 300, 1), (3, 5, 200, 2), (5, 4, 400, 3), (19, 2, 100, 4), (257, 3, 500, 5)],
)
def test_fb_matches_per_vector_loop(q, l, size, seed):
    s = seeded_set(q, l, size, seed)
    assert ex.fb(s) == fb_oracle(s)
    summed = ex.minkowski_sum_q(s, seeded_set(q, l, 7, seed + 100))
    assert ex.fb(summed) == fb_oracle(summed)


def test_fb_tie_break_matches_per_vector_loop():
    # three members attain the minimum 1 * 3 * 3 = 9; the least one is the witness
    vecs = [(2, 0, 0), (1, 1, 0), (0, 2, 0), (0, 0, 0), (0, 0, 2)]
    s = ex.ExponentSet.of(3, 3, vecs)
    assert ex.fb(s) == fb_oracle(s) == ex.FootprintValue(9, (0, 0, 2))


def test_fb_is_exact_where_int64_would_wrap():
    s = seeded_set(300, 8, 300, seed=8)
    assert 300**8 >= 2**63
    got = ex.fb(s)
    assert got == fb_oracle(s)
    assert type(got.value) is int and all(type(x) is int for x in got.witness)
    origin = ex.ExponentSet.of(300, 8, [(0,) * 8])
    assert ex.fb(origin).value == 300**8  # above 2^63


def test_fb_of_an_empty_set_raises():
    with pytest.raises(ParameterError):
        ex.fb(ex.ExponentSet.of(300, 8, []))


@pytest.mark.parametrize("q, l", [(2, 1), (2, 4), (2, 9), (3, 1), (3, 3), (3, 5), (5, 2), (5, 4)])
def test_hyp_set_matches_product_filter(q, l):
    fs = sorted({0, 1, 2, q, q + 1, q**l // 3, q**l // 2, q**l - 1, q**l, q**l + 1})
    for f in fs:
        s = ex.hyp_set(q, l, f)
        assert s.vectors == tuple(
            a for a in itertools.product(range(q), repeat=l) if math.prod(q - x for x in a) >= f
        )
        assert s.rows.shape == (len(s), l) and s.rows.dtype == np.min_scalar_type(q - 1)


@pytest.mark.parametrize("q, l, size, seed", [(2, 6, 20, 1), (5, 3, 40, 2), (300, 4, 50, 3)])
def test_support_matches_tuple_scan(q, l, size, seed):
    s = seeded_set(q, l, size, seed)
    for t in (s, ex.ExponentSet.of(q, l, [v[:2] + (0,) * (l - 2) for v in s])):
        assert ex.support(t) == frozenset(i + 1 for v in t for i, x in enumerate(v) if x)


def test_exponent_set_matches_tuple_built_set():
    rng = np.random.default_rng(11)
    vecs = [tuple(v) for v in rng.integers(0, 7, size=(300, 3)).tolist()]
    s = ex.ExponentSet.of(7, 3, vecs)
    ref = sorted(set(vecs))
    assert list(s) == ref and s.vectors == tuple(ref) and len(s) == len(ref)
    assert all(type(x) is int for v in s for x in v)
    shuffled = ex.ExponentSet.of(7, 3, list(reversed(vecs)) + vecs[:50])
    assert shuffled == s and hash(shuffled) == hash(s)
    assert len({s, shuffled}) == 1
    assert ex.ExponentSet.of(7, 3, np.array(ref, dtype=np.int64)) == s
    assert s != ex.ExponentSet.of(7, 3, ref[1:])
    assert s != ex.ExponentSet.of(8, 3, ref)
    assert s != ref
    assert s.rows.dtype == np.uint8 and ex.ExponentSet.of(300, 1, [(299,)]).rows.dtype == np.uint16
    with pytest.raises(ValueError):
        s.rows[0, 0] = 1  # read-only


def test_sum_set_operations_build_no_tuples():
    q, l = 2, 20
    left = ex.hyp_set(q, 10, 1)  # all 1024 vectors
    right = ex.hyp_set(q, 10, 128)  # 176 vectors
    a = ex.ExponentSet.of(q, l, np.pad(left.rows, ((0, 0), (0, 10))))
    b = ex.ExponentSet.of(q, l, np.pad(right.rows, ((0, 0), (10, 0))))
    s = ex.minkowski_sum_q(a, b)
    again = ex.minkowski_sum_q(b, a)
    assert len(s) == 1024 * 176 >= 10**5
    assert s == again
    assert ex.fb(s) == ex.FootprintValue(128, (1,) * 10 + (0,) * 7 + (1,) * 3)
    for t in (left, right, a, b, s, again):
        assert "vectors" not in vars(t)


@pytest.mark.parametrize(
    "vectors, shown",
    [
        ([(1.5,), (True,)], r"\(1\.5,\)"),
        ([(1,), (True,)], r"\(True,\)"),
        ([("a",)], r"\('a',\)"),
        ([(0,), (1, 2)], r"\(1, 2\)"),
        ([(0,), 2], r"\b2\b"),
    ],
)
def test_exponent_set_rejects_non_integer_vectors(vectors, shown):
    with pytest.raises(ParameterError, match=shown):
        ex.ExponentSet.of(3, 1, vectors)


def test_exponent_set_rejects_non_integer_arrays():
    for arr in (np.array([[0.0, 1.0]]), np.array([[True, False]]), np.array([0, 1])):
        with pytest.raises(ParameterError):
            ex.ExponentSet.of(3, 2, arr)
    with pytest.raises(RangeError, match=r"\(0, 3\)"):
        ex.ExponentSet.of(3, 2, np.array([[0, 1], [0, 3]]))
    with pytest.raises(RangeError, match=r"\(1, 10{30}\)"):
        ex.ExponentSet.of(3, 2, [(0, 1), (1, 10**30)])
    assert ex.ExponentSet.of(3, 2, [(np.int64(2), np.uint8(1))]).vectors == ((2, 1),)


# ---------------------------------------------------------------------------
# grid-index storage at the int64 / Python-int boundary


def index_of(q, v):
    """Row-major grid index of v, in Python ints."""
    key = 0
    for x in v:
        key = key * q + x
    return key


def leading_top_vectors(q, l, size, seed):
    """`size` distinct seeded vectors, sorted; every other one starts with
    q - 1, so its index is at least (q - 1) q^(l-1) and sums with it wrap."""
    rng = np.random.default_rng(seed)
    vecs = set()
    while len(vecs) < size:
        v = rng.integers(0, q, size=l)
        if len(vecs) % 2 == 0:
            v[0] = q - 1
        vecs.add(tuple(v.tolist()))
    return sorted(vecs)


@pytest.mark.parametrize("q, l", [(5, 27), (2, 62), (2, 63), (300, 8)])
def test_index_storage_matches_tuples_across_the_int64_boundary(q, l):
    a_vecs, b_vecs = leading_top_vectors(q, l, 40, seed=l), leading_top_vectors(q, l, 30, seed=q + l)
    a = ex.ExponentSet.of(q, l, list(reversed(a_vecs)) + a_vecs[:5])
    b = ex.ExponentSet.of(q, l, np.array(b_vecs, dtype=np.int64))
    assert a.vectors == tuple(a_vecs) and b.vectors == tuple(b_vecs)
    assert a.index.tolist() == [index_of(q, v) for v in a_vecs]
    assert (a.index.dtype == object) == (q**l >= 2**63)
    if 2 * q**l > 2**63:  # the largest index sums pass 2^63 before their wrap correction
        assert max(a.index.tolist()) + max(b.index.tolist()) >= 2**63
    assert any(x + y >= q for u in a for v in b for x, y in zip(u, v))  # some coordinates wrap

    s = ex.minkowski_sum_q(a, b)
    assert s.vectors == brute_minkowski(a, b)
    assert s.index.tolist() == [index_of(q, v) for v in s.vectors]
    origin = ex.ExponentSet.of(q, l, [(0,) * l])
    assert ex.fb(origin).value == q**l
    for t in (a, b, s):
        assert ex.fb(t) == fb_oracle(t)
        assert t.rows.dtype == np.min_scalar_type(q - 1)
        with pytest.raises(ValueError):
            t.rows[0, 0] = 0  # read-only
        with pytest.raises(ValueError):
            t.index[0] = 0

    routes = [
        ex.ExponentSet.of(q, l, s.vectors),
        ex.ExponentSet.of(q, l, np.array(s.vectors[::-1], dtype=np.int64)),
        ex.minkowski_sum_q(b, a),
        ex.minkowski_sum_q(s, origin),
    ]
    for t in routes:
        assert t == s and hash(t) == hash(s) and t.index.dtype == s.index.dtype
    assert s != ex.ExponentSet.of(q, l, s.vectors[1:])


def test_minkowski_sum_merges_chunks(monkeypatch):
    a, b = seeded_set(7, 3, 60, seed=1), seeded_set(7, 3, 50, seed=2)
    whole = ex.minkowski_sum_q(a, b)
    monkeypatch.setattr(ex, "_SUM_CHUNK", 64)  # one A member per chunk
    chunked = ex.minkowski_sum_q(a, b)
    assert chunked == whole and chunked.vectors == brute_minkowski(a, b)


@pytest.mark.parametrize("q, l", [(2, 11), (2, 12), (2, 13), (16, 4), (64, 3)])
def test_hyp_set_across_run_edges(q, l):
    """At l that fill one run of coordinates exactly, or leave a short last
    run: sizes against the recurrence, members against a filter of the grid."""
    grid = np.indices((q,) * l).reshape(l, -1).T
    budgets = (q - grid).prod(axis=1)
    values = np.unique(budgets).tolist()
    for f in sorted({0, q**l + 1} | {v + e for v in values[:: max(1, len(values) // 30)] for e in (-1, 0, 1)}):
        s = ex.hyp_set(q, l, f)
        assert len(s) == ex.hyp_size(q, l, f), (q, l, f)
        assert np.array_equal(s.index, np.flatnonzero(budgets >= f)), (q, l, f)
