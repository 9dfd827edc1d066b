"""Degree-set constructions: boxes, expansions, hyperbolic families, matdot."""

import itertools
import math

import numpy as np
import pytest

from mvdmm import constructions as cons
from mvdmm import exponents as ex
from mvdmm.errors import (
    CapacityError,
    InfeasibleError,
    InternalConsistencyError,
    ParameterError,
    RangeError,
)


def test_box_poly_table_rows():
    sol = cons.box_poly(19, (2, 2), (6, 6))
    assert (sol.m, sol.n) == (4, 36)
    assert sol.footprint.value == 64
    assert sol.recovery_threshold == 298
    assert sol.xi == 102

    sol = cons.box_poly(25, (3, 3), (5, 5))
    assert (sol.m, sol.n) == (9, 25)
    assert sol.footprint.value == 121
    assert sol.recovery_threshold == 505

    trivial = cons.box_poly(7, (1, 1), (1, 1))
    assert (trivial.m, trivial.n) == (1, 1)
    assert trivial.footprint.value == 49
    assert trivial.recovery_threshold == 1


def test_box_poly_constraint_error_names_coordinate():
    with pytest.raises(ParameterError, match="coordinate 2"):
        cons.box_poly(5, (1, 3), (1, 2))


def test_expand_db_reproduces_box():
    d_a = ex.ExponentSet.of(19, 2, itertools.product(range(2), repeat=2))
    d_b_prime = ex.ExponentSet.of(19, 2, itertools.product(range(6), repeat=2))
    expanded = cons.expand_db(19, d_a, d_b_prime)
    boxed = cons.box_poly(19, (2, 2), (6, 6))
    assert expanded.d_a == boxed.d_a
    assert expanded.d_b == boxed.d_b
    assert expanded.footprint == boxed.footprint


def test_expand_db_singleton_and_small_case():
    origin = ex.ExponentSet.of(5, 2, [(0, 0)])
    d_b_prime = ex.ExponentSet.of(5, 2, [(0, 0), (1, 2), (2, 1)])
    sol = cons.expand_db(5, origin, d_b_prime)
    assert sol.d_b == d_b_prime  # expansion vector is all ones

    d_a = ex.ExponentSet.of(5, 2, [(0, 0), (1, 1)])
    d_b_prime = ex.ExponentSet.of(5, 2, [(0, 0), (1, 0)])
    sol = cons.expand_db(5, d_a, d_b_prime)
    assert sol.d_b == ex.ExponentSet.of(5, 2, [(0, 0), (2, 0)])
    assert sol.sum_size == 4
    # brute-force distinctness of the four pairwise sums
    sums = {tuple(x + y for x, y in zip(a, b)) for a in sol.d_a for b in sol.d_b}
    assert len(sums) == 4


def test_expand_db_hypothesis_violation():
    d_a = ex.ExponentSet.of(5, 1, [(0,), (2,)])
    d_b_prime = ex.ExponentSet.of(5, 1, [(0,), (1,)])
    # expansion vector is (3,), so 2 + 3 * 1 = 5 >= q
    with pytest.raises(ParameterError, match="coordinate 1"):
        cons.expand_db(5, d_a, d_b_prime)
    # one step further the expanded member 3 * 2 = 6 would itself leave [0, 5):
    # the same hypothesis error, not a RangeError about a vector never passed
    d_a = ex.ExponentSet.of(5, 1, [(0,), (1,), (2,)])
    d_b_prime = ex.ExponentSet.of(5, 1, [(0,), (2,)])
    with pytest.raises(ParameterError, match="coordinate 1 violates max"):
        cons.expand_db(5, d_a, d_b_prime)


def test_better_box_table_rows():
    sol = cons.better_box(19, (2, 2), 64)
    assert sol.n == 48
    assert sol.footprint.value >= 64
    assert sol.recovery_threshold <= 298

    assert cons.better_box(25, (2, 2), 100).n == 84

    hyp_like = cons.better_box(7, (1, 1), 10)
    assert hyp_like.d_b == ex.hyp_set(7, 2, 10)


def test_db_size_examples():
    assert cons.db_size(19, (2,), 4) == 8
    assert cons.db_size(19, (2, 2), 64) == 48
    assert cons.db_size(25, (5, 5), 121) == 11


@pytest.mark.parametrize("q", [3, 4, 5, 7])
def test_db_size_matches_enumeration(q):
    for l in (1, 2):
        for mvec in itertools.product(range(1, q), repeat=l):
            for f in range(0, q**l + 2):
                assert cons.db_size(q, mvec, f) == len(cons.db_set(q, mvec, f))


def test_better_box_at_least_as_good_as_box():
    for q, mi, ni in ((19, 2, 6), (25, 3, 5), (11, 2, 3), (9, 2, 4)):
        box = cons.box_poly(q, (mi, mi), (ni, ni))
        better = cons.better_box(q, (mi, mi), box.footprint.value)
        assert better.n >= box.n
        assert better.footprint.value >= box.footprint.value


def test_sep_vars_table_rows():
    sol = cons.sep_vars(2, 5, 5, 8, 8)
    assert (sol.m, sol.n) == (16, 16)
    assert sol.recovery_threshold == 961

    sol = cons.sep_vars(2, 10, 10, 64, 64)
    assert sol.m == 386
    assert sol.recovery_threshold == 1044481

    sol = cons.sep_vars(64, 1, 1, 32, 32)
    assert sol.m == 33
    assert sol.recovery_threshold == 3073


def test_sep_vars_structural_shortcut_matches_enumeration():
    # small instance where both the factored footprint and the full pairwise
    # scan are affordable; they must agree
    sol = cons.sep_vars(3, 2, 2, 3, 3)
    summed = sol.sum_set()
    assert len(summed) == sol.m * sol.n
    assert ex.fb(summed) == sol.footprint


def test_poly_solution_rejects_colliding_sums():
    d = ex.ExponentSet.of(5, 2, [(0, 0), (0, 1)])  # (0,0)+(0,1) and (0,1)+(0,0) collide
    with pytest.raises(InternalConsistencyError, match=r"colliding sums: \|sum\| = 3, expected 4"):
        cons._poly_solution(5, 2, d, d, design_footprint=1)


def test_sep_vars_forms_the_sum_up_to_the_enumeration_limit(monkeypatch):
    sizes = []

    def spy(a, b):
        summed = ex.minkowski_sum_q(a, b)
        sizes.append(len(summed))
        return summed

    monkeypatch.setattr(cons, "minkowski_sum_q", spy)
    sol = cons.sep_vars(2, 10, 10, 64, 64)
    assert sol.m * sol.n == 148_996 <= cons._SUM_ENUM_LIMIT
    assert sizes == [148_996] and sol.sum_size == 148_996
    assert sol.footprint.value == 4096
    wide = cons.sep_vars(2, 10, 10, 4, 4)  # 1013^2 pairs: the structural shortcut
    assert wide.m * wide.n > cons._SUM_ENUM_LIMIT and sizes == [148_996]


def test_box_matdot_examples():
    sol = cons.box_matdot(8, (4, 4, 4))
    assert sol.m == 64
    assert sol.footprint.value == 8
    assert sol.recovery_threshold == 505
    assert ex.fb(sol.sum_set()).value == 8  # explicit cross-check

    classic = cons.box_matdot(5, (3,))
    assert classic.m == 3
    assert classic.footprint.value == 1
    assert classic.recovery_threshold == 5

    with pytest.warns(UserWarning):
        trivial = cons.box_matdot(7, (1, 1))
    assert trivial.m == 1
    assert trivial.footprint.value == 49
    assert trivial.recovery_threshold == 1


def test_box_matdot_constraint():
    with pytest.raises(ParameterError, match="coordinate 1"):
        cons.box_matdot(2, (2,))
    with pytest.raises(ParameterError):
        cons.box_matdot(8, (4, 5, 4))


def test_half_hyperbolic_table_rows():
    corner = cons.corner_degree(8, 3)
    assert corner == (3, 3, 3)
    sol = cons.half_hyperbolic(8, 3, 17, corner)
    assert sol.m == 56
    assert sol.design_threshold == 496
    assert sol.footprint.value >= 17

    sol = cons.half_hyperbolic(32, 3, 513, cons.corner_degree(32, 3))
    assert sol.m == 3044
    assert sol.design_threshold == 32256

    sol = cons.half_hyperbolic(8, 3, 1, (3, 3, 3))
    assert sol.m == 64
    assert sol.design_threshold == 512


def _pairs(sol):
    """The matched (a, b) couples of a matdot solution, from its block order."""
    return tuple(
        tuple(ex.vector_at(sol.q, sol.l, key) for key in keys) for keys in zip(*sol.block_order)
    )


def test_half_hyperbolic_pairs_are_matched():
    sol = cons.half_hyperbolic(8, 2, 9, (3, 2))
    pairs = _pairs(sol)
    assert len(pairs) == sol.m
    for a, b in pairs:
        assert tuple(x + y for x, y in zip(a, b)) == sol.degree_target
    assert {a for a, _ in pairs} == set(sol.d_a.vectors)
    assert {b for _, b in pairs} == set(sol.d_b.vectors)


def test_half_hyperbolic_reduces_to_box_at_f_zero():
    box = cons.box_matdot(9, (3, 2))
    half = cons.half_hyperbolic(9, 2, 0, (2, 1))
    assert half.d_a == box.d_a
    assert half.footprint == box.footprint
    assert half.design_footprint == box.design_footprint


def test_d_size_examples():
    assert cons.d_size(8, 2, 2, (3,)) == 4  # members 0..3
    corner = cons.corner_degree(8, 3)
    assert cons.d_size(8, 57, 57, corner) == 26
    assert cons.d_size(8, 17, 17, corner) == 56


@pytest.mark.parametrize("q", [2, 4, 5, 7, 8])
def test_d_size_matches_enumeration(q):
    half = -(-q // 2)
    for l in (1, 2):
        for d in itertools.product(range(half), repeat=l):
            vals = {math.prod(q - 2 * x for x in a)
                    for a in itertools.product(*[range(x + 1) for x in d])}
            grid = sorted({0, 1, q**l, q**l + 1} | vals | {v + 1 for v in vals})
            for f in grid:
                for g in grid:
                    assert cons.d_size(q, f, g, d) == len(cons.half_hyp_set(q, f, g, d))


def test_search_best_d():
    d, m = cons.search_best_d(8, 3, 9)
    assert m == 62
    for q, l in ((8, 2), (5, 3)):
        d, m = cons.search_best_d(q, l, 1)
        half = -(-q // 2)
        assert d == cons.corner_degree(q, l)
        assert m == half**l
    with pytest.raises(CapacityError):
        cons.search_best_d(32, 5, 1, limit=10**4)


def test_search_best_d_can_beat_the_corner():
    # the bundled tables pin the corner degree; the exhaustive search finds
    # strictly larger sets for some footprints
    corner_m = cons.d_size(8, 57, 57, cons.corner_degree(8, 3))
    _, best_m = cons.search_best_d(8, 3, 57)
    assert corner_m == 26
    assert best_m == 30


def test_validate_poly():
    sol = cons.box_poly(19, (5, 5), (2, 2))
    report = cons.validate_poly(sol.d_a, sol.d_b)
    assert report.ok
    assert report.footprint.value == 100
    assert report.xi == 143
    assert report.bound_ok

    bad_a = ex.ExponentSet.of(5, 1, [(0,), (1,)])
    bad = cons.validate_poly(bad_a, bad_a)
    assert not bad.ok
    assert bad.sum_size == 3 < bad.expected_size == 4
    assert bad.collisions


def test_matdot_q2_closed_form():
    # full-support binary solutions are useless: footprint 1
    d_a = ex.ExponentSet.of(2, 3, [(1, 0, 0), (0, 1, 1)])
    sol = cons.matdot_from_sets(2, 3, d_a, d_a, (1, 1, 1))
    assert cons.matdot_q2_fb(sol).value == 1
    assert sol.recovery_threshold == 2**3

    with pytest.warns(UserWarning):
        trivial = cons.matdot_from_sets(2, 4, ex.ExponentSet.of(2, 4, [(0,) * 4]),
                                        ex.ExponentSet.of(2, 4, [(0,) * 4]), (0,) * 4)
    assert cons.matdot_q2_fb(trivial).value == 2**4

    with pytest.warns(UserWarning):
        partial = cons.matdot_from_sets(
            2, 3,
            ex.ExponentSet.of(2, 3, [(1, 0, 0), (0, 1, 0)]),
            ex.ExponentSet.of(2, 3, [(1, 0, 0), (0, 1, 0)]),
            (1, 1, 0),
        )
    assert cons.matdot_q2_fb(partial).value == 2  # support size 2 of 3

    nonbinary = cons.box_matdot(5, (2,))
    with pytest.raises(ParameterError):
        cons.matdot_q2_fb(nonbinary)


def test_matdot_from_sets_rejects_bad_pairings():
    d_a = ex.ExponentSet.of(5, 1, [(0,), (1,)])
    d_b = ex.ExponentSet.of(5, 1, [(0,), (3,)])
    with pytest.raises(ParameterError):
        cons.matdot_from_sets(5, 1, d_a, d_b, (1,))


def test_matdot_pairs_match_a_tuple_scan_with_wrapping_sums():
    q = 5
    d_a = ex.ExponentSet.of(q, 2, [(0, 0), (2, 4), (3, 1)])
    d_b = ex.ExponentSet.of(q, 2, [(1, 2), (2, 1), (3, 2)])
    d = (1, 2)
    sol = cons.matdot_from_sets(q, 2, d_a, d_b, d)
    scan = tuple(
        (a, b) for a in d_a for b in d_b
        if ex.reduce_q_vec([x + y for x, y in zip(a, b)], q) == d
    )
    assert _pairs(sol) == scan == (((0, 0), (1, 2)), ((2, 4), (3, 2)), ((3, 1), (2, 1)))
    # a target outside [0, q) is hit by no reduced sum, though its index would be
    with pytest.raises(ParameterError, match="0 pairs sum to the target degree, need exactly 1"):
        cons.matdot_from_sets(q, 2, ex.ExponentSet.of(q, 2, [(0, 0)]),
                              ex.ExponentSet.of(q, 2, [(1, 0)]), (0, q))


def test_normalization_translates_to_axes():
    shifted = ex.ExponentSet.of(7, 2, [(1, 2), (2, 3)])
    d_b_prime = ex.ExponentSet.of(7, 2, [(0, 0), (1, 1)])
    sol = cons.expand_db(7, shifted, d_b_prime)
    assert min(v[0] for v in sol.d_a) == 0
    assert min(v[1] for v in sol.d_a) == 0


def test_expand_db_translates_d_b_after_its_range_check():
    d_a = ex.ExponentSet.of(11, 2, [(1, 2), (2, 3)])
    d_b_prime = ex.ExponentSet.of(11, 2, [(1, 1), (2, 1), (1, 3)])  # D_B = {(2,2),(4,2),(2,6)}
    sol = cons.expand_db(11, d_a, d_b_prime)
    assert sol.d_a.vectors == ((0, 0), (1, 1))
    assert sol.d_b.vectors == ((0, 0), (0, 4), (2, 0))
    assert sol.footprint == ex.FootprintValue(60, (1, 5))
    with pytest.raises(InfeasibleError):
        cons.expand_db(11, d_a, ex.ExponentSet.of(11, 2, []))


def test_project_zero_coords():
    with pytest.warns(UserWarning):
        sol = cons.half_hyperbolic(8, 3, 2, (3, 0, 2))
    assert sol.removable_coords == (2,)
    projected = cons.project_zero_coords(sol)
    assert projected.l == 2
    assert projected.degree_target == (3, 2)
    assert projected.m == sol.m
    assert projected.footprint.value * 8 == sol.footprint.value


def test_build_descriptors():
    assert cons.build("poly-box m=2,2 n=6,6", 19).recovery_threshold == 298
    assert cons.build("better-box m=2,2 F=64", 19).n == 48
    assert cons.build("sep-vars mprime=5 nprime=5 F=8", 2).m == 16
    assert cons.build("sep-vars mprime=5 nprime=5 FA=8 FB=8", 2).m == 16
    assert cons.build("matdot-box m=4,4,4", 8).m == 64
    assert cons.build("matdot-half l=3 F=17 d=corner", 8).m == 56
    assert cons.build("matdot-half l=3 F=9 d=best", 8).m == 62
    assert cons.build("matdot-half l=3 F=17 d=3,3,3", 8).m == 56
    with pytest.raises(ParameterError, match="unknown construction kind 'nope'"):
        cons.build("nope", 2)
    with pytest.raises(ParameterError, match="empty construction descriptor"):
        cons.build("  ", 2)
    with pytest.raises(ParameterError, match="better-box needs parameter 'F'"):
        cons.build("better-box m=2,2", 19)
    with pytest.raises(ParameterError, match="bad construction parameter 'oops'"):
        cons.build("poly-box m=2,2 oops n=6,6", 19)


@pytest.mark.parametrize("descriptor, q, key", [
    ("poly-box m=2,2 n=6,6 extra=1", 19, "extra"),
    ("poly-box m=2,2 n=6,6 F=9", 19, "F"),  # a key of another kind
    ("sep-vars mprime=5 nprime=5 F=8 FA=3", 2, "FA"),  # F and FA conflict
    ("matdot-box m=2,2 d=corner", 8, "d"),
])
def test_build_rejects_an_unused_key(descriptor, q, key):
    with pytest.raises(ParameterError, match=rf"unused parameters for \S+: \['{key}'\]"):
        cons.build(descriptor, q)


def test_build_rejects_a_repeated_key():
    assert cons.build("sep-vars mprime=2 nprime=2 F=2", 2).design_footprint == 4
    with pytest.raises(ParameterError, match="'F' given twice"):
        cons.build("sep-vars mprime=2 nprime=2 F=2 F=4", 2)
    with pytest.raises(ParameterError, match="'m' given twice"):
        cons.build("poly-box m=2,2 n=6,6 m=2,2", 19)


def test_build_rejects_non_integer_parameter():
    with pytest.raises(ParameterError, match="F='x'"):
        cons.build("better-box m=2 F=x", 5)
    with pytest.raises(ParameterError, match=r"\(2,x\)"):
        cons.build("poly-box m=(2,x) n=2", 5)


def test_xi_bound_enforced_at_construction():
    # every emitted solution records its hyperbolic bound and respects it
    for sol in (
        cons.box_poly(19, (2, 2), (6, 6)),
        cons.better_box(25, (2, 2), 100),
        cons.sep_vars(2, 5, 5, 8, 8),
        cons.box_matdot(8, (4, 4, 4)),
        cons.half_hyperbolic(8, 3, 33, (3, 3, 3)),
    ):
        assert sol.footprint.value <= sol.xi


def test_pairwise_budget_equivalence_sampled_wide():
    """min pairwise sum budget == min doubled-member budget: all singletons and
    pairs for q <= 9, l <= 3, plus seeded random subsets of size <= 4."""
    import numpy as np

    rng = np.random.default_rng(99)
    for q in range(2, 10):
        half = -(-q // 2)
        for l in (1, 2, 3):
            box = list(itertools.product(range(half), repeat=l))
            n = len(box)
            pair_fb = [[math.prod(q - x - y for x, y in zip(a, b)) for b in box]
                       for a in box]
            def equiv(idx):
                diag = min(pair_fb[i][i] for i in idx)
                full = min(pair_fb[i][j] for i in idx for j in idx)
                assert full == diag, (q, l, idx)
            for i in range(n):
                equiv([i])
            for i, j in itertools.combinations(range(n), 2):
                equiv([i, j])
            samples = 10_000 // (8 * 3)  # spread the budget over the grid
            for _ in range(samples):
                size = int(rng.integers(3, 5))
                equiv(sorted(rng.choice(n, size=min(size, n), replace=False).tolist()))


def test_budget_region_midpoint_convexity():
    """Integer midpoints of same-parity members of a hyperbolic set stay in it."""
    for q, l, f in ((7, 2, 10), (9, 2, 25), (5, 3, 12), (11, 2, 53)):
        members = list(ex.hyp_set(q, l, f))
        for a, b in itertools.combinations(members, 2):
            if all((x + y) % 2 == 0 for x, y in zip(a, b)):
                mid = tuple((x + y) // 2 for x, y in zip(a, b))
                assert math.prod(q - x for x in mid) >= f, (q, l, f, a, b)


def seeded_vectors(q, l, size, seed, low=0):
    rng = np.random.default_rng(seed)
    return [tuple(v) for v in rng.integers(low, q, size=(size, l)).tolist()]


@pytest.mark.parametrize(
    "q, k, seed", [(11, (1, 3), 1), (64, (2, 1, 4), 2), (300, (5, 1, 2, 3), 3)]
)
def test_star_matches_tuple_products(q, k, seed):
    l = len(k)
    vecs = seeded_vectors(q // max(k), l, 60, seed)
    got = cons._star(k, ex.ExponentSet.of(q, l, vecs))
    assert got.vectors == tuple(sorted({tuple(ki * x for ki, x in zip(k, v)) for v in vecs}))
    with pytest.raises(RangeError):
        cons._star(k, ex.ExponentSet.of(q, l, [(q - 1,) * l]))


@pytest.mark.parametrize(
    "q, l, low, seed", [(7, 2, 2, 1), (19, 3, 4, 2), (300, 4, 100, 3), (5, 3, 0, 4)]
)
def test_translate_matches_tuple_shift(q, l, low, seed):
    vecs = seeded_vectors(q, l, 40, seed, low=low)
    s = ex.ExponentSet.of(q, l, vecs)
    mins = [min(v[i] for v in vecs) for i in range(l)]
    want = tuple(sorted({tuple(x - m for x, m in zip(v, mins)) for v in vecs}))
    shifted = cons._translate(s)
    assert shifted.vectors == want
    assert cons._translate(shifted) is shifted


# ---------------------------------------------------------------------------
# budget sets against the per-candidate loops they replaced, kept verbatim


def ref_db_set(q, mvec, f):
    mvec = tuple(mvec)
    f = max(1, f)
    l = len(mvec)
    qs = [q - mi + 1 for mi in mvec]
    ranges = [range(0, (qi - 1) // mi + 1) for qi, mi in zip(qs, mvec)]
    out = [
        tuple(mi * bi for mi, bi in zip(mvec, b))
        for b in itertools.product(*ranges)
        if math.prod(qi - mi * bi for qi, mi, bi in zip(qs, mvec, b)) >= f
    ]
    return ex.ExponentSet.of(q, l, out)


def ref_half_hyp_set(q, f, g, degree_target):
    d = tuple(degree_target)
    f, g = max(1, f), max(1, g)
    out = []
    for a in itertools.product(*[range(x + 1) for x in d]):
        if math.prod(q - 2 * x for x in a) >= f and math.prod(
            q - 2 * (dx - x) for dx, x in zip(d, a)
        ) >= g:
            out.append(a)
    return out


def ref_box(q, l, upper):
    return ex.ExponentSet.of(q, l, itertools.product(*[range(u) for u in upper]))


REF_QS = [2, 3, 4, 5, 7, 8, 9, 16, 19, 23, 25, 32]


def floors_around(values, most):
    """Each distinct value with its neighbours -1 and +1; above `most` distinct
    values, `most` of them evenly spaced, the least and the largest included."""
    values = sorted(set(values))
    if len(values) > most:
        values = [values[round(i * (len(values) - 1) / (most - 1))] for i in range(most)]
    return sorted({v + e for v in values for e in (-1, 0, 1)})


def corners(q, l, low, high):
    """Vectors over {low, q // 2, high} in [low, high]: every value for l = 1."""
    if l == 1:
        return [(x,) for x in range(low, high + 1)]
    return list(itertools.product(sorted({low, q // 2, high} & set(range(low, high + 1))), repeat=l))


@pytest.mark.parametrize("q", REF_QS)
def test_db_set_matches_the_candidate_loop(q):
    """Every m for l = 1, the corner vectors with at most 1024 candidates above."""
    for l in (1, 2, 3):
        for mvec in corners(q, l, 1, q - 1):
            ranges = [range((q - mi) // mi + 1) for mi in mvec]
            if math.prod(map(len, ranges)) > 1024:
                continue
            grid = [math.prod(q - mi + 1 - mi * bi for mi, bi in zip(mvec, b))
                    for b in itertools.product(*ranges)]
            for f in floors_around(grid, max(2, min(40, 1500 // len(grid)))):
                got = cons.db_set(q, mvec, f)
                assert got == ref_db_set(q, mvec, f), (q, mvec, f)


@pytest.mark.parametrize("q", REF_QS)
def test_half_hyp_set_matches_the_candidate_loop(q):
    half = -(-q // 2)
    for l in (1, 2, 3):
        for d in corners(q, l, 0, half - 1):
            box = list(itertools.product(*[range(x + 1) for x in d]))
            most = max(2, min(30, 800 // len(box)))
            fs = floors_around([math.prod(q - 2 * x for x in a) for a in box], most)
            gs = floors_around([math.prod(q - 2 * (dx - x) for dx, x in zip(d, a)) for a in box], most)
            pairs = [(f, g) for f in fs for g in (0, gs[len(gs) // 2])]
            pairs += [(f, g) for g in gs for f in (0, fs[len(fs) // 2])]
            for f, g in pairs:
                got = cons.half_hyp_set(q, f, g, d)
                assert got.vectors == tuple(ref_half_hyp_set(q, f, g, d)), (q, d, f, g)


@pytest.mark.parametrize("q", REF_QS)
def test_box_matches_the_product_loop(q):
    for l in (1, 2, 3):
        for upper in corners(q, l, 1, q):
            assert cons._box(q, upper) == ref_box(q, l, upper), (q, upper)


def test_l_below_one_is_a_parameter_error():
    for call in (
        lambda: cons.corner_degree(5, 0),
        lambda: cons.corner_degree(5, -1),
        lambda: cons.search_best_d(5, 0, 1),
        lambda: cons.d_size(5, 1, 1, ()),
        lambda: cons.half_hyp_set(5, 1, 1, ()),
        lambda: cons.half_hyperbolic(5, 0, 1, ()),
        lambda: cons.build("matdot-half l=0 F=1 d=corner", 5),
        lambda: cons.build("matdot-half l=0 F=1 d=best", 5),
    ):
        with pytest.raises(ParameterError, match="l >= 1"):
            call()
    with pytest.raises(ParameterError, match="empty block-count vector"):
        cons.box_poly(5, (), ())


def test_half_hyp_set_checks_its_target():
    # d_i = 3 >= q/2: the factors q - 2a_i go negative, and (-1)(-1) would pass
    with pytest.raises(ParameterError, match="coordinate 1"):
        cons.half_hyp_set(5, 1, 1, (3, 3))
    with pytest.raises(ParameterError, match="coordinate 2"):
        cons.half_hyp_set(5, 1, 1, (2, -1))
