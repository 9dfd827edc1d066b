"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Every check here is exact (integer/field equality); the elapsed time printed
with each PASS line is informational.  Run with `pytest -s tests/test_acceptance.py`
to see the lines as they complete.
"""

import itertools
import math
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np

from mvdmm import codec, constructions as cons, exponents as ex, simulator, tables
from mvdmm.field import FieldSpec
from mvdmm.simulator import SimConfig, StragglerModel


@contextmanager
def criterion(num, label):
    t0 = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"FAIL criterion {num}: {label}")
        raise
    print(f"PASS criterion {num}: {label} ({time.perf_counter() - t0:.1f}s)")


def decoder_ops(stats):
    """Multiplicative field ops, or XOR row ops for the binary field."""
    return (stats.mult_ops + stats.inversions) or stats.add_ops


# ---------------------------------------------------------------------------


def test_c01_table_reproduction():
    with criterion(1, "tables T1-T8 match the bundled golden copies cell-for-cell"):
        for ident in tables.TABLE_IDS:
            spec, rows = tables.generate(ident)
            diffs = tables.diff_cells(tables.golden_text(ident), tables.render(spec, rows))
            assert not diffs, f"{ident}: {diffs[:5]}"
        # spot probes quoted directly by the criterion
        t1 = dict()
        _, rows = tables.generate("T1")
        row5 = next(r for r in rows if r[0] == 5)
        assert row5[5] == 100 and row5[6] == 143 and row5[8] == 262
        _, rows = tables.generate("T5")
        row32 = next(r for r in rows if r[0] == 32)
        assert row32[1] == 33 and row32[4] == 3073
        _, rows = tables.generate("T7")
        row33 = next(r for r in rows if r[0] == 33)
        assert row33[1] == 38 and row33[2] == 480


def test_c02_recurrence_enumeration_equivalence():
    with criterion(2, "size recurrences equal enumeration on the full grids"):
        # hyperbolic sizes: q <= 8, l <= 4, every F
        for q in range(2, 9):
            for l in range(1, 5):
                vals = np.sort(np.array([
                    math.prod(q - x for x in a)
                    for a in itertools.product(range(q), repeat=l)
                ]))
                n = vals.size
                for f in range(0, q**l + 2):
                    enum = n - int(np.searchsorted(vals, f, side="left"))
                    assert ex.hyp_size(q, l, f) == enum, (q, l, f)

        # expanded-set sizes: q <= 9, l <= 3, every block-count vector.  Both
        # sides are nonincreasing step functions of F stepping only just past
        # achievable products, so agreement at {v, v+1} for every achievable v
        # (plus the ends) implies agreement for every F.
        for q in range(2, 10):
            for l in range(1, 4):
                for mvec in itertools.product(range(1, q), repeat=l):
                    qs = [q - m + 1 for m in mvec]
                    prods = sorted({
                        math.prod(qi - mi * bi for qi, mi, bi in zip(qs, mvec, b))
                        for b in itertools.product(
                            *[range((qi - 1) // mi + 1) for qi, mi in zip(qs, mvec)])
                    })
                    grid = sorted({0, 1, q**l, q**l + 1}
                                  | set(prods) | {v + 1 for v in prods})
                    for f in grid:
                        assert cons.db_size(q, mvec, f) == len(cons.db_set(q, mvec, f)), \
                            (q, mvec, f)

        # matdot-set sizes: q <= 9, l <= 3, every target degree, F x G grid on
        # the same breakpoint argument applied per coordinate.
        for q in range(2, 10):
            half = -(-q // 2)
            for l in range(1, 4):
                for d in itertools.product(range(half), repeat=l):
                    members = list(itertools.product(*[range(x + 1) for x in d]))
                    v1 = np.array([math.prod(q - 2 * x for x in a) for a in members])
                    v2 = np.array([
                        math.prod(q - 2 * (dx - x) for dx, x in zip(d, a))
                        for a in members
                    ])
                    prods = sorted(set(v1.tolist()))
                    grid = sorted({0, 1, q**l, q**l + 1}
                                  | set(prods) | {v + 1 for v in prods})
                    for f in grid:
                        mask1 = v1 >= f
                        for g in grid:
                            enum = int(np.count_nonzero(mask1 & (v2 >= g)))
                            assert cons.d_size(q, f, g, d) == enum, (q, d, f, g)


def test_c03_binary_hyperbolic_closed_form():
    with criterion(3, "binary hyperbolic closed form equals the recurrence"):
        for l in range(1, 17):
            for f in range(0, 2**l + 2):
                assert ex.hyp2_size(l, f) == ex.hyp_size(2, l, f), (l, f)


def _monomial_values(q, l):
    pts = list(itertools.product(range(q), repeat=l))
    exps = pts
    m = np.zeros((len(exps), len(pts)), dtype=np.int64)
    for i, e in enumerate(exps):
        for j, p in enumerate(pts):
            v = 1
            for pc, ec in zip(p, e):
                v = (v * pow(pc, ec, q)) % q if ec else v
            m[i, j] = v
    return pts, m


def _check_spaces(q, l, pts, m_full, supports):
    """Every nonzero combination of the chosen monomials has at most
    q^l - min prod(q - s_i) zeros; exhaustive over coefficient vectors."""
    n_pts = len(pts)
    for sup in supports:
        sup = list(sup)
        dim = len(sup)
        bound = q**l - min(math.prod(q - x for x in pts[i]) for i in sup)
        coeffs = np.array(list(itertools.product(range(q), repeat=dim)), dtype=np.int64)
        values = (coeffs @ m_full[sup]) % q
        zero_counts = np.count_nonzero(values == 0, axis=1)
        assert int(zero_counts[1:].max(initial=0)) <= bound, (q, l, sup)


def test_c04_footprint_bound_at_desk_scale():
    with criterion(4, "no monomial-span function exceeds its footprint zero bound"):
        rng = np.random.default_rng(404)
        for q in (2, 3):
            for l in (1, 2, 3):
                pts, m_full = _monomial_values(q, l)
                n = len(pts)
                max_dim = min(6, n)
                if q == 3 and l == 3:
                    # all spans of dimension <= 3, plus seeded samples above
                    supports = [
                        s for dim in range(1, 4)
                        for s in itertools.combinations(range(n), dim)
                    ]
                    for dim in (4, 5, 6):
                        for _ in range(700):
                            supports.append(tuple(
                                sorted(rng.choice(n, size=dim, replace=False).tolist())))
                else:
                    supports = [
                        s for dim in range(1, max_dim + 1)
                        for s in itertools.combinations(range(n), dim)
                    ]
                _check_spaces(q, l, pts, m_full, supports)


def _prepare_gf2_sepvars():
    spec = FieldSpec(2)
    sol = cons.sep_vars(2, 5, 5, 8, 8)
    rng = np.random.Generator(np.random.PCG64(505))
    a = codec.random_matrix(spec, 8, 32, rng)
    b = codec.random_matrix(spec, 32, 8, rng)
    sa, sb = codec.split(a, b, "poly", sol.m, sol.n)
    enc_a = codec.encode(sa, sol.d_a)
    enc_b = codec.encode(sb, sol.d_b)
    points = np.arange(2**10)
    system = codec.build_system(spec, sol.sum_set(), points)
    responses = [codec.worker_compute(p) for p in codec.make_payloads(enc_a, enc_b, points)]
    oracle = codec.matmul(a, b)
    return sol, sa, sb, system, responses, oracle, rng


def test_c05_end_to_end_gf2():
    with criterion(5, "GF(2) separated-variables scheme: 400 subset decodes exact"):
        sol, sa, sb, system, responses, oracle, rng = _prepare_gf2_sepvars()
        k1 = sol.recovery_threshold
        assert k1 == 961 and system.kappa == 256
        budget = 3 * (system.kappa**3 + system.kappa * k1)
        worst = 0
        for trial in range(200):
            subset = rng.choice(1024, size=k1, replace=False)
            interp = codec.interpolate(system, [responses[int(i)] for i in subset])
            got = codec.extract_poly(interp, sol, sa, sb)
            assert got == oracle, f"random subset trial {trial}"
            worst = max(worst, decoder_ops(interp.stats))
        for trial in range(200):
            drops = set(rng.choice(1024, size=63, replace=False).tolist())
            survivors = [responses[i] for i in range(1024) if i not in drops]
            assert len(survivors) == 961
            interp = codec.interpolate(system, survivors)
            got = codec.extract_poly(interp, sol, sa, sb)
            assert got == oracle, f"adversarial drop trial {trial}"
            worst = max(worst, decoder_ops(interp.stats))
        assert worst <= budget, f"decoder op count {worst} exceeds 3x contract {budget}"


def test_c06_end_to_end_matdot_gf8():
    with criterion(6, "GF(8) matdot scheme: 100 subset decodes exact plus 16-drop run"):
        spec = FieldSpec(2, 3)
        sol = cons.half_hyperbolic(8, 3, 17, cons.corner_degree(8, 3))
        assert sol.m == 56 and sol.design_threshold == 496
        rng = np.random.Generator(np.random.PCG64(606))
        a = codec.random_matrix(spec, 4, 112, rng)
        b = codec.random_matrix(spec, 112, 4, rng)
        sa, sb = codec.split(a, b, "matdot", sol.m)
        enc_a = codec.encode(sa, sol.d_a, order=sol.block_order[0])
        enc_b = codec.encode(sb, sol.d_b, order=sol.block_order[1])
        points = np.arange(8**3)
        system = codec.build_system(spec, sol.sum_set(), points)
        responses = [codec.worker_compute(p) for p in codec.make_payloads(enc_a, enc_b, points)]
        oracle = codec.matmul(a, b)
        k1 = sol.design_threshold
        budget = 3 * (system.kappa**3 + system.kappa * k1)
        worst = 0
        for trial in range(100):
            subset = rng.choice(512, size=k1, replace=False)
            interp = codec.interpolate(
                system, [responses[int(i)] for i in subset], only=sol.degree_target)
            got = codec.extract_matdot(interp, sol, sa, sb)
            assert got == oracle, f"matdot subset trial {trial}"
            worst = max(worst, decoder_ops(interp.stats))
        assert worst <= budget, f"decoder op count {worst} exceeds 3x contract {budget}"

        cfg = SimConfig(
            field="2^3/11", construction="matdot-half l=3 F=17 d=corner",
            r=4, s=112, t=4, n_workers=512, seed=66,
            straggler=StragglerModel(kind="adversarial", drop_indices=tuple(range(16))),
        )
        report = simulator.run(cfg)
        assert report.success and report.decoded_equals_oracle
        assert report.responses_used == 496


def test_c07_binary_matdot_closed_form():
    with criterion(7, "every valid binary matdot splitting has footprint 2^(l-|supp|)"):
        checked = 0
        cross_checked = 0
        for l in (1, 2, 3):
            n = 2**l
            full = list(range(n))  # points as bitmasks
            partners = {
                d: [sum(1 << b for b in full if (a | b) == d) for a in full]
                for d in full
            }
            subsets = [m for m in range(1, 1 << n)]
            by_size = {}
            for m in subsets:
                by_size.setdefault(bin(m).count("1"), []).append(m)
            for size, masks in by_size.items():
                for da in masks:
                    members_a = [a for a in full if da >> a & 1]
                    for db in masks:
                        for d in full:
                            total, used_b = 0, 0
                            perfect = True
                            for a in members_a:
                                p = partners[d][a] & db
                                c = bin(p).count("1")
                                total += c
                                if c != 1:
                                    perfect = False
                                used_b |= p
                            if not (perfect and total == size and used_b == db):
                                continue
                            # valid solution: check the closed form
                            sums = {a | b for a in members_a
                                    for b in full if db >> b & 1}
                            supp = 0
                            for c in sums:
                                supp |= c
                            fb_val = min(2 ** (l - bin(c).count("1")) for c in sums)
                            assert fb_val == 2 ** (l - bin(supp).count("1")), (l, da, db, d)
                            checked += 1
                            if checked % 25 == 0:  # sample a dual-route check
                                d_a_set = ex.ExponentSet.of(
                                    2, l, [tuple(a >> i & 1 for i in range(l))
                                           for a in members_a])
                                d_b_set = ex.ExponentSet.of(
                                    2, l, [tuple(b >> i & 1 for i in range(l))
                                           for b in full if db >> b & 1])
                                import warnings
                                with warnings.catch_warnings():
                                    warnings.simplefilter("ignore")
                                    sol = cons.matdot_from_sets(
                                        2, l, d_a_set, d_b_set,
                                        tuple(d >> i & 1 for i in range(l)))
                                    assert cons.matdot_q2_fb(sol).value == fb_val
                                cross_checked += 1
        assert checked > 100 and cross_checked >= 4

        # l = 4: all solutions confine to supp(d), so supports of size <= 3
        # reduce to the cases above; sweep the small-m slice exhaustively.
        n = 16
        full = list(range(n))
        partners = {d: [sum(1 << b for b in full if (a | b) == d) for a in full]
                    for d in full}
        small = [m for m in range(1, 1 << n) if bin(m).count("1") <= 2]
        small_by_size = {}
        for m in small:
            small_by_size.setdefault(bin(m).count("1"), []).append(m)
        for size, masks in small_by_size.items():
            for da in masks:
                members_a = [a for a in full if da >> a & 1]
                for db in masks:
                    for d in full:
                        total, used_b, perfect = 0, 0, True
                        for a in members_a:
                            p = partners[d][a] & db
                            c = bin(p).count("1")
                            total += c
                            if c != 1:
                                perfect = False
                            used_b |= p
                        if not (perfect and total == size and used_b == db):
                            continue
                        sums = {a | b for a in members_a for b in full if db >> b & 1}
                        supp = 0
                        for c in sums:
                            supp |= c
                        fb_val = min(2 ** (4 - bin(c).count("1")) for c in sums)
                        assert fb_val == 2 ** (4 - bin(supp).count("1"))


def test_c08_symmetric_matdot_optimality():
    with criterion(8, "symmetric matdot: pairwise budget equivalence and dominance"):
        # budget equivalence: the worst pairwise sum budget of D + D equals the
        # worst doubled-member budget, for every subset of the half box
        for q in range(2, 8):
            half = -(-q // 2)
            for l in (1, 2):
                box = list(itertools.product(range(half), repeat=l))
                n = len(box)
                pair_fb = np.array([
                    [math.prod(q - x - y for x, y in zip(a, b)) for b in box]
                    for a in box
                ])
                diag = np.diag(pair_fb)
                for mask in range(1, 1 << n):
                    idx = [i for i in range(n) if mask >> i & 1]
                    sub = pair_fb[np.ix_(idx, idx)]
                    assert int(sub.min()) == int(diag[idx].min()), (q, l, idx)

        # dominance: every valid symmetric solution at target d is at most as
        # large as the half-hyperbolic set with its footprint and d
        for q in range(2, 8):
            half = -(-q // 2)
            for l in (1, 2):
                box = list(itertools.product(range(half), repeat=l))
                index = {p: i for i, p in enumerate(box)}
                for d in box:
                    orbits = []
                    seen = set()
                    for a in box:
                        partner = tuple(x - y for x, y in zip(d, a))
                        if a in seen or partner not in index:
                            continue
                        orbits.append(tuple(sorted({a, partner})))
                        seen.update({a, partner})
                    for pick in range(1, 1 << len(orbits)):
                        members = [p for oi, orbit in enumerate(orbits)
                                   if pick >> oi & 1 for p in orbit]
                        f = min(
                            math.prod(q - x - y for x, y in zip(a, b))
                            for a in members for b in members
                        )
                        assert cons.d_size(q, f, f, d) >= len(members), (q, d, members)


def test_c09_footprint_never_exceeds_hyperbolic_bound():
    with criterion(9, "every emitted construction respects the hyperbolic bound"):
        emitted = []
        for mi in range(1, 7):
            ni = (2 * 19) // (3 * mi)
            emitted.append(cons.box_poly(19, (mi, mi), (ni, ni)))
            emitted.append(cons.better_box(19, (mi, mi), emitted[-1].footprint.value))
            ni = (2 * 25) // (3 * mi)
            emitted.append(cons.box_poly(25, (mi, mi), (ni, ni)))
            emitted.append(cons.better_box(25, (mi, mi), emitted[-1].footprint.value))
        for f in (2, 4, 8, 16):
            emitted.append(cons.sep_vars(2, 5, 5, f, f))
        for f in (2, 4, 8, 16, 32, 64, 128, 256, 512):
            emitted.append(cons.sep_vars(2, 10, 10, f, f))
        for f in (2, 4, 8, 16, 32):
            emitted.append(cons.sep_vars(64, 1, 1, f, f))
        for f in (2, 4, 8, 16, 32, 64):
            emitted.append(cons.sep_vars(128, 1, 1, f, f))
        for f in range(1, 64, 8):
            emitted.append(cons.half_hyperbolic(8, 3, f, cons.corner_degree(8, 3)))
        for f in (2049, 2561, 3073, 3585):
            emitted.append(cons.half_hyperbolic(32, 3, f, cons.corner_degree(32, 3)))
        emitted.append(cons.box_matdot(8, (4, 4, 4)))
        emitted.append(cons.box_matdot(32, (8, 8, 8)))
        for sol in emitted:
            assert sol.footprint.value <= sol.xi, sol
            # factories additionally enforce this on every construction built
            # anywhere in the suite (InternalConsistencyError otherwise)


def test_c10_simulation_determinism(tmp_path):
    with criterion(10, "identical config and seed give byte-identical transcripts"):
        cfg = SimConfig(
            field="2", construction="sep-vars mprime=5 nprime=5 F=8",
            r=8, s=32, t=8, n_workers=1024, seed=1234,
            straggler=StragglerModel(kind="latency", probability=0.4),
        )
        r1, r2 = simulator.run(cfg), simulator.run(cfg)
        assert r1.transcript() == r2.transcript()

        cfg_path = tmp_path / "det.cfg"
        cfg_path.write_text(cfg.to_text(), encoding="utf-8")
        outs = []
        for name in ("a.txt", "b.txt"):
            out = tmp_path / name
            proc = subprocess.run(
                [sys.executable, "-m", "mvdmm.cli", "simulate",
                 "--config", str(cfg_path), "--out", str(out)],
                capture_output=True, text=True,
            )
            assert proc.returncode == 0, proc.stderr
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
