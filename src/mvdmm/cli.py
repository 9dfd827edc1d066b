"""Command-line front door.

Subcommands: params (compute a construction's parameters), table (reproduce
a bundled parameter table and diff it against the golden copy), enum (list
degree sets), simulate (run the straggler simulator), selftest (quick
oracle-equivalence checks).

Exit codes: 0 ok, 2 usage or invalid parameters, 3 golden-table mismatch,
4 capacity exceeded, 5 recovery failure.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys

from . import _linalg, constructions, exponents, simulator, tables
from .constructions import MatdotSolution
from .errors import CapacityError, InfeasibleError, MvdmmError, ParameterError
from .field import FieldSpec

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_GOLDEN_MISMATCH = 3
EXIT_CAPACITY = 4
EXIT_RECOVERY_FAILURE = 5


def _construction_parser(sub, name: str, summary: str) -> argparse.ArgumentParser:
    """A subcommand taking a construction descriptor as KIND --q Q --param KEY=VALUE ..."""
    p = sub.add_parser(name, help=summary, epilog=inspect.getdoc(constructions.build),
                       formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("kind", choices=constructions.POLY_KINDS + constructions.MATDOT_KINDS)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--param", action="append", default=[], metavar="KEY=VALUE",
                   help="one descriptor key, e.g. --param m=2,2; repeat for each key")
    return p


def _solution(args):
    """The descriptor's solution; each --param must be one KEY=VALUE token, so
    one --param can neither carry two keys nor have its value split."""
    for token in args.param:
        if token.split() != [token]:
            raise ParameterError(f"--param {token!r} is not one KEY=VALUE token")
    return constructions.build(" ".join([args.kind, *args.param]), args.q)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mvdmm",
        description="Distributed matrix multiplication over small finite fields",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_params = _construction_parser(sub, "params", "compute construction parameters")
    p_params.add_argument("--json", action="store_true")

    p_table = sub.add_parser("table", help="emit a bundled table and diff against golden")
    p_table.add_argument("ident", choices=tables.TABLE_IDS)
    p_table.add_argument("--out", help="also write the rendered TSV here")
    p_table.add_argument("--golden-dir", help="override the bundled golden directory")

    p_enum = sub.add_parser("enum", help="list a degree set")
    enum_sub = p_enum.add_subparsers(dest="what", required=True)
    e_hyp = enum_sub.add_parser("hyp", help="hyperbolic set")
    e_hyp.add_argument("--q", type=int, required=True)
    e_hyp.add_argument("--l", type=int, required=True)
    e_hyp.add_argument("--F", type=int, required=True)
    e_hyp.add_argument("--stats", action="store_true")
    e_hyp.add_argument("--limit", type=int, default=exponents.DEFAULT_ENUM_LIMIT)
    e_hyp.add_argument("--out")
    e_sol = _construction_parser(enum_sub, "solution", "a construction's degree sets")
    e_sol.add_argument("--set", choices=("da", "db", "sum"), default="da")
    e_sol.add_argument("--stats", action="store_true")
    e_sol.add_argument("--out")

    p_sim = sub.add_parser("simulate", help="run a straggler simulation")
    p_sim.add_argument("--config", required=True, help="flat key=value config file")
    p_sim.add_argument("--out", help="write the response transcript here")
    p_sim.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a config key, e.g. --set N=512 or --set seed=7")

    p_self = sub.add_parser("selftest", help="run quick oracle-equivalence checks")
    p_self.add_argument("--seed", type=int, default=0)

    return parser


# ---------------------------------------------------------------------------
# params


def cmd_params(args) -> int:
    sol = _solution(args)
    info: dict[str, object] = {
        "kind": args.kind,
        "q": sol.q,
        "l": sol.l,
        "m": sol.m,
        "N": sol.q**sol.l,
        "FB": sol.footprint.value,
        "FB_witness": list(sol.footprint.witness),
        "design_F": sol.design_footprint,
        "xi": sol.xi,
        "k+1": sol.design_threshold,  # the scheme's quoted guarantee, what the master waits for
        "achieved_k+1": sol.recovery_threshold,  # q^l - FB + 1
    }
    if isinstance(sol, MatdotSolution):
        info["d"] = list(sol.degree_target)
    else:
        info["n"] = sol.n
    if args.json:
        print(json.dumps(info, sort_keys=True))
    else:
        for key in ("kind", "q", "l", "m", "n", "d", "FB", "design_F", "k+1",
                    "achieved_k+1", "xi", "N"):
            if key in info:
                value = info[key]
                if isinstance(value, list):
                    value = "(" + ",".join(str(x) for x in value) + ")"
                print(f"{key}={value}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# table


def cmd_table(args) -> int:
    spec, rows = tables.generate(args.ident)
    rendered = tables.render(spec, rows)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(rendered)
    golden = tables.golden_text(args.ident, args.golden_dir)
    diffs = tables.diff_cells(golden, rendered)
    sys.stdout.write(rendered)
    if diffs:
        for d in diffs:
            print(f"MISMATCH {args.ident}: {d}", file=sys.stderr)
        return EXIT_GOLDEN_MISMATCH
    print(f"{args.ident}: matches golden", file=sys.stderr)
    return EXIT_OK


# ---------------------------------------------------------------------------
# enum


def _emit_set(s, stats: bool, out_path) -> None:
    text = s.to_text()
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if stats:
        if len(s):
            fp = exponents.fb(s)
            supp = sorted(exponents.support(s))
            print(f"size={len(s)} FB={fp.value} witness={exponents.format_vec(fp.witness)} "
                  f"support={{{','.join(str(i) for i in supp)}}}", file=sys.stderr)
        else:
            print("size=0", file=sys.stderr)


def cmd_enum(args) -> int:
    if args.what == "hyp":
        s = exponents.hyp_set(args.q, args.l, args.F, limit=args.limit)
        _emit_set(s, args.stats, args.out)
        return EXIT_OK
    sol = _solution(args)
    chosen = {"da": sol.d_a, "db": sol.d_b, "sum": sol.sum_set()}[args.set]
    _emit_set(chosen, args.stats, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate


def cmd_simulate(args) -> int:
    for tok in args.set:
        if "=" not in tok or tok.lstrip().startswith("#"):  # a config comment is not an override
            raise ParameterError(f"bad --set {tok!r}, expected KEY=VALUE")
    # Each --set replaces its key's value from the file; a key may be set once.
    report = simulator.run(simulator.SimConfig.from_file(args.config, args.set))
    sys.stdout.write(report.summary())
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(report.transcript())
    return EXIT_OK if report.success else EXIT_RECOVERY_FAILURE


# ---------------------------------------------------------------------------
# selftest


def cmd_selftest(args) -> int:
    import itertools
    import math

    import numpy as np

    failures = 0

    def check(name: str, ok: bool) -> None:
        nonlocal failures
        print(f"{'PASS' if ok else 'FAIL'} {name}")
        if not ok:
            failures += 1

    ok = True
    for q in (2, 3, 4, 5, 8, 9):
        spec = FieldSpec.of_order(q)
        elems = range(spec.q)
        for a, b in itertools.product(elems, repeat=2):
            if spec.add(a, b) != spec.add(b, a) or spec.mul(a, b) != spec.mul(b, a):
                ok = False
        for a in range(1, spec.q):
            if spec.mul(a, spec.inv(a)) != 1 or spec.pow(a, spec.q - 1) != 1:
                ok = False
    check("field axioms / inverses (q <= 9)", ok)

    # matmul packs g output digits per float64 word, g falling as n grows;
    # test n on both sides of every float64 drop below 50,000 (GF(4) and
    # GF(9) have none).
    mm_rng = np.random.default_rng(args.seed)
    ok = True
    for q in (4, 8, 9, 16, 64):
        spec = FieldSpec.of_order(q)
        unit = spec.e * (spec.p - 1) ** 2
        drops = {-(-(1 << 53 // g) // unit) for g in range(2, spec.e + 1)}
        for n in sorted({1, 7, 20} | {d + i for d in drops if d <= 50_000 for i in (-1, 0)}):
            a = mm_rng.integers(0, q, size=(1, n))
            b = mm_rng.integers(0, q, size=(n, 1))
            want = 0
            for u, v in zip(a[0].tolist(), b[:, 0].tolist()):
                want = spec.add(want, spec.mul(u, v))
            if spec.matmul(a, b).tolist() != [[want]]:
                ok = False
    check("FieldSpec.matmul == scalar schoolbook on GF(4), GF(8), GF(9), GF(16), GF(64)", ok)

    # Over GF(2039) one term (p-1)^2 fits a float32 word and two do not: the
    # two-term sum 2034^2 + 1380^2 is above 2^22, where the float32 reciprocal
    # reduction of the sum would be one off.
    p = 2039
    spec = FieldSpec(p)
    a = np.array([[2034, 1380]], dtype=spec.dtype)
    ok = (spec.matmul(a[:, :1], a.T[:1]).tolist() == [[spec.mul(2034, 2034)]]
          and spec.matmul(a, a.T).tolist() == [[(2034**2 + 1380**2) % p]])
    check("FieldSpec.matmul exact on both sides of the float32 word boundary (GF(2039))", ok)

    # Packed float32 words hold GF(8) sums up to n = 85 (85 * 3 < 2^8, three
    # slots of 8 bits) and GF(25) sums up to n = 127 (127 * 2 * 16 < 2^12, two
    # slots of 12 bits); one index further the product takes float64.  Every
    # entry q - 1 gives the largest slot sums.
    ok = True
    for q, last in ((8, 85), (25, 127)):
        spec = FieldSpec.of_order(q)
        for n in (last, last + 1):
            a = np.full((1, n), q - 1, dtype=spec.dtype)
            want = 0
            for _ in range(n):
                want = spec.add(want, spec.mul(q - 1, q - 1))
            word = spec._packing(n)[0]
            ok = ok and word is (np.float32 if n == last else np.float64)
            ok = ok and spec.matmul(a, a.T).tolist() == [[want]]
    check("FieldSpec.matmul exact on both sides of the packed float32 word boundary "
          "(GF(8), GF(25))", ok)

    # The eliminator's leaves leave their rows unreduced between pivots.  Over
    # GF(65521), the largest prime, rows of p - 1 entries with a zero on the
    # diagonal grow every entry by up to p * (p - 1) a pivot, earlier pivot
    # rows included; 2 * LEAF + 1 of them span more than one leaf.
    p, n = 65521, 2 * _linalg.LEAF + 1
    rows = np.full((n, n), p - 1, dtype=np.int64)
    rows[np.diag_indices(n)] = 0
    x = mm_rng.integers(0, p, size=(n, 2))
    rhs = np.array([[(p - 1) * (sum(x[:, c].tolist()) - int(x[i, c])) % p for c in range(2)]
                    for i in range(n)])
    got, used, _ = _linalg.solve_exact(FieldSpec(p), rows, rhs, n)
    check("exact solve over GF(65521) from rows of p - 1 entries across eliminator leaves",
          got.tolist() == x.tolist() and used == list(range(n)))

    ok = True
    for q in (2, 3, 4, 5):
        for l in (1, 2, 3):
            for f in range(0, q**l + 2):
                if exponents.hyp_size(q, l, f) != len(exponents.hyp_set(q, l, f)):
                    ok = False
    check("hyperbolic recurrence == enumeration (q <= 5, l <= 3)", ok)

    ok = True
    for q in (3, 5, 7):
        for mvec in itertools.product(range(1, q), repeat=2):
            for f in range(1, q**2 + 2):
                if constructions.db_size(q, mvec, f) != len(constructions.db_set(q, mvec, f)):
                    ok = False
    check("expanded-set recurrence == enumeration (l = 2)", ok)

    ok = True
    for q in (4, 5, 7, 8):
        half = -(-q // 2)
        for d in itertools.product(range(half), repeat=2):
            vals = {math.prod(q - 2 * x for x in a)
                    for a in itertools.product(*[range(x + 1) for x in d])}
            grid = sorted({0, 1, q**2, q**2 + 1} | vals | {v + 1 for v in vals})
            for f in grid:
                if constructions.d_size(q, f, f, d) != len(constructions.half_hyp_set(q, f, f, d)):
                    ok = False
    check("matdot-set recurrence == enumeration (l = 2)", ok)

    rng = np.random.Generator(np.random.PCG64(args.seed))
    ok = True
    for descriptor, field_text, dims in (
        ("poly-box m=2,2 n=6,6", "19", (6, 4, 6)),
        ("sep-vars mprime=2 nprime=2 F=2", "2", (4, 6, 4)),
        ("matdot-box m=2,2", "8", (3, 4, 3)),
    ):
        spec = FieldSpec.from_string(field_text)
        sol = constructions.build(descriptor, spec.q)
        cfg = simulator.SimConfig(
            field=field_text, construction=descriptor,
            r=dims[0], s=dims[1], t=dims[2],
            n_workers=spec.q**sol.l, seed=int(rng.integers(0, 2**32)),
        )
        report = simulator.run(cfg)
        if not (report.success and report.decoded_equals_oracle):
            ok = False
    check("end-to-end recovery on three small schemes", ok)

    return EXIT_OK if failures == 0 else 1


# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "params": cmd_params,
        "table": cmd_table,
        "enum": cmd_enum,
        "simulate": cmd_simulate,
        "selftest": cmd_selftest,
    }
    try:
        return handlers[args.command](args)
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except (ParameterError, InfeasibleError, MvdmmError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
