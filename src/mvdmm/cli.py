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
import json
import sys
from dataclasses import replace

from . import constructions, exponents, simulator, tables
from .constructions import MatdotSolution
from .errors import CapacityError, InfeasibleError, MvdmmError, ParameterError
from .field import FieldSpec

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_GOLDEN_MISMATCH = 3
EXIT_CAPACITY = 4
EXIT_RECOVERY_FAILURE = 5


def _vec(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(","))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mvdmm",
        description="Distributed matrix multiplication over small finite fields",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_params = sub.add_parser("params", help="compute construction parameters")
    p_params.add_argument("kind", choices=constructions.POLY_KINDS + constructions.MATDOT_KINDS)
    p_params.add_argument("--q", type=int, required=True)
    p_params.add_argument("--l", type=int)
    p_params.add_argument("--m", type=_vec, help="per-coordinate block counts, e.g. 2,2")
    p_params.add_argument("--n", type=_vec, help="per-coordinate block counts for B")
    p_params.add_argument("--F", type=int, help="design footprint")
    p_params.add_argument("--FA", type=int)
    p_params.add_argument("--FB", type=int)
    p_params.add_argument("--mprime", type=int)
    p_params.add_argument("--nprime", type=int)
    p_params.add_argument("--d", type=_vec, help="matdot target degree, e.g. 3,3,3")
    p_params.add_argument("--best-d", action="store_true",
                          help="exhaustive search for the size-maximizing target degree")
    p_params.add_argument("--corner-d", action="store_true",
                          help="use the corner target degree (the bundled tables' choice)")
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
    e_sol = enum_sub.add_parser("solution", help="a construction's degree sets")
    e_sol.add_argument("kind", choices=constructions.POLY_KINDS + constructions.MATDOT_KINDS)
    e_sol.add_argument("--q", type=int, required=True)
    e_sol.add_argument("--param", action="append", default=[], metavar="KEY=VALUE")
    e_sol.add_argument("--set", choices=("da", "db", "sum"), default="da")
    e_sol.add_argument("--stats", action="store_true")
    e_sol.add_argument("--out")

    p_sim = sub.add_parser("simulate", help="run a straggler simulation")
    p_sim.add_argument("--config", required=True, help="flat key=value config file")
    p_sim.add_argument("--seed", type=int, help="override the config seed")
    p_sim.add_argument("--out", help="write the response transcript here")
    p_sim.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a config key, e.g. --set N=512")

    p_self = sub.add_parser("selftest", help="run quick oracle-equivalence checks")
    p_self.add_argument("--seed", type=int, default=0)

    return parser


# ---------------------------------------------------------------------------
# params


def _resolve_params_args(args) -> tuple[str, dict]:
    kind = args.kind
    p: dict[str, object] = {}
    if kind == "poly-box":
        p["m"], p["n"] = args.m, args.n
    elif kind == "better-box":
        p["m"], p["F"] = args.m, args.F
    elif kind == "sep-vars":
        p["mprime"], p["nprime"] = args.mprime, args.nprime
        if args.F is not None:
            p["F"] = args.F
        else:
            p["FA"], p["FB"] = args.FA, args.FB
    elif kind == "matdot-box":
        p["m"] = args.m
    elif kind == "matdot-half":
        p["l"], p["F"] = args.l, args.F
        if args.best_d:
            p["d"] = "best"
        elif args.corner_d:
            p["d"] = "corner"
        else:
            p["d"] = args.d
    missing = [k for k, v in p.items() if v is None]
    if missing:
        raise ParameterError(f"{kind} requires {', '.join('--' + k for k in missing)}")
    if args.l is not None and "m" in p and len(p["m"]) != args.l:
        raise ParameterError(f"--l {args.l} disagrees with --m of length {len(p['m'])}")
    return kind, p


def cmd_params(args) -> int:
    kind, p = _resolve_params_args(args)
    sol = constructions.build(kind, args.q, p)
    info: dict[str, object] = {
        "kind": kind,
        "q": sol.q,
        "l": sol.l,
        "m": sol.m,
        "N": sol.q**sol.l,
        "FB": sol.footprint.value,
        "FB_witness": list(sol.footprint.witness),
        "design_F": sol.design_footprint,
        "xi": sol.xi,
    }
    if isinstance(sol, MatdotSolution):
        info["d"] = list(sol.degree_target)
        info["k+1"] = sol.design_threshold  # the scheme's quoted guarantee
        info["achieved_k+1"] = sol.recovery_threshold
    else:
        info["n"] = sol.n
        info["k+1"] = sol.recovery_threshold
        info["design_k+1"] = sol.design_threshold
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
    params = {}
    for tok in args.param:
        key, sep, value = tok.partition("=")
        if not sep:
            raise ParameterError(f"bad --param {tok!r}, expected KEY=VALUE")
        params[key] = value
    sol = constructions.build(args.kind, args.q, params)
    chosen = {"da": sol.d_a, "db": sol.d_b, "sum": sol.sum_set()}[args.set]
    _emit_set(chosen, args.stats, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate


def cmd_simulate(args) -> int:
    cfg = simulator.SimConfig.from_file(args.config)
    for tok in args.set:
        if "=" not in tok or tok.lstrip().startswith("#"):  # a config comment is not an override
            raise ParameterError(f"bad --set {tok!r}, expected KEY=VALUE")
    # Each --set is one more config line; the last value of a key wins.
    cfg = simulator.SimConfig.from_text(cfg.to_text() + "".join(f"{tok}\n" for tok in args.set))
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    report = simulator.run(cfg)
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
        sol = simulator.parse_construction(descriptor, spec.q)
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
