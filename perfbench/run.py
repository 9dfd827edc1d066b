"""mvdmm benchmark: exact products (or table passes) in a closed loop.

Usage:
  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

One caller runs one operation at a time in this single process: on a product
workload it multiplies one seeded pair A, B through the public pipeline and
decodes from a seeded random set of k+1 responders; on `tables` it
regenerates T1-T8.  Every product is compared with `codec.matmul` and every
table byte for byte with its golden copy; a raise or a mismatch counts as a
failed operation and is never timed as a success.

With --trace 0 the run reports the end-to-end metrics of BENCHMARK.json:
set-up time (median over fresh processes), per-operation medians and peak
RSS.  With --trace 1 every other operation runs with the library's public
functions wrapped in spans; the run reports the per-layer metrics, the
tracing overhead against the untraced operations of the same run, and
writes every span to perfbench/out/.  Inputs depend only on --seed and the
operation's index, so the work counts of operation 0 repeat exactly; the
traced run replays operation 0 and fails its correctness gate if they differ.

The last line of standard output is one JSON object:
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import environment

HERE = Path(__file__).resolve().parent
SETUP_RUNS = 7       # fresh processes timed per run for setup_s
MIN_OPS = 4          # operations run even past --seconds
CHILD_TIMEOUT_S = 170

CONSTRUCTION_FUNCS = (
    "build", "box_poly", "better_box", "sep_vars", "expand_db", "db_set", "db_size",
    "box_matdot", "half_hyperbolic", "half_hyp_set", "matdot_from_sets", "d_size",
    "corner_degree", "search_best_d", "validate_poly",
)
EXPONENT_FUNCS = ("minkowski_sum_q", "fb", "xi_bound", "hyp_set")
CODEC_FUNCS = (
    "split", "encode", "make_payloads", "evaluate_many", "monomial_matrix", "build_system",
    "worker_compute", "matmul", "interpolate", "extract_poly", "extract_matdot",
)
LINALG_FUNCS = ("solve_exact", "express_unit", "matrix_rank")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.seconds <= 0:
        ap.error("--seconds must be > 0")
    return args


# ---------------------------------------------------------------------------
# tracing targets and their work counts


def _matmul_counts(args, out):
    spec, x, y = args[:3]
    r, s, t = x.shape[0], x.shape[-1], y.shape[-1]
    # Digit-plane kernel: e^2 integer products; bytes of int64 operands and result.
    return {"mac": r * s * t * spec.e**2, "bytes": 8 * (r * s + s * t + r * t)}


def _payload_counts(args, payloads):
    return {"payload_bytes": sum(p.a_part.data.nbytes + p.b_part.data.nbytes for p in payloads)}


def _interpolate_counts(args, interp):
    st = interp.stats
    return {"rows_offered": st.rows_offered, "rows_used": st.rows_used,
            "field_ops": st.total_ops, "inversions": st.inversions}


def make_tracer():
    import tracing
    from mvdmm import _linalg, codec, constructions, exponents, simulator, tables
    from mvdmm.field import FieldSpec

    counts = {"make_payloads": _payload_counts, "interpolate": _interpolate_counts}
    targets = [tracing.Target(FieldSpec, "matmul", "field.matmul", _matmul_counts)]
    targets += [tracing.Target(exponents, f, f"exponents.{f}") for f in EXPONENT_FUNCS]
    targets += [tracing.Target(constructions, f, f"constructions.{f}") for f in CONSTRUCTION_FUNCS]
    targets += [tracing.Target(codec, f, f"codec.{f}", counts.get(f)) for f in CODEC_FUNCS]
    targets += [tracing.Target(_linalg, f, f"linalg.{f}") for f in LINALG_FUNCS]
    targets += [
        tracing.Target(simulator, "plan", "simulator.plan"),
        tracing.Target(tables, "generate", lambda args: f"tables.generate.{args[0]}"),
    ]
    return tracing.Tracer(targets)


# ---------------------------------------------------------------------------
# the closed loop


class Loop:
    """Runs operations one at a time and keeps what each one measured."""

    def __init__(self, workload, seed: int, tracer):
        import workloads

        self.w = workloads
        self.workload = workload
        self.seed = seed
        self.tracer = tracer
        self.plan = None
        self.ops: list[dict] = []  # one entry per successful operation
        self.attempted = 0
        self.failed = 0

    def set_up(self) -> None:
        if isinstance(self.workload, self.w.TablesWorkload):
            return
        with self.tracer.active("setup") if self.tracer else nullcontext():
            self.plan = self.w.setup(self.workload)

    def run_op(self, index: int, scope: object) -> dict | None:
        """One operation; returns its record, or None if it raised or was wrong."""
        self.attempted += 1
        try:
            record = self._op(index, scope)
        except Exception:  # an operation that raises is a failure, not a crash
            traceback.print_exc(file=sys.stderr)
            record = None
        if record is None:
            self.failed += 1
            print(f"operation {index} FAILED", file=sys.stderr)
        return record

    def _op(self, index: int, scope: object) -> dict | None:
        from mvdmm import codec

        traced = self.tracer.active(scope) if scope is not None else nullcontext()
        if isinstance(self.workload, self.w.TablesWorkload):
            start = time.perf_counter()
            with traced:
                differ = self.w.tables_pass()
            total = time.perf_counter() - start
            if differ:
                print(f"tables differ from golden: {differ}", file=sys.stderr)
                return None
            return {"index": index, "scope": scope, "total_s": total, "master_s": total}
        a, b, responders = self.w.product_inputs(self.plan, self.workload, self.seed, index)
        with traced:
            timing = self.w.multiply(self.plan, a, b, responders)
        start = time.perf_counter()
        oracle = codec.matmul(a, b)
        oracle_s = time.perf_counter() - start
        if timing.product != oracle:
            print(f"operation {index}: product differs from the oracle", file=sys.stderr)
            return None
        return {"index": index, "scope": scope, "total_s": timing.total_s,
                "master_s": timing.master_s, "oracle_s": oracle_s}

    def run(self, seconds: float) -> None:
        start = time.perf_counter()
        index = 0
        while True:
            elapsed = time.perf_counter() - start
            # Start another operation only if it should end inside the window.
            if index >= MIN_OPS and elapsed * (index + 1) / index > seconds:
                break
            scope = index if self.tracer and index % 2 == 0 else None
            record = self.run_op(index, scope)
            if record is not None:
                self.ops.append(record)
            index += 1


def measure_setup(name: str) -> list[float]:
    """setup_s samples: the set-up timed once in each of SETUP_RUNS fresh processes."""
    samples = []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_once.py"), name],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=False,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"set-up process for {name} exited {proc.returncode}")
        samples.append(float(proc.stdout.split()[-1]))
    return samples


# ---------------------------------------------------------------------------
# metrics


def _median(values, default=0.0):
    values = list(values)
    return statistics.median(values) if values else default


def end_to_end(loop: Loop, setup_samples: list[float]) -> dict:
    ru_maxrss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": statistics.median(setup_samples),
        "op_s_p50": _median(op["total_s"] for op in loop.ops),
        "master_s_p50": _median(op["master_s"] for op in loop.ops),
        "peak_rss_mb": ru_maxrss_kib / 1024,
    }


def _signature(scope_agg) -> dict:
    """Calls and work counts per span name: what must repeat for a fixed seed."""
    return {name: {"calls": a.calls, **dict(a.counts)} for name, a in sorted(scope_agg.items())}


def per_layer(loop: Loop, agg) -> dict:
    setup = agg.get("setup", {})
    traced = [agg.get(op["scope"], {}) for op in loop.ops if op["scope"] is not None]
    untraced = [op for op in loop.ops if op["scope"] is None]
    first = agg.get(0, {})

    def seconds(names, kind="self_ns"):
        def total(scope_agg):
            return sum(getattr(scope_agg[n], kind) for n in names if n in scope_agg)
        return (total(setup) + _median(total(s) for s in traced)) / 1e9

    def count(name, key):
        if name not in first:
            return 0
        return first[name].calls if key == "calls" else first[name].counts.get(key, 0)

    m = {}
    mm = "field.matmul"
    m["field.matmul.calls"] = count(mm, "calls")
    m["field.matmul.self_s"] = seconds([mm])
    m["field.matmul.mac"] = count(mm, "mac")
    m["field.matmul.bytes"] = count(mm, "bytes")
    traced_mac = sum(s[mm].counts["mac"] for s in traced if mm in s)
    traced_ns = sum(s[mm].self_ns for s in traced if mm in s)
    m["field.matmul.mac_per_s"] = traced_mac / (traced_ns / 1e9) if traced_ns else 0.0
    oracle_s = _median(op["oracle_s"] for op in loop.ops if "oracle_s" in op)
    untraced_s = _median(op["total_s"] for op in untraced)
    traced_s = _median(op["total_s"] for op in loop.ops if op["scope"] is not None)
    m["field.oracle_s"] = oracle_s
    m["field.overhead_x"] = untraced_s / oracle_s if oracle_s else 0.0

    m["exponents.minkowski_s"] = seconds(["exponents.minkowski_sum_q"])
    m["exponents.fb_s"] = seconds(["exponents.fb"])
    m["exponents.xi_bound_s"] = seconds(["exponents.xi_bound"])
    m["exponents.hyp_set_s"] = seconds(["exponents.hyp_set"])
    m["constructions.build_s"] = seconds([f"constructions.{f}" for f in CONSTRUCTION_FUNCS])

    m["codec.build_system_s"] = seconds(["codec.build_system"])
    m["codec.monomial_matrix_s"] = seconds(["codec.monomial_matrix"])
    m["codec.split_s"] = seconds(["codec.split"])
    m["codec.encode_s"] = seconds(["codec.encode"])
    m["codec.payloads_s"] = seconds(["codec.make_payloads", "codec.evaluate_many"])
    m["codec.payload_bytes"] = count("codec.make_payloads", "payload_bytes")
    m["codec.worker_s"] = seconds(["codec.worker_compute"], kind="total_ns")
    m["codec.interpolate_s"] = seconds(["codec.interpolate"])
    m["codec.extract_s"] = seconds(["codec.extract_poly", "codec.extract_matdot"])

    m["linalg.rank_audit_s"] = seconds(["linalg.matrix_rank"])
    m["linalg.solve_s"] = seconds(["linalg.solve_exact", "linalg.express_unit"])
    interp = "codec.interpolate"
    offered, used = count(interp, "rows_offered"), count(interp, "rows_used")
    ops = count(interp, "field_ops")
    m["linalg.rows_offered"] = offered
    m["linalg.rows_used"] = used
    m["linalg.useful_ratio"] = used / offered if offered else 0.0
    m["linalg.field_ops"] = ops
    m["linalg.inversions"] = count(interp, "inversions")

    pl = loop.plan
    kappa = pl.system.kappa if pl else 0
    k1 = pl.threshold if pl else 0
    contract = 3 * (kappa**3 + kappa * k1)
    m["linalg.ops_contract_ratio"] = ops / contract if contract else 0.0
    m["simulator.kappa"] = kappa
    m["simulator.k_plus_1"] = k1
    m["simulator.n_workers"] = pl.n_workers if pl else 0
    m["simulator.erasures"] = pl.n_workers - k1 if pl else 0
    m["constructions.m"] = pl.solution.m if pl else 0
    m["constructions.n"] = len(pl.solution.d_b) if pl else 0

    from mvdmm import tables

    for ident in tables.TABLE_IDS:
        m[f"tables.{ident}.generate_s"] = seconds([f"tables.generate.{ident}"], kind="total_ns")

    m["trace.overhead_s"] = traced_s - untraced_s
    m["trace.overhead_frac"] = (traced_s - untraced_s) / untraced_s if untraced_s else 0.0
    return m


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    environment.prepare()
    import workloads

    declared = json.loads((environment.ROOT / "BENCHMARK.json").read_text())
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; know {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    env = environment.record()
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))

    setup_samples = [] if args.trace else measure_setup(args.workload)
    tracer = make_tracer() if args.trace else None
    loop = Loop(workload, args.seed, tracer)
    loop.set_up()
    loop.run(args.seconds)
    if not loop.ops:
        print("no operation succeeded; nothing to report", file=sys.stderr)
        return 1

    correct = loop.failed == 0
    if args.trace:
        import tracing

        replay = loop.run_op(0, "replay")
        agg = tracing.aggregate(tracer.spans)
        first, again = _signature(agg.get(0, {})), _signature(agg.get("replay", {}))
        if replay is None or first != again:
            print("work counts of operation 0 did not repeat on replay", file=sys.stderr)
            correct = False
        digest = hashlib.sha256(json.dumps(first, sort_keys=True).encode()).hexdigest()
        print(f"op0 counts sha256={digest[:16]} (equal on replay: {first == again})")
        values = per_layer(loop, agg)
        declared_metrics = declared["per_layer"]
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        trace_path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "env": env,
            "span_fields": ["id", "parent", "name", "start_ns", "end_ns", "scope", "counts"],
            "spans": tracer.spans, "per_layer": values, "op0_counts": first,
        }))
        print(f"spans: {len(tracer.spans)} written to {trace_path.relative_to(environment.ROOT)}")
    else:
        values = end_to_end(loop, setup_samples)
        declared_metrics = declared["end_to_end"]
        print(f"setup samples ({len(setup_samples)} fresh processes): "
              + " ".join(f"{s:.4f}" for s in setup_samples))

    if {d["name"] for d in declared_metrics} != set(values):
        raise RuntimeError("computed metrics do not match BENCHMARK.json")
    n_ok = len(loop.ops)
    print(f"operations: {loop.attempted} attempted, {loop.failed} failed "
          f"(failed_frac {loop.failed / loop.attempted:.4f}), {n_ok} timed")
    metrics = {}
    for d in declared_metrics:
        metrics[d["name"]] = {"value": values[d["name"]], "unit": d["unit"]}
        print(f"  {d['name']:28s} {values[d['name']]:>16.6g} {d['unit']}")
    print(json.dumps({"correct": correct, "attempted": loop.attempted,
                      "failed": loop.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
