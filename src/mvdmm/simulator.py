"""Deterministic master/worker straggler simulation.

Time is integer ticks; all randomness flows from one seeded NumPy PCG64
generator, drawn in a fixed documented order (matrix A, matrix B, straggler
model, subset probes), so a (config, seed) pair fully determines the run and
its transcript.  Workers are simulated sequentially; completions are merged
by (tick, worker index), and the master decodes from the first k+1 of them.
"""

from __future__ import annotations

import io
import time
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from . import codec, constructions
from .codec import MatrixFq, WorkerResponse
from .constructions import MatdotSolution, PolySolution
from .errors import InfeasibleError, InsufficientResponsesError, ParameterError
from .field import FieldSpec, enumerate_points

PRNG_NAME = "numpy PCG64"  # fixed generator; draw order documented above


@dataclass(frozen=True)
class StragglerModel:
    """Which workers respond and when.

    kinds:
      none         every worker completes at tick 1
      adversarial  the listed worker indices never respond
      random       each worker is dropped independently with probability p
      latency      per-worker completion tick is geometric(p); the master
                   stops listening at the (k+1)-th completion
    """

    kind: str = "none"
    drop_indices: tuple[int, ...] = ()
    probability: float = 0.0

    def __post_init__(self):
        if self.kind not in ("none", "adversarial", "random", "latency"):
            raise ParameterError(f"unknown straggler kind {self.kind!r}")
        if self.kind in ("random", "latency") and not 0.0 <= self.probability <= 1.0:
            raise ParameterError(f"probability {self.probability} outside [0, 1]")
        if self.kind == "latency" and self.probability == 0.0:
            raise ParameterError("latency model needs a positive geometric parameter")

    def param_text(self) -> str:
        if self.kind == "adversarial":
            return ",".join(str(i) for i in self.drop_indices)
        if self.kind in ("random", "latency"):
            return repr(self.probability)
        return ""

    @classmethod
    def from_kind_param(cls, kind: str, param: str) -> "StragglerModel":
        kind = kind.strip()
        param = param.strip()
        if kind == "adversarial":
            try:
                drops = tuple(int(x) for x in param.split(",") if x.strip())
            except ValueError:
                raise ParameterError(
                    f"straggler.param = {param!r}: adversarial needs comma-separated "
                    "worker indices") from None
            return cls(kind="adversarial", drop_indices=drops)
        if kind in ("random", "latency"):
            try:
                probability = float(param)
            except ValueError:
                raise ParameterError(
                    f"straggler.param = {param!r}: {kind} needs a probability") from None
            return cls(kind=kind, probability=probability)
        if kind == "none":
            return cls()
        raise ParameterError(f"unknown straggler kind {kind!r}")


@dataclass(frozen=True)
class SimConfig:
    """A complete, reproducible simulation scenario."""

    field: str
    construction: str  # descriptor: "<kind> key=value ..."
    r: int
    s: int
    t: int
    n_workers: int
    straggler: StragglerModel = StragglerModel()
    seed: int = 0
    trials: int = 0

    CONFIG_KEYS = ("field", "construction", "r", "s", "t", "N",
                   "straggler.kind", "straggler.param", "seed", "trials")

    def to_text(self) -> str:
        lines = [
            f"field = {self.field}",
            f"construction = {self.construction}",
            f"r = {self.r}",
            f"s = {self.s}",
            f"t = {self.t}",
            f"N = {self.n_workers}",
            f"straggler.kind = {self.straggler.kind}",
            f"straggler.param = {self.straggler.param_text()}",
            f"seed = {self.seed}",
            f"trials = {self.trials}",
        ]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "SimConfig":
        kv = {"straggler.kind": "none", "straggler.param": "", "seed": "0", "trials": "0"}
        for raw in text.splitlines():
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ParameterError(f"bad config line (expected key = value): {raw!r}")
            key = key.strip()
            if key not in cls.CONFIG_KEYS:
                raise ParameterError(f"unknown config key {key!r}")
            kv[key] = value.strip()

        def integer(key: str) -> int:
            try:
                return int(kv[key])
            except ValueError:
                raise ParameterError(
                    f"config line {key} = {kv[key]!r}: expected an integer") from None

        try:
            return cls(
                field=kv["field"],
                construction=kv["construction"],
                r=integer("r"),
                s=integer("s"),
                t=integer("t"),
                n_workers=integer("N"),
                straggler=StragglerModel.from_kind_param(
                    kv["straggler.kind"], kv["straggler.param"]
                ),
                seed=integer("seed"),
                trials=integer("trials"),
            )
        except KeyError as exc:
            raise ParameterError(f"config is missing key {exc}") from exc

    @classmethod
    def from_file(cls, path) -> "SimConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_text(fh.read())


def parse_construction(descriptor: str, q: int) -> PolySolution | MatdotSolution:
    parts = descriptor.split()
    if not parts:
        raise ParameterError("empty construction descriptor")
    kind = parts[0]
    params: dict[str, str] = {}
    for tok in parts[1:]:
        key, sep, value = tok.partition("=")
        if not sep:
            raise ParameterError(f"bad construction parameter {tok!r}")
        params[key] = value
    return constructions.build(kind, q, params)


@dataclass(frozen=True)
class Plan:
    """Everything about a run that does not depend on the input matrices."""

    spec: FieldSpec
    solution: PolySolution | MatdotSolution
    mode: str  # poly | matdot
    points: tuple
    system: codec.InterpolationSystem
    threshold: int  # the construction's quoted k+1 used by the master

    @property
    def n_workers(self) -> int:
        return len(self.points)

    def make_payloads(
        self, a: MatrixFq, b: MatrixFq
    ) -> tuple[list[codec.WorkerPayload], codec.BlockSplit, codec.BlockSplit]:
        sol = self.solution
        if self.mode == "poly":
            sa, sb = codec.split(a, b, "poly", sol.m, sol.n)
            enc_a = codec.encode(sa, sol.d_a)
            enc_b = codec.encode(sb, sol.d_b)
        else:
            sa, sb = codec.split(a, b, "matdot", sol.m)
            # Block i of A and block i of B must land on matched degrees, so
            # their products all contribute to the coefficient at the target.
            enc_a = codec.encode(sa, sol.d_a, order=[p[0] for p in sol.pairs])
            enc_b = codec.encode(sb, sol.d_b, order=[p[1] for p in sol.pairs])
        return codec.make_payloads(enc_a, enc_b, self.points), sa, sb


def plan(cfg: SimConfig) -> Plan:
    """Resolve the construction, pick the first N points, build the system."""
    spec = FieldSpec.from_string(cfg.field)
    sol = parse_construction(cfg.construction, spec.q)
    mode = "matdot" if isinstance(sol, MatdotSolution) else "poly"
    threshold = sol.design_threshold
    if cfg.n_workers > spec.q**sol.l:
        raise InfeasibleError(
            f"N = {cfg.n_workers} exceeds the {spec.q}^{sol.l} available evaluation points"
        )
    if cfg.n_workers < threshold:
        raise InfeasibleError(
            f"N = {cfg.n_workers} workers cannot reach the recovery threshold {threshold}"
        )
    points = enumerate_points(spec, sol.l)[: cfg.n_workers]
    system = codec.build_system(spec, sol.sum_set(), points)
    return Plan(
        spec=spec, solution=sol, mode=mode, points=tuple(points),
        system=system, threshold=threshold,
    )


@dataclass
class WorkerStatus:
    index: int
    tick: int | None  # None = never completed
    used: bool


@dataclass
class SimReport:
    """Outcome of one simulated run; transcript excludes wall-clock times."""

    config: SimConfig
    success: bool
    responses_used: int
    threshold: int
    kappa: int
    deficit: int
    decoded_equals_oracle: bool | None
    worker_status: list[WorkerStatus]
    responses: list[WorkerResponse]
    decode_ops: int | None
    probe_min_success: int | None
    wall_times: dict[str, float] = field(default_factory=dict)

    def transcript(self) -> str:
        """Line-oriented replayable record of the responses actually used."""
        out = io.StringIO()
        for resp in self.responses:
            out.write(codec.format_response(resp) + "\n")
        return out.getvalue()

    def summary(self) -> str:
        lines = [
            f"workers: {len(self.worker_status)}",
            f"threshold (k+1): {self.threshold}",
            f"kappa: {self.kappa}",
            f"responses used: {self.responses_used}",
            f"success: {self.success}",
            f"decoded == oracle: {self.decoded_equals_oracle}",
        ]
        if self.deficit:
            lines.append(f"deficit: {self.deficit}")
        if self.probe_min_success is not None:
            lines.append(f"sharpness probe min responses: {self.probe_min_success}")
        if self.decode_ops is not None:
            lines.append(f"decode field ops: {self.decode_ops}")
        for phase, secs in self.wall_times.items():
            lines.append(f"wall {phase}: {secs:.6f}s")
        return "\n".join(lines) + "\n"


def _completion_ticks(
    cfg: SimConfig, n: int, rng: np.random.Generator
) -> list[int | None]:
    model = cfg.straggler
    if model.kind == "none":
        return [1] * n
    if model.kind == "adversarial":
        drop = set(model.drop_indices)
        bad = [i for i in drop if not 0 <= i < n]
        if bad:
            raise ParameterError(f"drop indices {bad} out of range [0, {n})")
        return [None if i in drop else 1 for i in range(n)]
    if model.kind == "random":
        draws = rng.random(n)
        return [None if draws[i] < model.probability else 1 for i in range(n)]
    ticks = rng.geometric(model.probability, size=n)
    return [int(t) for t in ticks]


def run(cfg: SimConfig) -> SimReport:
    """Execute one simulated distributed multiplication end to end."""
    t0 = time.perf_counter()
    pl = plan(cfg)
    spec = pl.spec
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    a = codec.random_matrix(spec, cfg.r, cfg.s, rng)
    b = codec.random_matrix(spec, cfg.s, cfg.t, rng)
    oracle = codec.matmul(a, b)
    t1 = time.perf_counter()
    payloads, split_a, split_b = pl.make_payloads(a, b)
    t2 = time.perf_counter()

    ticks = _completion_ticks(cfg, pl.n_workers, rng)
    order = sorted((tick, i) for i, tick in enumerate(ticks) if tick is not None)
    first = [i for _, i in order[: pl.threshold]]
    used_set = set(first)
    status = [
        WorkerStatus(index=i, tick=ticks[i], used=i in used_set)
        for i in range(pl.n_workers)
    ]
    responders = len(order)
    if responders < pl.threshold:
        return SimReport(
            config=cfg,
            success=False,
            responses_used=responders,
            threshold=pl.threshold,
            kappa=pl.system.kappa,
            deficit=pl.threshold - responders,
            decoded_equals_oracle=None,
            worker_status=status,
            responses=[codec.worker_compute(payloads[i]) for _, i in order],
            decode_ops=None,
            probe_min_success=None,
            wall_times={"plan+matrices": t1 - t0, "encode": t2 - t1},
        )

    responses = [codec.worker_compute(payloads[i]) for i in first]
    t3 = time.perf_counter()
    decoded, ops = _decode(pl, responses, split_a, split_b)
    ok = decoded == oracle
    t4 = time.perf_counter()

    probe_min = None
    if cfg.trials > 0:
        probe_min = _sharpness_probe(pl, payloads, order, oracle, split_a, split_b, cfg.trials, rng)

    return SimReport(
        config=cfg,
        success=bool(ok),
        responses_used=len(responses),
        threshold=pl.threshold,
        kappa=pl.system.kappa,
        deficit=0,
        decoded_equals_oracle=bool(ok),
        worker_status=status,
        responses=responses,
        decode_ops=ops,
        probe_min_success=probe_min,
        wall_times={
            "plan+matrices": t1 - t0,
            "encode": t2 - t1,
            "workers": t3 - t2,
            "decode": t4 - t3,
        },
    )


def _decode(pl: Plan, responses: list[WorkerResponse], split_a, split_b) -> tuple[MatrixFq, int]:
    sol = pl.solution
    if pl.mode == "matdot":
        interp = codec.interpolate(
            pl.system, responses, only=sol.degree_target, require_threshold=False
        )
        return codec.extract_matdot(interp, sol, split_a, split_b), interp.stats.total_ops
    interp = codec.interpolate(pl.system, responses, require_threshold=False)
    return codec.extract_poly(interp, sol, split_a, split_b), interp.stats.total_ops


def _sharpness_probe(
    pl: Plan, payloads, order, oracle, split_a, split_b, trials: int, rng: np.random.Generator
) -> int | None:
    """Try random responder subsets of shrinking size; report the smallest
    size that still decoded correctly.  Diagnostic only (never below kappa)."""
    responders = [i for _, i in order]
    floor = pl.system.kappa
    best: int | None = None
    sizes = sorted({pl.threshold, max(floor, (floor + pl.threshold) // 2), floor})
    for _ in range(trials):
        for size in sizes:
            chosen = rng.choice(len(responders), size=size, replace=False)
            subset = [payloads[responders[int(j)]] for j in chosen]
            resp = [codec.worker_compute(p) for p in subset]
            try:
                decoded, _ = _decode(pl, resp, split_a, split_b)
            except InsufficientResponsesError:  # includes a rank-deficient subset
                continue
            if decoded == oracle:
                best = size if best is None else min(best, size)
    return best


def sweep(base: SimConfig, grid: Sequence[Mapping[str, object]]) -> list[dict]:
    """One run per grid point; per-cell failures are recorded, not raised.

    Each cell's overrides are applied to the base config and its seed is
    base.seed XOR the cell index.
    """
    results = []
    for idx, overrides in enumerate(grid):
        cell: dict[str, object] = {"index": idx, "overrides": dict(overrides)}
        try:
            cfg = replace(base, **overrides)  # type: ignore[arg-type]
            cfg = replace(cfg, seed=base.seed ^ idx)
            report = run(cfg)
            cell["report"] = report
            cell["success"] = report.success
        except Exception as exc:  # per-cell isolation by contract
            cell["error"] = f"{type(exc).__name__}: {exc}"
            cell["success"] = False
        results.append(cell)
    return results
