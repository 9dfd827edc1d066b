"""Deterministic master/worker straggler simulation.

Time is integer ticks; all randomness flows from one seeded NumPy PCG64
generator, drawn in a fixed documented order (matrix A, matrix B, straggler
model, subset probes), so a (config, seed) pair fully determines the run and
its transcript.  Worker i evaluates at grid point i of GF(q)^l (row-major
numbering), so one int names both.  Completions are merged by (tick, worker
index); the first k+1 responders' products are computed in one batched
product, in that order, and the master decodes from that stack.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import codec, constructions
from .codec import MatrixFq
from .constructions import MatdotSolution, PolySolution
from .errors import CapacityError, InfeasibleError, InsufficientResponsesError, ParameterError
from .field import DEFAULT_POINT_LIMIT, FieldSpec


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
            if param:
                raise ParameterError(f"straggler.param = {param!r}: none takes no parameter")
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

    def __post_init__(self):
        for key, value, least in (("r", self.r, 1), ("s", self.s, 1), ("t", self.t, 1),
                                  ("N", self.n_workers, 1), ("seed", self.seed, 0),
                                  ("trials", self.trials, 0)):
            if value < least:
                raise ParameterError(f"config {key} = {value}: must be >= {least}")

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
    def _config_lines(cls, text: str) -> dict[str, str]:
        """The key = value lines of a config text; a key may appear once."""
        kv = {}
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
            if key in kv:
                raise ParameterError(f"config key {key!r} given twice")
            kv[key] = value.strip()
        return kv

    @classmethod
    def from_text(cls, text: str, overrides: Sequence[str] = ()) -> "SimConfig":
        """The config of `text`, each KEY=VALUE of `overrides` replacing that
        key's value; like the text, the overrides give a key at most once."""
        kv = {"straggler.kind": "none", "straggler.param": "", "seed": "0", "trials": "0"}
        kv.update(cls._config_lines(text))
        kv.update(cls._config_lines("\n".join(overrides)))

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
    def from_file(cls, path, overrides: Sequence[str] = ()) -> "SimConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_text(fh.read(), overrides)


@dataclass(frozen=True, eq=False)
class Plan:
    """Everything about a run that does not depend on the input matrices.
    `==` is identity."""

    spec: FieldSpec
    solution: PolySolution | MatdotSolution
    mode: str  # poly | matdot
    system: codec.InterpolationSystem  # worker i evaluates at grid point i
    threshold: int  # the construction's quoted k+1 used by the master

    @property
    def n_workers(self) -> int:
        return self.system.point_grid.size

    def make_payloads(
        self, a: MatrixFq, b: MatrixFq
    ) -> tuple[codec.WorkerPlane, codec.BlockSplit, codec.BlockSplit]:
        sol = self.solution
        if self.mode == "poly":
            sa, sb = codec.split(a, b, "poly", sol.m, sol.n)
            enc_a = codec.encode(sa, sol.d_a)
            enc_b = codec.encode(sb, sol.d_b)
        else:
            sa, sb = codec.split(a, b, "matdot", sol.m)
            # Block i of A and block i of B must land on matched degrees, so
            # their products all contribute to the coefficient at the target.
            order_a, order_b = sol.block_order
            enc_a = codec.encode(sa, sol.d_a, order=order_a)
            enc_b = codec.encode(sb, sol.d_b, order=order_b)
        return codec.make_payloads(enc_a, enc_b, self.system.point_grid), sa, sb


def plan(cfg: SimConfig) -> Plan:
    """Resolve the construction, take the grid points 0..N-1, build the system."""
    spec = FieldSpec.from_string(cfg.field)
    sol = constructions.build(cfg.construction, spec.q)
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
    if spec.q**sol.l > DEFAULT_POINT_LIMIT:
        raise CapacityError(f"q^l = {spec.q**sol.l} exceeds point limit {DEFAULT_POINT_LIMIT}")
    system = codec.build_system(spec, sol.sum_set(), np.arange(cfg.n_workers))
    return Plan(spec=spec, solution=sol, mode=mode, system=system, threshold=threshold)


@dataclass(eq=False)
class SimReport:
    """Outcome of one simulated run; transcript excludes wall-clock times.
    The points lie on GF(q)^l; `ticks[i]` is the completion tick of worker i
    (grid point i; 0: never responds), `used[i]` whether the master read its
    response.  `points` are the grid indices of the responses the master
    read, in arrival order, and `products` their (R, r, t) stack.  `==` is
    identity."""

    config: SimConfig
    q: int
    l: int
    success: bool
    responses_used: int
    threshold: int
    kappa: int
    deficit: int
    decoded_equals_oracle: bool | None
    ticks: np.ndarray
    used: np.ndarray
    points: np.ndarray
    products: np.ndarray
    decode_ops: int | None
    probe_min_success: int | None
    wall_times: dict[str, float] = field(default_factory=dict)

    def transcript(self) -> str:
        """One `format_response` line per response the master used, in arrival order."""
        return "".join(codec.format_response(codec.WorkerResponse(point, product), self.q, self.l)
                       + "\n" for point, product in zip(self.points.tolist(), self.products))

    def summary(self) -> str:
        lines = [
            f"workers: {len(self.ticks)}",
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


def _completion_ticks(cfg: SimConfig, n: int, rng: np.random.Generator) -> np.ndarray:
    """Each worker's completion tick as int64; 0 means it never responds."""
    model = cfg.straggler
    if model.kind == "latency":
        return rng.geometric(model.probability, size=n).astype(np.int64, copy=False)
    if model.kind == "random":
        return (rng.random(n) >= model.probability).astype(np.int64)
    ticks = np.ones(n, dtype=np.int64)
    if model.kind == "adversarial":
        bad = [i for i in model.drop_indices if not 0 <= i < n]
        if bad:
            raise ParameterError(f"drop indices {bad} out of range [0, {n})")
        ticks[list(model.drop_indices)] = 0
    return ticks


def run(cfg: SimConfig) -> SimReport:
    """Execute one simulated distributed multiplication end to end.

    Responders are read in (tick, worker index) order; the master decodes
    from the first k+1 of them, or reports the deficit when fewer respond.
    """
    t0 = time.perf_counter()
    pl = plan(cfg)
    spec = pl.spec
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    a = codec.random_matrix(spec, cfg.r, cfg.s, rng)
    b = codec.random_matrix(spec, cfg.s, cfg.t, rng)
    t1 = time.perf_counter()
    plane, split_a, split_b = pl.make_payloads(a, b)
    t2 = time.perf_counter()

    ticks = _completion_ticks(cfg, pl.n_workers, rng)
    responders = np.flatnonzero(ticks)
    order = responders[np.argsort(ticks[responders], kind="stable")]
    first = order[: pl.threshold]
    used = np.zeros(pl.n_workers, dtype=bool)
    used[first] = True
    points, products = plane.points[first], plane.products(first)
    t3 = time.perf_counter()
    wall_times = {"plan+matrices": t1 - t0, "encode": t2 - t1, "workers": t3 - t2}

    deficit = pl.threshold - first.size
    ok = ops = probe_min = None
    if not deficit:
        decoded, ops = _decode(pl, points, products, split_a, split_b)
        wall_times["decode"] = time.perf_counter() - t3
        oracle = codec.matmul(a, b)
        ok = decoded == oracle
        if cfg.trials > 0:
            probe_min = _sharpness_probe(pl, plane, first, products, order, oracle,
                                         split_a, split_b, cfg.trials, rng)

    return SimReport(
        config=cfg,
        q=spec.q,
        l=pl.solution.l,
        success=bool(ok),
        responses_used=first.size,
        threshold=pl.threshold,
        kappa=pl.system.kappa,
        deficit=deficit,
        decoded_equals_oracle=ok,
        ticks=ticks,
        used=used,
        points=points,
        products=products,
        decode_ops=ops,
        probe_min_success=probe_min,
        wall_times=wall_times,
    )


def _decode(pl: Plan, grid: np.ndarray, products: np.ndarray, split_a, split_b) -> tuple[MatrixFq, int]:
    """Decode A.B from the products at the distinct grid points `grid`."""
    sol, matdot = pl.solution, pl.mode == "matdot"
    only = sol.degree_target if matdot else None
    interp = codec.interpolate_stack(pl.system, grid, products, only=only, require_threshold=False)
    extract = codec.extract_matdot if matdot else codec.extract_poly
    return extract(interp, sol, split_a, split_b), interp.stats.total_ops


def _sharpness_probe(
    pl: Plan, plane: codec.WorkerPlane, first: np.ndarray, products: np.ndarray,
    order: np.ndarray, oracle, split_a, split_b, trials: int, rng: np.random.Generator,
) -> int | None:
    """Try random responder subsets of shrinking size; report the smallest
    size that still decoded correctly.  Diagnostic only (never below kappa).

    `products` are the products of the workers `first`, already computed in
    this run; each other responder's product is computed once, in one
    batched product per subset that first draws it.
    """
    floor = pl.system.kappa
    best: int | None = None
    sizes = sorted({pl.threshold, max(floor, (floor + pl.threshold) // 2), floor})
    computed = np.empty((pl.n_workers,) + products.shape[1:], dtype=products.dtype)
    have = np.zeros(pl.n_workers, dtype=bool)
    computed[first], have[first] = products, True
    for _ in range(trials):
        for size in sizes:
            subset = order[rng.choice(len(order), size=size, replace=False)]
            todo = subset[~have[subset]]
            if todo.size:
                computed[todo], have[todo] = plane.products(todo), True
            try:
                decoded, _ = _decode(pl, plane.points[subset], computed[subset], split_a, split_b)
            except InsufficientResponsesError:  # includes a rank-deficient subset
                continue
            if decoded == oracle:
                best = size if best is None else min(best, size)
    return best
