"""The benchmark's workloads and the operation each one repeats.

Product workloads multiply one seeded pair of matrices per operation through
the library's public pipeline and decode from a seeded random set of k+1
responders.  The `tables` workload regenerates the bundled tables T1-T8 and
compares each byte for byte with its golden copy.

The caller must put the checkout's ``src`` directory on ``sys.path`` before
importing this module (see ``run.py``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from mvdmm import codec, simulator, tables


@dataclass(frozen=True)
class ProductWorkload:
    name: str
    field: str
    construction: str
    r: int
    s: int
    t: int
    n_workers: int

    def config(self) -> simulator.SimConfig:
        return simulator.SimConfig(
            field=self.field, construction=self.construction,
            r=self.r, s=self.s, t=self.t, n_workers=self.n_workers,
        )


@dataclass(frozen=True)
class TablesWorkload:
    name: str


# Why each workload is here is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        ProductWorkload("decode-gf23", "23", "better-box m=2,2 F=81", 120, 120, 120, 529),
        ProductWorkload("kernel-gf2", "2", "sep-vars mprime=5 nprime=5 F=8", 256, 512, 256, 1024),
        ProductWorkload("matdot-gf8", "8", "matdot-half l=3 F=17 d=corner", 64, 1120, 64, 512),
        TablesWorkload("tables"),
    )
}


def setup(workload):
    """The workload's set-up: the plan, or for `tables` one checked pass."""
    if isinstance(workload, TablesWorkload):
        return tables_pass()
    return simulator.plan(workload.config())


def tables_pass() -> list[str]:
    """Regenerate T1-T8; return the ids whose text differs from the golden copy."""
    differ = []
    for ident in tables.TABLE_IDS:
        spec, rows = tables.generate(ident)
        if tables.render(spec, rows) != tables.golden_text(ident):
            differ.append(ident)
    return differ


def product_inputs(pl: simulator.Plan, workload: ProductWorkload, seed: int, index: int):
    """A, B and the responder order of operation `index`, from the seed alone."""
    rng = np.random.Generator(np.random.PCG64([seed, index]))
    a = codec.random_matrix(pl.spec, workload.r, workload.s, rng)
    b = codec.random_matrix(pl.spec, workload.s, workload.t, rng)
    responders = rng.choice(pl.n_workers, size=pl.threshold, replace=False)
    return a, b, [int(i) for i in responders]


@dataclass
class ProductTiming:
    product: codec.MatrixFq
    interpolation: codec.Interpolation
    master_s: float
    workers_s: float

    @property
    def total_s(self) -> float:
        return self.master_s + self.workers_s


def multiply(pl: simulator.Plan, a: codec.MatrixFq, b: codec.MatrixFq, responders) -> ProductTiming:
    """One exact product: encode, run the responders one after another, decode."""
    sol = pl.solution
    t0 = time.perf_counter()
    payloads, split_a, split_b = pl.make_payloads(a, b)
    t1 = time.perf_counter()
    responses = [codec.worker_compute(payloads[i]) for i in responders]
    t2 = time.perf_counter()
    if pl.mode == "matdot":
        interp = codec.interpolate(pl.system, responses, only=sol.degree_target)
        product = codec.extract_matdot(interp, sol, split_a, split_b)
    else:
        interp = codec.interpolate(pl.system, responses)
        product = codec.extract_poly(interp, sol, split_a, split_b)
    t3 = time.perf_counter()
    return ProductTiming(product, interp, (t1 - t0) + (t3 - t2), t2 - t1)
