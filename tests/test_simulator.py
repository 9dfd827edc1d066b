"""Straggler simulation: determinism, models, failure paths."""

import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from mvdmm import codec, simulator
from mvdmm.errors import InfeasibleError, ParameterError
from mvdmm.simulator import SimConfig, StragglerModel


BOX19 = SimConfig(field="19", construction="poly-box m=2,2 n=6,6",
                  r=6, s=4, t=6, n_workers=361, seed=11)


def test_plan_resolves_construction():
    pl = simulator.plan(BOX19)
    assert pl.threshold == 298
    assert pl.system.kappa == 144
    assert pl.n_workers == 361
    assert pl.system.point_grid[:2].tolist() == [0, 1]


def test_plan_table3_scenario():
    cfg = SimConfig(field="2", construction="sep-vars mprime=5 nprime=5 F=8",
                    r=8, s=32, t=8, n_workers=1024, seed=0)
    pl = simulator.plan(cfg)
    assert pl.system.kappa == 256
    assert pl.threshold == 961
    assert pl.n_workers == 1024


def test_plan_single_worker():
    cfg = SimConfig(field="7", construction="poly-box m=1 n=1", r=2, s=2, t=2,
                    n_workers=1, seed=0)
    pl = simulator.plan(cfg)
    assert pl.threshold == 1
    report = simulator.run(cfg)
    assert report.success and report.responses_used == 1


def test_plan_infeasible_worker_count():
    with pytest.raises(InfeasibleError, match="297"):
        simulator.plan(replace(BOX19, n_workers=297))
    with pytest.raises(InfeasibleError):
        simulator.plan(replace(BOX19, n_workers=400))  # only 361 points exist


def test_run_success_and_oracle():
    report = simulator.run(BOX19)
    assert report.success
    assert report.decoded_equals_oracle
    assert report.responses_used == report.threshold == 298
    assert report.used.sum() == 298


def test_run_adversarial_drop_tolerance():
    droppable = 361 - 298
    heavy = replace(BOX19, straggler=StragglerModel(
        kind="adversarial", drop_indices=tuple(range(droppable))))
    report = simulator.run(heavy)
    assert report.success

    too_heavy = replace(BOX19, straggler=StragglerModel(
        kind="adversarial", drop_indices=tuple(range(droppable + 1))))
    report = simulator.run(too_heavy)
    assert not report.success
    assert report.deficit == 1
    assert report.decoded_equals_oracle is None


def test_run_zero_drop_probability_uses_exactly_threshold():
    cfg = replace(BOX19, straggler=StragglerModel(kind="random", probability=0.0))
    report = simulator.run(cfg)
    assert report.success
    assert report.responses_used == 298
    used = np.flatnonzero(report.used).tolist()
    assert used == list(range(298))  # tick ties break by worker index


def test_latency_model_orders_by_tick_then_index():
    cfg = replace(BOX19, straggler=StragglerModel(kind="latency", probability=0.3))
    report = simulator.run(cfg)
    assert report.success
    ticks = report.ticks.tolist()
    used = np.flatnonzero(report.used).tolist()
    keys = sorted((ticks[i], i) for i in range(361))[:298]
    assert sorted(used) == sorted(i for _, i in keys)


GF2_SEP = SimConfig(field="2", construction="sep-vars mprime=3 nprime=3 F=4",
                    r=8, s=4, t=8, n_workers=64, seed=0)
STRAGGLERS = [
    StragglerModel(),
    StragglerModel(kind="adversarial", drop_indices=(0, 7, 3, 40)),
    StragglerModel(kind="random", probability=0.1),
    StragglerModel(kind="latency", probability=0.3),
]


def _reference_schedule(ticks, threshold):
    """The first k+1 responders by (tick, worker index), from a tuple sort."""
    return [i for _, i in sorted((t, i) for i, t in enumerate(ticks.tolist()) if t > 0)[:threshold]]


def _check_schedule(report):
    want = _reference_schedule(report.ticks, report.threshold)
    assert report.ticks.shape == report.used.shape == (report.config.n_workers,)
    assert np.flatnonzero(report.used).tolist() == sorted(want)
    assert [int(line.split()[0]) for line in report.transcript().splitlines()] == want
    assert report.responses_used == len(want)
    assert report.deficit == report.threshold - len(want)
    assert report.success == (not report.deficit)


@pytest.mark.parametrize("model", STRAGGLERS, ids=lambda m: m.kind)
@pytest.mark.parametrize("base, n, seed", [(BOX19, 361, 3), (BOX19, 320, 4),
                                           (GF2_SEP, 64, 5), (GF2_SEP, 56, 6)],
                         ids=["gf19-361", "gf19-320", "gf2-64", "gf2-56"])
def test_schedule_matches_tuple_sort_reference(model, base, n, seed):
    report = simulator.run(replace(base, n_workers=n, straggler=model, seed=seed))
    _check_schedule(report)
    assert report.decoded_equals_oracle is (None if report.deficit else True)


@pytest.mark.parametrize("base", [BOX19, GF2_SEP], ids=["gf19", "gf2"])
def test_schedule_reference_on_a_deficit(base):
    n, threshold = base.n_workers, simulator.plan(base).threshold
    drop = tuple(range(n - 1, -1, -(n // (n - threshold + 1))))[: n - threshold + 1]
    report = simulator.run(replace(base, straggler=StragglerModel(
        kind="adversarial", drop_indices=drop)))
    _check_schedule(report)
    assert report.deficit == 1 and report.decoded_equals_oracle is None
    assert report.ticks.tolist() == [0 if i in drop else 1 for i in range(n)]

    report = simulator.run(replace(base, straggler=StragglerModel(kind="random", probability=0.6)))
    _check_schedule(report)
    assert report.deficit > 1


@pytest.mark.parametrize("drop", [(-1,), (3, 361)], ids=["negative", "past-n"])
def test_adversarial_drop_indices_out_of_range(drop):
    cfg = replace(BOX19, straggler=StragglerModel(kind="adversarial", drop_indices=drop))
    with pytest.raises(ParameterError, match=r"out of range \[0, 361\)"):
        simulator.run(cfg)


def test_determinism_byte_identical_transcripts():
    cfg = replace(BOX19, straggler=StragglerModel(kind="latency", probability=0.5), seed=7)
    r1 = simulator.run(cfg)
    r2 = simulator.run(cfg)
    assert r1.transcript() == r2.transcript()
    assert r1.summary().splitlines()[:6] == r2.summary().splitlines()[:6]
    r3 = simulator.run(replace(cfg, seed=8))
    assert r3.transcript() != r1.transcript()


def test_completion_order_independence():
    """The decoded product only depends on the responding set, not its order."""
    pl = simulator.plan(BOX19)
    import numpy as np
    rng = np.random.Generator(np.random.PCG64(5))
    a = codec.random_matrix(pl.spec, 6, 4, rng)
    b = codec.random_matrix(pl.spec, 4, 6, rng)
    payloads, sa, sb = pl.make_payloads(a, b)
    responses = [codec.worker_compute(payloads[i]) for i in range(298)]
    interp1 = codec.interpolate(pl.system, responses)
    interp2 = codec.interpolate(pl.system, list(reversed(responses)))
    got1 = codec.extract_poly(interp1, pl.solution, sa, sb)
    got2 = codec.extract_poly(interp2, pl.solution, sa, sb)
    assert got1 == got2 == codec.matmul(a, b)


def test_sharpness_probe_reports_at_least_kappa():
    cfg = replace(BOX19, trials=2)
    report = simulator.run(cfg)
    assert report.probe_min_success is not None
    assert report.probe_min_success >= report.kappa


def test_config_text_round_trip():
    cfg = replace(BOX19, straggler=StragglerModel(kind="adversarial", drop_indices=(1, 5, 9)),
                  trials=3)
    text = cfg.to_text()
    assert SimConfig.from_text(text) == cfg
    assert "straggler.kind = adversarial" in text
    assert "straggler.param = 1,5,9" in text

    lat = replace(BOX19, straggler=StragglerModel(kind="latency", probability=0.25))
    assert SimConfig.from_text(lat.to_text()) == lat


def test_config_parse_errors():
    with pytest.raises(ParameterError):
        SimConfig.from_text("field = 5\nno equals sign here either way oops\n")
    with pytest.raises(ParameterError):
        SimConfig.from_text("field = 5\n")  # missing keys
    with pytest.raises(ParameterError):
        StragglerModel.from_kind_param("bogus", "")
    with pytest.raises(ParameterError):
        StragglerModel(kind="random", probability=1.5)


@pytest.mark.parametrize("kind,param", [("random", "abc"), ("random", ""),
                                        ("adversarial", "1,x")])
def test_straggler_param_parse_errors_are_typed(kind, param):
    with pytest.raises(ParameterError, match=f"straggler.param = {param!r}"):
        StragglerModel.from_kind_param(kind, param)


@pytest.mark.parametrize("line", ["sead = 7", "straggler.knd = random"])
def test_config_unknown_key_is_named(line):
    with pytest.raises(ParameterError, match=repr(line.split(" =")[0])):
        SimConfig.from_text(BOX19.to_text() + line + "\n")


@pytest.mark.parametrize("line", ["N = 300", "seed = 0", "straggler.kind = random"])
def test_config_repeated_key_is_named(line):
    """A key already in the text raises, even with the same value."""
    with pytest.raises(ParameterError, match=f"config key {line.split(' =')[0]!r} given twice"):
        SimConfig.from_text(BOX19.to_text() + line + "\n")


def test_config_overrides_replace_the_texts_value():
    cfg = SimConfig.from_text(BOX19.to_text(), ["N=300", "seed = 5"])
    assert cfg == replace(BOX19, n_workers=300, seed=5)
    with pytest.raises(ParameterError, match="config key 'seed' given twice"):
        SimConfig.from_text(BOX19.to_text(), ["seed = 5", "N=300", "seed=6"])


def test_config_non_integer_value_names_its_line():
    text = BOX19.to_text().replace("\nr = 6\n", "\nr = x\n")
    with pytest.raises(ParameterError, match="r = 'x'"):
        SimConfig.from_text(text)


def test_sharpness_probe_lets_unexpected_errors_through(monkeypatch):
    real = simulator._decode
    calls = []

    def failing_after_first(*args):
        calls.append(args)
        if len(calls) > 1:
            raise RuntimeError("decoder bug")
        return real(*args)

    monkeypatch.setattr(simulator, "_decode", failing_after_first)
    with pytest.raises(RuntimeError, match="decoder bug"):
        simulator.run(replace(BOX19, trials=1))
    assert len(calls) == 2


def test_sharpness_probe_computes_each_responder_once(monkeypatch):
    """The first k+1 responders' products come from one batched product, in
    arrival order; the probe computes each other responder once, in at most
    one batched product per subset."""
    real = codec.WorkerPlane.products
    calls = []

    def counting(plane, workers):
        calls.append(np.asarray(workers).tolist())
        return real(plane, workers)

    monkeypatch.setattr(codec.WorkerPlane, "products", counting)
    report = simulator.run(replace(BOX19, trials=3))
    assert report.probe_min_success is not None
    rows = [worker for call in calls for worker in call]
    assert len(rows) == len(set(rows)) <= report.config.n_workers
    assert calls[0] == report.points.tolist() and len(calls[0]) == report.threshold
    assert 1 < len(calls) <= 1 + 3 * 3  # three trials of three subset sizes


@pytest.mark.parametrize("key, attr, value, least", [
    ("r", "r", 0, 1), ("r", "r", -1, 1), ("s", "s", 0, 1), ("t", "t", -2, 1),
    ("N", "n_workers", 0, 1), ("seed", "seed", -1, 0), ("trials", "trials", -3, 0),
])
def test_config_bounds_are_typed_and_name_the_key(key, attr, value, least):
    message = rf"config {key} = {value}: must be >= {least}"
    with pytest.raises(ParameterError, match=message):
        replace(BOX19, **{attr: value})
    text = "".join(f"{key} = {value}\n" if line.startswith(f"{key} = ") else line + "\n"
                   for line in BOX19.to_text().splitlines())
    with pytest.raises(ParameterError, match=message):
        SimConfig.from_text(text)


def test_none_straggler_model_takes_no_param():
    with pytest.raises(ParameterError, match=r"straggler.param = '0.5': none takes no parameter"):
        StragglerModel.from_kind_param("none", "0.5")
    assert StragglerModel.from_kind_param("none", " ") == StragglerModel()
    assert SimConfig.from_text(BOX19.to_text()) == BOX19


def test_plan_points_are_a_read_only_grid_prefix():
    """Worker i evaluates at grid point i: the plan's points are 0..N-1."""
    pl = simulator.plan(BOX19)
    grid = pl.system.point_grid
    assert grid.shape == (361,) and grid.dtype == np.int64
    assert not grid.flags.writeable
    assert grid.tolist() == list(range(19**2))
    short = simulator.plan(replace(BOX19, n_workers=300))
    assert short.n_workers == 300 and short.system.point_grid.tolist() == grid[:300].tolist()
    assert pl == pl and pl != simulator.plan(BOX19)  # identity, not an array comparison


def test_sweep_table7_grid():
    """Each T7 row's design footprint simulates exactly on the whole GF(8) grid."""
    base = SimConfig(field="2^3/11", construction="matdot-half l=3 F=1 d=corner",
                     r=2, s=8, t=2, n_workers=512)
    for i, f in enumerate(range(1, 64, 8)):
        cfg = replace(base, construction=f"matdot-half l=3 F={f} d=corner", seed=21 ^ i)
        assert simulator.run(cfg).decoded_equals_oracle is True


def test_all_single_drop_sets_recover_small_golden():
    """With N - (k+1) = 1 spare worker, every single drop must still decode."""
    base = SimConfig(field="5", construction="poly-box m=2 n=2", r=4, s=3, t=4,
                     n_workers=5, seed=31)
    assert simulator.plan(base).threshold == 4
    for drop in range(5):
        cfg = replace(base, straggler=StragglerModel(kind="adversarial",
                                                     drop_indices=(drop,)))
        report = simulator.run(cfg)
        assert report.success and report.decoded_equals_oracle, drop


def test_payload_shapes_match_split_contract():
    pl = simulator.plan(BOX19)
    import numpy as np
    rng = np.random.Generator(np.random.PCG64(1))
    a = codec.random_matrix(pl.spec, 6, 4, rng)
    b = codec.random_matrix(pl.spec, 4, 6, rng)
    payloads, sa, sb = pl.make_payloads(a, b)
    # poly mode: (r/m x s) times (s x t/n); padded r = 8, t = 36 here
    assert payloads[0].a_part.data.shape == (2, 4)
    assert payloads[0].b_part.data.shape == (4, 1)
    resp = codec.worker_compute(payloads[0])
    assert resp.product.data.shape == (2, 1)

    mat_cfg = SimConfig(field="8", construction="matdot-box m=2,2", r=3, s=8, t=5,
                        n_workers=64, seed=2)
    pl2 = simulator.plan(mat_cfg)
    a2 = codec.random_matrix(pl2.spec, 3, 8, rng)
    b2 = codec.random_matrix(pl2.spec, 8, 5, rng)
    payloads2, _, _ = pl2.make_payloads(a2, b2)
    # matdot mode: (r x s/m) times (s/m x t)
    assert payloads2[0].a_part.data.shape == (3, 2)
    assert payloads2[0].b_part.data.shape == (2, 5)
    assert codec.worker_compute(payloads2[0]).product.data.shape == (3, 5)


@pytest.mark.parametrize("field, construction, shape, n_workers, held", [
    ("2", "sep-vars mprime=5 nprime=5 F=8", (256, 512, 256), 1024, 2_097_152),
    ("23", "better-box m=2,2 F=81", (120, 120, 120), 529, 2_031_360),
    ("8", "matdot-half l=3 F=17 d=corner", (64, 1120, 64), 512, 1_310_720),
], ids=["gf2", "gf23", "gf8"])
def test_worker_plane_memory_of_the_benchmark_schemes(field, construction, shape, n_workers, held):
    """The bytes of evaluations a plane keeps alive, whole buffers counted:
    over GF(2) its packed rows, an eighth of the 16,777,216 bytes of the
    index arrays its payloads still hand out; elsewhere the index arrays."""
    import numpy as np
    r, s, t = shape
    pl = simulator.plan(SimConfig(field=field, construction=construction, r=r, s=s, t=t,
                                  n_workers=n_workers))
    rng = np.random.Generator(np.random.PCG64(3))
    plane, _, _ = pl.make_payloads(codec.random_matrix(pl.spec, r, s, rng),
                                   codec.random_matrix(pl.spec, s, t, rng))
    buffers = [v if v.base is None else v.base for v in (plane.a_vals, plane.b_vals)]
    assert sum(v.nbytes for v in buffers) == held
    if field == "2":
        assert sum(p.a_part.nbytes + p.b_part.nbytes for p in plane) == 16_777_216


def test_plan_does_not_import_numpy_ma():
    # numpy.ma takes about 17 ms to import; set-up must not pull it in.
    code = (
        "import sys, numpy\n"
        "eager = 'numpy.ma' in sys.modules\n"
        "from mvdmm import simulator\n"
        "simulator.plan(simulator.SimConfig('2', 'sep-vars mprime=5 nprime=5 F=8', 8, 8, 8, 1000))\n"
        "simulator.plan(simulator.SimConfig('23', 'better-box m=2,2 F=81', 8, 8, 8, 500))\n"
        "print(eager, 'numpy.ma' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    eager, after = proc.stdout.split()
    if eager == "True":
        pytest.skip("this numpy release imports numpy.ma with numpy itself")
    assert after == "False"


@pytest.mark.parametrize("n_workers", [16384, 16364], ids=["full-grid", "partial-grid"])
def test_paper_scale_gf2_l14(n_workers):
    # sep-vars m' = n' = 7, F = 8 over GF(2): l = 14, kappa = 9801, k+1 = 16321.
    cfg = SimConfig(field="2", construction="sep-vars mprime=7 nprime=7 F=8",
                    r=128, s=16, t=128, n_workers=n_workers)
    pl = simulator.plan(cfg)
    assert (pl.solution.l, pl.system.kappa, pl.threshold) == (14, 9801, 16321)
    rng = np.random.Generator(np.random.PCG64(n_workers))
    a = codec.random_matrix(pl.spec, 128, 16, rng)
    b = codec.random_matrix(pl.spec, 16, 128, rng)
    responders = rng.choice(n_workers, size=pl.threshold, replace=False)
    payloads, sa, sb = pl.make_payloads(a, b)
    interp = codec.interpolate(pl.system, [codec.worker_compute(payloads[i]) for i in responders])
    assert codec.extract_poly(interp, pl.solution, sa, sb) == codec.matmul(a, b)
    # the simulator's batched worker plane, every spare worker a random straggler
    report = simulator.run(replace(cfg, straggler=StragglerModel("adversarial", tuple(
        rng.choice(n_workers, size=n_workers - pl.threshold, replace=False).tolist()))))
    assert report.decoded_equals_oracle is True and len(report.products) == pl.threshold
