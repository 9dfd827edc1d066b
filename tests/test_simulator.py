"""Straggler simulation: determinism, models, failure paths, sweeps."""

from dataclasses import replace

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
    assert pl.points[0] == (0, 0) and pl.points[1] == (0, 1)


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
    assert sum(1 for w in report.worker_status if w.used) == 298


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
    used = [w.index for w in report.worker_status if w.used]
    assert used == list(range(298))  # tick ties break by worker index


def test_latency_model_orders_by_tick_then_index():
    cfg = replace(BOX19, straggler=StragglerModel(kind="latency", probability=0.3))
    report = simulator.run(cfg)
    assert report.success
    ticks = {w.index: w.tick for w in report.worker_status}
    used = [w.index for w in report.worker_status if w.used]
    keys = sorted((ticks[i], i) for i in range(361))[:298]
    assert sorted(used) == sorted(i for _, i in keys)


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


def test_transcript_replay_through_codec():
    report = simulator.run(BOX19)
    pl = simulator.plan(BOX19)
    shape = report.responses[0].product.data.shape
    lines = report.transcript().splitlines()
    replayed = [codec.parse_response(line, pl.spec, shape) for line in lines]
    assert replayed == report.responses


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


def test_sweep_table7_grid():
    base = SimConfig(field="2^3/11", construction="matdot-half l=3 F=1 d=corner",
                     r=2, s=8, t=2, n_workers=512, seed=21)
    grid = [{"construction": f"matdot-half l=3 F={f} d=corner"}
            for f in range(1, 64, 8)]
    results = simulator.sweep(base, grid)
    assert len(results) == 8
    assert all(cell["success"] for cell in results)


def test_sweep_empty_and_infeasible_cells():
    assert simulator.sweep(BOX19, []) == []
    grid = [{"n_workers": 297}, {"n_workers": 361}]
    results = simulator.sweep(BOX19, grid)
    assert "error" in results[0] and not results[0]["success"]
    assert results[1]["success"]


def test_sweep_seeds_derived_from_index():
    grid = [{}, {}]
    results = simulator.sweep(BOX19, grid)
    assert results[0]["report"].config.seed == BOX19.seed ^ 0
    assert results[1]["report"].config.seed == BOX19.seed ^ 1


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
