"""CLI surface: subcommands, exit codes, golden diffs, determinism."""

import json
import re
import shutil
import subprocess
import sys

import pytest

from mvdmm import cli, simulator, tables


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# params


def test_params_poly_box(capsys):
    code, out, _ = run_cli(capsys, "params", "poly-box", "--q", "19",
                           "--param", "m=2,2", "--param", "n=6,6")
    assert code == 0
    assert "FB=64" in out and "k+1=298" in out and "xi=102" in out and "N=361" in out


def test_params_sep_vars(capsys):
    code, out, _ = run_cli(capsys, "params", "sep-vars", "--q", "2",
                           "--param", "mprime=5", "--param", "nprime=5", "--param", "F=8")
    assert code == 0
    assert "m=16" in out and "k+1=961" in out


def test_params_matdot_half_corner(capsys):
    code, out, _ = run_cli(capsys, "params", "matdot-half", "--q", "8", "--param", "l=3",
                           "--param", "F=57", "--param", "d=corner")
    assert code == 0
    assert "m=26" in out and "k+1=456" in out


def test_params_matdot_half_best(capsys):
    code, out, _ = run_cli(capsys, "params", "matdot-half", "--q", "8", "--param", "l=3",
                           "--param", "F=9", "--param", "d=best")
    assert code == 0
    assert "m=62" in out


def test_params_json(capsys):
    code, out, _ = run_cli(capsys, "params", "poly-box", "--q", "19",
                           "--param", "m=2,2", "--param", "n=6,6", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["FB"] == 64 and data["k+1"] == 298 and data["xi"] == 102


def test_params_k1_is_the_quoted_threshold_for_every_kind(capsys):
    """k+1 is the design threshold and achieved_k+1 is q^l - FB + 1, for
    polynomial and matdot codes alike, in text and in JSON."""
    for argv, quoted, achieved in (
        (("better-box", "--q", "23", "--param", "m=2,2", "--param", "F=81"), 449, 446),
        (("matdot-half", "--q", "8", "--param", "l=3", "--param", "F=17", "--param", "d=corner"),
         496, 489),
    ):
        code, out, _ = run_cli(capsys, "params", *argv)
        assert code == 0
        lines = out.splitlines()
        assert f"k+1={quoted}" in lines and f"achieved_k+1={achieved}" in lines
        assert not any(line.startswith("design_k+1") for line in lines)
        code, out, _ = run_cli(capsys, "params", *argv, "--json")
        data = json.loads(out)
        assert (data["k+1"], data["achieved_k+1"]) == (quoted, achieved)
        assert "design_k+1" not in data


def test_params_invalid_exits_2(capsys):
    code, _, err = run_cli(capsys, "params", "poly-box", "--q", "5",
                           "--param", "m=3,1", "--param", "n=2,1")
    assert code == 2
    assert "error" in err


def test_params_missing_flags_exit_2(capsys):
    code, _, err = run_cli(capsys, "params", "better-box", "--q", "19")
    assert code == 2
    assert "better-box needs parameter 'm'" in err


@pytest.mark.parametrize("pick", ["d=corner", "d=best"])
def test_params_matdot_half_without_variables_exits_2(capsys, pick):
    code, _, err = run_cli(capsys, "params", "matdot-half", "--q", "5", "--param", "l=0",
                           "--param", "F=1", "--param", pick)
    assert code == 2
    assert "l >= 1" in err


@pytest.mark.parametrize("argv, key", [
    (("sep-vars", "--q", "2", "--param", "mprime=5", "--param", "nprime=5", "--param", "F=8",
      "--param", "FA=3"), "FA"),
    (("poly-box", "--q", "19", "--param", "m=2,2", "--param", "n=6,6", "--param", "F=9"), "F"),
], ids=["sep-vars-F-and-FA", "poly-box-F"])
def test_params_unused_or_conflicting_key_exits_2(capsys, argv, key):
    code, out, err = run_cli(capsys, "params", *argv)
    assert code == 2 and out == ""
    assert f"unused parameters for {argv[0]}: ['{key}']" in err


@pytest.mark.parametrize("command", [("params",), ("enum", "solution")],
                         ids=["params", "enum-solution"])
@pytest.mark.parametrize("argv, token", [
    (("matdot-half", "--q", "8", "--param", "l=3 F=17", "--param", "d=corner"), "l=3 F=17"),
    (("poly-box", "--q", "19", "--param", "m=2, 2", "--param", "n=6,9"), "m=2, 2"),
], ids=["two-keys", "split-value"])
def test_param_with_whitespace_exits_2_naming_it(capsys, command, argv, token):
    code, out, err = run_cli(capsys, *command, *argv)
    assert code == 2 and out == ""
    assert f"--param {token!r} is not one KEY=VALUE token" in err


@pytest.mark.parametrize("argv", [("params", "--help"), ("enum", "solution", "--help")],
                         ids=["params", "enum-solution"])
def test_construction_help_lists_every_kinds_keys(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    assert exc.value.code == 0
    out = capsys.readouterr().out
    keys = {
        "poly-box": "m=<vec> n=<vec>",
        "better-box": "m=<vec> F=<int>",
        "sep-vars": "mprime=<int> nprime=<int> and F=<int>, or FA=<int> FB=<int>",
        "matdot-half": "l=<int> F=<int> and one of d=<vec> | d=corner | d=best",
        "matdot-box": "m=<vec>",
    }
    for kind, text in keys.items():
        assert re.search(rf"^ *{kind} +{re.escape(text)}$", out, re.M), kind


# One descriptor per kind; params, enum and a simulate config must agree on it.
PARITY = [
    ("poly-box", 19, ("m=2,2", "n=6,6")),
    ("better-box", 19, ("m=2,2", "F=64")),
    ("sep-vars", 2, ("mprime=2", "nprime=2", "F=2")),
    ("matdot-box", 8, ("m=2,2",)),
    ("matdot-half", 8, ("l=2", "F=9", "d=corner")),
]


@pytest.mark.parametrize("kind, q, params", PARITY, ids=[kind for kind, _, _ in PARITY])
def test_descriptor_parity_across_subcommands(capsys, tmp_path, kind, q, params):
    flags = [x for p in params for x in ("--param", p)]
    code, out, _ = run_cli(capsys, "params", kind, "--q", str(q), *flags, "--json")
    assert code == 0
    info = json.loads(out)

    code, _, err = run_cli(capsys, "enum", "solution", kind, "--q", str(q), *flags,
                           "--set", "sum", "--stats")
    assert code == 0
    size, fb, witness = re.match(r"size=(\d+) FB=(\d+) witness=\(([\d,]*)\)", err).groups()

    cfg = tmp_path / "parity.cfg"
    cfg.write_text(f"field = {q}\nconstruction = {' '.join([kind, *params])}\n"
                   f"r = 4\ns = 4\nt = 4\nN = {info['N']}\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "simulate", "--config", str(cfg))
    assert code == 0 and "decoded == oracle: True" in out
    kappa = int(re.search(r"^kappa: (\d+)$", out, re.M).group(1))
    footprint = simulator.plan(simulator.SimConfig.from_file(cfg)).solution.footprint

    assert info["FB"] == int(fb) == footprint.value
    assert info["FB_witness"] == [int(x) for x in witness.split(",")] == list(footprint.witness)
    assert int(size) == kappa


# ---------------------------------------------------------------------------
# table


@pytest.mark.parametrize("ident", tables.TABLE_IDS)
def test_table_matches_golden(capsys, ident):
    code, out, err = run_cli(capsys, "table", ident)
    assert code == 0
    assert "matches golden" in err
    golden = tables.golden_text(ident)
    assert out == golden


def test_table_unknown_id(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["table", "T9"])
    assert exc.value.code == 2


def test_table_mismatch_exits_3(capsys, tmp_path):
    src = tables.golden_text("T3")
    (tmp_path / "T3.tsv").write_text(src.replace("961", "999"), encoding="utf-8")
    code, _, err = run_cli(capsys, "table", "T3", "--golden-dir", str(tmp_path))
    assert code == 3
    assert "MISMATCH" in err


def test_table_out_file(capsys, tmp_path):
    out_path = tmp_path / "t1.tsv"
    code, _, _ = run_cli(capsys, "table", "T1", "--out", str(out_path))
    assert code == 0
    assert out_path.read_text(encoding="utf-8") == tables.golden_text("T1")


# ---------------------------------------------------------------------------
# enum


def test_enum_hyp_matches_brute_force(capsys):
    code, out, _ = run_cli(capsys, "enum", "hyp", "--q", "11", "--l", "2", "--F", "53")
    assert code == 0
    import itertools, math
    brute = [a for a in itertools.product(range(11), repeat=2)
             if math.prod(11 - x for x in a) >= 53]
    lines = out.strip().splitlines()
    assert len(lines) == len(brute)
    assert lines[0] == "(0,0)"
    assert "(6,0)" in lines and "(5,2)" in lines and "(2,5)" in lines and "(0,6)" in lines


def test_enum_hyp_stats(capsys):
    code, out, err = run_cli(capsys, "enum", "hyp", "--q", "2", "--l", "5", "--F", "8",
                             "--stats")
    assert code == 0
    assert len(out.strip().splitlines()) == 16
    assert "size=16" in err


def test_enum_hyp_empty(capsys):
    code, out, err = run_cli(capsys, "enum", "hyp", "--q", "5", "--l", "1", "--F", "6",
                             "--stats")
    assert code == 0
    assert out == ""
    assert "size=0" in err


def test_enum_capacity_exits_4(capsys):
    code, _, err = run_cli(capsys, "enum", "hyp", "--q", "2", "--l", "30", "--F", "2")
    assert code == 4


def test_enum_solution_sets(capsys):
    code, out, _ = run_cli(capsys, "enum", "solution", "poly-box", "--q", "19",
                           "--param", "m=2,2", "--param", "n=6,6", "--set", "da")
    assert code == 0
    assert out.splitlines() == ["(0,0)", "(0,1)", "(1,0)", "(1,1)"]
    code, out, _ = run_cli(capsys, "enum", "solution", "matdot-half", "--q", "8",
                           "--param", "l=3", "--param", "F=57", "--param", "d=corner",
                           "--set", "sum", "--stats")
    assert code == 0


def test_enum_solution_parses_params_like_a_descriptor(capsys):
    base = ("enum", "solution", "sep-vars", "--q", "2", "--param", "mprime=2", "--param", "nprime=2",
            "--param", "F=2")
    code, out, _ = run_cli(capsys, *base)
    assert code == 0 and out
    code, out, err = run_cli(capsys, *base, "--param", "F=4")
    assert code == 2 and out == ""
    assert "'F' given twice" in err
    code, _, err = run_cli(capsys, *base, "--param", "oops")
    assert code == 2 and "bad construction parameter 'oops'" in err


# ---------------------------------------------------------------------------
# simulate


@pytest.fixture
def table3_config(tmp_path):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(
        "field = 2\n"
        "construction = sep-vars mprime=5 nprime=5 F=8\n"
        "r = 8\ns = 32\nt = 8\nN = 1024\n"
        "straggler.kind = adversarial\n"
        "straggler.param = " + ",".join(str(i) for i in range(63)) + "\n"
        "seed = 5\ntrials = 0\n",
        encoding="utf-8",
    )
    return cfg


def test_simulate_tolerates_63_drops(capsys, table3_config, tmp_path):
    out_file = tmp_path / "transcript.txt"
    code, out, _ = run_cli(capsys, "simulate", "--config", str(table3_config),
                           "--out", str(out_file))
    assert code == 0
    assert "success: True" in out
    assert len(out_file.read_text(encoding="utf-8").splitlines()) == 961


def test_simulate_fails_with_64_drops(capsys, table3_config):
    code, out, _ = run_cli(capsys, "simulate", "--config", str(table3_config),
                           "--set", "straggler.param=" + ",".join(str(i) for i in range(64)))
    assert code == 5
    assert "success: False" in out


def test_simulate_seed_determinism(capsys, table3_config, tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    assert run_cli(capsys, "simulate", "--config", str(table3_config),
                   "--set", "seed=7", "--out", str(a))[0] == 0
    assert run_cli(capsys, "simulate", "--config", str(table3_config),
                   "--set", "seed=7", "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_simulate_seed_flag_is_gone(capsys, table3_config):
    """`--set seed=N` is the one way to override the seed."""
    with pytest.raises(SystemExit) as exc:
        cli.main(["simulate", "--config", str(table3_config), "--seed", "7"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 7" in capsys.readouterr().err


def test_simulate_config_errors_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("field = 2\n", encoding="utf-8")
    assert run_cli(capsys, "simulate", "--config", str(bad))[0] == 2
    assert run_cli(capsys, "simulate", "--config", str(tmp_path / "missing.cfg"))[0] == 2


@pytest.fixture
def gf19_config(tmp_path):
    """A small GF(19) scheme with no straggler model."""
    cfg = tmp_path / "gf19.cfg"
    cfg.write_text(
        "field = 19\nconstruction = poly-box m=2,2 n=2,2\n"
        "r = 4\ns = 3\nt = 4\nN = 361\nseed = 1\n",
        encoding="utf-8",
    )
    return cfg


@pytest.mark.parametrize("order", [("kind", "param"), ("param", "kind")])
def test_simulate_set_straggler_kind_and_param_in_either_order(capsys, gf19_config, order,
                                                               tmp_path):
    sets = {"kind": "straggler.kind=random", "param": "straggler.param=0.2"}
    argv = ["simulate", "--config", str(gf19_config), "--out", str(tmp_path / "t.txt")]
    for which in order:
        argv += ["--set", sets[which]]
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert "success: True" in out and "responses used: 106" in out
    used = [int(line.split()[0]) for line in (tmp_path / "t.txt").read_text().splitlines()]
    assert len(used) == 106 and used != list(range(106))  # some of the first 106 dropped


def test_simulate_repeated_set_exits_2(capsys, gf19_config):
    """A key given twice by --set raises and is named, as in a config file."""
    code, out, err = run_cli(capsys, "simulate", "--config", str(gf19_config),
                             "--set", "seed=9", "--set", "N=300", "--set", "seed=4")
    assert code == 2 and out == ""
    assert "config key 'seed' given twice" in err


def test_simulate_set_replaces_the_files_value(capsys, gf19_config):
    code, out, err = run_cli(capsys, "simulate", "--config", str(gf19_config), "--set", "N=300")
    assert (code, err) == (0, "")
    assert "workers: 300" in out


def test_simulate_matdot_half_without_variables_exits_2(capsys, gf19_config):
    code, _, err = run_cli(capsys, "simulate", "--config", str(gf19_config),
                           "--set", "construction=matdot-half l=0 F=1 d=corner")
    assert code == 2
    assert "l >= 1" in err


def test_simulate_config_with_a_repeated_key_exits_2(capsys, gf19_config):
    """A key the file gives twice raises, even when --set overrides it."""
    gf19_config.write_text(gf19_config.read_text() + "N = 300\n", encoding="utf-8")
    for sets in ([], ["--set", "N=200"]):
        code, out, err = run_cli(capsys, "simulate", "--config", str(gf19_config), *sets)
        assert code == 2 and out == ""
        assert "config key 'N' given twice" in err


@pytest.mark.parametrize("token, match", [
    ("r=x", "r = 'x'"),
    ("sead=7", "unknown config key 'sead'"),
    ("#seed=4", "bad --set '#seed=4'"),
    ("seed", "bad --set 'seed'"),
])
def test_simulate_set_errors_exit_2(capsys, gf19_config, token, match):
    code, out, err = run_cli(capsys, "simulate", "--config", str(gf19_config), "--set", token)
    assert code == 2 and out == ""
    assert match in err



@pytest.mark.parametrize("token, match", [
    ("r=0", "config r = 0: must be >= 1"),
    ("N=-4", "config N = -4: must be >= 1"),
    ("trials=-3", "config trials = -3: must be >= 0"),
    ("seed=-1", "config seed = -1: must be >= 0"),
    ("straggler.param=0.5", "straggler.param = '0.5': none takes no parameter"),
])
def test_simulate_set_out_of_bounds_exit_2(capsys, gf19_config, token, match):
    code, out, err = run_cli(capsys, "simulate", "--config", str(gf19_config), "--set", token)
    assert code == 2 and out == ""
    assert match in err

# ---------------------------------------------------------------------------
# selftest and entry point


def test_selftest_passes(capsys):
    code, out, _ = run_cli(capsys, "selftest")
    assert code == 0
    assert "FAIL" not in out
    assert out.count("PASS") == 9
    assert "PASS FieldSpec.matmul == scalar schoolbook" in out
    assert "PASS exact solve over GF(65521)" in out
    assert "PASS FieldSpec.matmul exact on both sides of the packed float32 word boundary" in out


def test_console_entry_point():
    exe = shutil.which("mvdmm")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run([exe, "params", "poly-box", "--q", "19", "--param", "m=2,2",
                           "--param", "n=6,6"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "k+1=298" in proc.stdout


def test_module_invocation():
    proc = subprocess.run([sys.executable, "-m", "mvdmm.cli", "table", "T7"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == tables.golden_text("T7")
