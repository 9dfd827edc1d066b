"""CLI surface: subcommands, exit codes, golden diffs, determinism."""

import json
import shutil
import subprocess
import sys

import pytest

from mvdmm import cli, tables


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# params


def test_params_poly_box(capsys):
    code, out, _ = run_cli(capsys, "params", "poly-box", "--q", "19", "--l", "2",
                           "--m", "2,2", "--n", "6,6")
    assert code == 0
    assert "FB=64" in out and "k+1=298" in out and "xi=102" in out and "N=361" in out


def test_params_sep_vars(capsys):
    code, out, _ = run_cli(capsys, "params", "sep-vars", "--q", "2",
                           "--mprime", "5", "--nprime", "5", "--F", "8")
    assert code == 0
    assert "m=16" in out and "k+1=961" in out


def test_params_matdot_half_corner(capsys):
    code, out, _ = run_cli(capsys, "params", "matdot-half", "--q", "8", "--l", "3",
                           "--F", "57", "--corner-d")
    assert code == 0
    assert "m=26" in out and "k+1=456" in out


def test_params_matdot_half_best(capsys):
    code, out, _ = run_cli(capsys, "params", "matdot-half", "--q", "8", "--l", "3",
                           "--F", "9", "--best-d")
    assert code == 0
    assert "m=62" in out


def test_params_json(capsys):
    code, out, _ = run_cli(capsys, "params", "poly-box", "--q", "19",
                           "--m", "2,2", "--n", "6,6", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["FB"] == 64 and data["k+1"] == 298 and data["xi"] == 102


def test_params_invalid_exits_2(capsys):
    code, _, err = run_cli(capsys, "params", "poly-box", "--q", "5",
                           "--m", "3,1", "--n", "2,1")
    assert code == 2
    assert "error" in err


def test_params_missing_flags_exit_2(capsys):
    code, _, err = run_cli(capsys, "params", "better-box", "--q", "19")
    assert code == 2


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
                   "--seed", "7", "--out", str(a))[0] == 0
    assert run_cli(capsys, "simulate", "--config", str(table3_config),
                   "--seed", "7", "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


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


def test_simulate_set_last_value_wins(capsys, gf19_config, tmp_path):
    def transcript(*sets):
        out = tmp_path / "t.txt"
        argv = ["simulate", "--config", str(gf19_config), "--out", str(out)]
        for tok in sets:
            argv += ["--set", tok]
        assert run_cli(capsys, *argv)[0] == 0
        return out.read_text()

    assert transcript("seed=9", "seed=4") == transcript("seed=4") != transcript("seed=9")


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


# ---------------------------------------------------------------------------
# selftest and entry point


def test_selftest_passes(capsys):
    code, out, _ = run_cli(capsys, "selftest")
    assert code == 0
    assert "FAIL" not in out
    assert out.count("PASS") == 5


def test_console_entry_point():
    exe = shutil.which("mvdmm")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run([exe, "params", "poly-box", "--q", "19", "--m", "2,2",
                           "--n", "6,6"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "k+1=298" in proc.stdout


def test_module_invocation():
    proc = subprocess.run([sys.executable, "-m", "mvdmm.cli", "table", "T7"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == tables.golden_text("T7")
