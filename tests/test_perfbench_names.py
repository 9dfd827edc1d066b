"""The benchmark's tracer wraps library functions it looks up by name; every
name it lists must exist, or `perfbench/run.py --trace 1` breaks.  The file is
parsed, not imported, so this test has no side effects on the environment."""

import ast
from pathlib import Path

from mvdmm import _linalg, codec, constructions, exponents, simulator, tables
from mvdmm.field import FieldSpec

RUN_PY = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"

# Owners of the targets that make_tracer names by attribute, outside the lists.
OWNERS = {"FieldSpec": FieldSpec, "simulator": simulator, "tables": tables}

MODULES = {
    "CODEC_FUNCS": codec,
    "LINALG_FUNCS": _linalg,
    "EXPONENT_FUNCS": exponents,
    "CONSTRUCTION_FUNCS": constructions,
}


def test_traced_function_names_exist():
    tree = ast.parse(RUN_PY.read_text(encoding="utf-8"))
    lists = {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
        and node.targets[0].id in MODULES
    }
    assert set(lists) == set(MODULES)
    for const, names in lists.items():
        missing = [n for n in names if not callable(getattr(MODULES[const], n, None))]
        assert not missing, f"{const}: {missing}"


def test_traced_attribute_targets_exist():
    tree = ast.parse(RUN_PY.read_text(encoding="utf-8"))
    tracer = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "make_tracer")
    targets = [
        (call.args[0].id, call.args[1].value)
        for call in ast.walk(tracer)
        if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
        and call.func.attr == "Target" and isinstance(call.args[1], ast.Constant)
    ]
    assert {owner for owner, _ in targets} == set(OWNERS)
    missing = [t for t in targets if not callable(getattr(OWNERS[t[0]], t[1], None))]
    assert not missing, missing
