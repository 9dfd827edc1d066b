"""The benchmark's tracer wraps library functions it looks up by name; every
name it lists must exist, or `perfbench/run.py --trace 1` breaks.  The file is
parsed, not imported, so this test has no side effects on the environment."""

import ast
from pathlib import Path

from mvdmm import _linalg, codec, constructions, exponents

RUN_PY = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"

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
