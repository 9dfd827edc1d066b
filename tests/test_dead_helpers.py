"""No dead helpers: every module-level function, class and assigned name of
the package is named somewhere in the package, the benchmark harness or the
README, outside its own definition.  The package's ``__init__.py`` does not
count: a re-export is not a use.  Tests do not count either, so a helper or
a constant that only a test reads fails here."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mvdmm"

# Names kept without a caller, and why.
ALLOWED = {
    "hyp2_size": "the paper's closed form for q = 2; the acceptance suite compares against it",
    "matdot_q2_fb": "the paper's closed form for binary matdot footprints; "
                    "the acceptance suite compares against it",
}


def _modules():
    return [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]


def _assigned(node):
    """The plain names a module-level assignment binds (dunders such as
    ``__all__`` are read by Python, not by name)."""
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    names = [t for target in targets for t in ast.walk(target) if isinstance(t, ast.Name)]
    return [n.id for n in names if not n.id.startswith("__")]


def _definitions():
    """(file, name, first line, last line) of every module-level def, class
    and assigned name."""
    for path in _modules():
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield path, node.name, node.lineno, node.end_lineno
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                for name in _assigned(node):
                    yield path, name, node.lineno, node.end_lineno


def test_every_module_level_name_has_a_use():
    sources = _modules() + sorted((ROOT / "perfbench").glob("*.py")) + [ROOT / "README.md"]
    lines = {p: p.read_text(encoding="utf-8").splitlines() for p in sources}
    dead = []
    for path, name, first, last in _definitions():
        word = re.compile(rf"\b{name}\b")
        used = any(word.search(line)
                   for p, text in lines.items()
                   for i, line in enumerate(text, 1)
                   if not (p == path and first <= i <= last))
        if not used and name not in ALLOWED:
            dead.append(f"{path.name}:{first} {name}")
    assert not dead, f"no caller in src/, perfbench/ or README.md: {dead}"


def test_allowed_names_still_exist():
    names = {name for _, name, _, _ in _definitions()}
    assert set(ALLOWED) <= names
