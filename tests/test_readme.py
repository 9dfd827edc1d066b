"""The README's Python examples run as written and decode exactly."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_examples_run():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 2  # the library example and the matdot one
    namespace: dict = {}
    for block in blocks:  # the second reuses the first one's imports and rng
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["recovered"] == namespace["codec"].matmul(namespace["a"], namespace["b"])
