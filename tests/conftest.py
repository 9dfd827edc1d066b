"""Pytest set-up shared by every test module."""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")


def pytest_configure(config):
    # pyproject's `pythonpath` puts src/ on this process's sys.path; the tests
    # that run `python -m mvdmm.cli` need it on their children's path too.
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
