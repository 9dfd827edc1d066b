"""Process set-up shared by the benchmark's entry points.

`prepare` must run before numpy is imported: it pins every BLAS/OpenMP pool
to one thread, so the benchmark is one process with one compute thread, and
it makes the library importable from this checkout's ``src`` directory only.
"""

from __future__ import annotations

import os
import platform
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


def prepare() -> None:
    if "numpy" in sys.modules:
        raise RuntimeError("prepare() must run before numpy is imported")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "mvdmm" / "__init__.py").is_file():
        sys.exit(f"perfbench: no library source at {SRC / 'mvdmm'}")
    sys.path.insert(0, str(SRC))


def record() -> dict:
    """What the numbers depend on besides the code: cores, versions, pools."""
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "python_threads": threading.active_count(),
        **{var: os.environ.get(var) for var in THREAD_VARS},
    }
