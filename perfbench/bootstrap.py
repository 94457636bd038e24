"""Process set-up shared by the benchmark's entry points.

``pin_environment`` must run before numpy is imported: it pins every BLAS
and OpenMP pool to one thread and puts the checkout's ``src`` directory
first on ``sys.path``, so the benchmark measures the library of the
checkout it sits in and nothing installed elsewhere.
"""
from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class MissingLibrary(RuntimeError):
    """The checkout holds no ``src/flagcones`` to measure."""


def pin_environment() -> None:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "flagcones" / "__init__.py").is_file():
        raise MissingLibrary(f"no flagcones sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def check_import() -> None:
    """Fail unless ``flagcones`` resolved to this checkout's sources."""
    import flagcones

    if Path(flagcones.__file__).resolve().parent != SRC / "flagcones":
        raise MissingLibrary(f"flagcones imported from {flagcones.__file__}, not {SRC}")


def environment() -> dict:
    """Versions and thread settings that a timing depends on."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_config": blas.get("openblas configuration", ""),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }
