"""The machine fingerprint printed and stored with every result.

Compare results only within one fingerprint: the solver's numbers depend on
the BLAS build and its thread count. The benchmark reads the thread
variables and never sets them, so oversubscription stays visible.
"""

from __future__ import annotations

import os
import platform

import numpy
import scipy

THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _blas(module) -> str:
    try:
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # builds without the dict form of the config
        return "unknown"
    return f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()


def fingerprint() -> dict[str, object]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas(numpy),
        "scipy_blas": _blas(scipy),
        **{name: os.environ.get(name, "unset") for name in THREAD_VARIABLES},
    }
