"""Read-only record of the environment a run measured.

BLAS thread counts are read from every OpenBLAS copy the process has
loaded (numpy and scipy each ship one) through their getter functions.
Nothing is set: the benchmark leaves BLAS threading as the libraries
chose it.
"""

from __future__ import annotations

import ctypes
import os
import platform
import sys

_GETTERS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_", "openblas_get_num_threads")
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def loaded_openblas() -> list[str]:
    """Paths of the OpenBLAS libraries mapped into this process."""
    paths = []
    with open("/proc/self/maps") as fh:
        for line in fh:
            path = line.rsplit(None, 1)[-1]
            name = os.path.basename(path).lower()
            if "openblas" in name and path not in paths:
                paths.append(path)
    return paths


def blas_threads() -> dict:
    """Thread count of each loaded OpenBLAS copy, keyed by the library's
    directory and file name (numpy.libs/..., scipy.libs/...)."""
    out = {}
    mode = os.RTLD_NOLOAD | os.RTLD_LAZY  # never loads a library anew
    for path in loaded_openblas():
        lib = ctypes.CDLL(path, mode=mode)
        for getter in _GETTERS:
            func = getattr(lib, getter, None)
            if func is not None:
                func.argtypes = []
                func.restype = ctypes.c_int
                key = os.path.join(os.path.basename(os.path.dirname(path)),
                                   os.path.basename(path))
                out[key] = {"getter": getter, "threads": func()}
                break
    return out


def record() -> dict:
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "blas_threads": blas_threads(),
        "thread_env": {var: os.environ.get(var) for var in _THREAD_VARS},
    }
