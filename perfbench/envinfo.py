"""Environment block recorded with every result.

The OpenBLAS thread counts are read through each loaded library's own *get*
functions and never set: the benchmark measures the library as a caller would
run it, so oversubscription between sweep workers and BLAS threads shows in
the numbers.
"""

from __future__ import annotations

import ctypes
import os
import platform

import numpy
import scipy

# (thread-count getter, configuration getter) of numpy's ILP64 build and scipy's LP64 build.
_OPENBLAS_GETTERS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_config64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_get_config"),
)


def _loaded_openblas() -> list[str]:
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return []
    return sorted(p for p in paths if os.path.isfile(p))


def openblas_builds() -> list[dict]:
    builds = []
    for path in _loaded_openblas():
        lib = ctypes.CDLL(path)
        for threads_name, config_name in _OPENBLAS_GETTERS:
            if hasattr(lib, threads_name) and hasattr(lib, config_name):
                get_threads = getattr(lib, threads_name)
                get_threads.argtypes = []
                get_threads.restype = ctypes.c_int
                get_config = getattr(lib, config_name)
                get_config.argtypes = []
                get_config.restype = ctypes.c_char_p
                config = get_config().decode("ascii", "replace")
                builds.append({
                    "library": os.path.basename(path),
                    "version": config.split()[1] if config.startswith("OpenBLAS ") else config,
                    "config": config,
                    "threads": get_threads(),
                })
                break
    return builds


def environment(loadavg_start) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas_builds(),
        "loadavg_start": list(loadavg_start),
    }
