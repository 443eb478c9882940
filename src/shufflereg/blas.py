"""Single-threaded OpenBLAS for the duration of a computation.

numpy bundles its own OpenBLAS, an ILP64 build that exports
``scipy_openblas_{get,set}_num_threads64_``. scipy bundles another, an LP64
build, but the library calls scipy only for ``linear_sum_assignment``, whose
extension links no BLAS, so that build is left alone. ``single_threaded()``
sets numpy's build to one thread and restores its previous count on exit;
it also works as a decorator. Every public function of ``estimators``,
``lap_maximize``, instance synthesis, the singular values and relative signal
error of ``metrics`` and whole sweeps run inside it, because the thread
count changes the roundoff of lstsq and matrix products, so their output would
otherwise depend on the machine's core count; a sweep also keeps BLAS threads
from competing with its own trial workers. The setting is process-wide:
other threads that call BLAS meanwhile are single-threaded too.

The builds are found through ``/proc/self/maps`` on first use, never at
import, and cached. Where none is found (another platform or BLAS vendor),
``single_threaded()`` does nothing. Nested and concurrent uses share one
depth counter, so the caller's counts are saved by the first to enter and
restored once, by the last to leave.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import threading
from typing import Callable, NamedTuple

# Thread-count symbols of numpy's ILP64 build.
_GET, _SET = "scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"

_lock = threading.Lock()
_depth = 0
_saved: list[tuple[Callable[[int], None], int]] = []


class OpenBlasBuild(NamedTuple):
    path: str
    get_threads: Callable[[], int]
    set_threads: Callable[[int], None]


@functools.cache
def openblas_builds() -> tuple[OpenBlasBuild, ...]:
    """Every OpenBLAS build loaded in this process that exports numpy's thread-count symbols."""
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        return ()
    builds = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        if hasattr(lib, _GET) and hasattr(lib, _SET):
            get, set_ = getattr(lib, _GET), getattr(lib, _SET)
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            builds.append(OpenBlasBuild(path, get, set_))
    return tuple(builds)


@contextlib.contextmanager
def single_threaded():
    """Run the body with numpy's OpenBLAS build at one thread."""
    global _depth
    with _lock:
        if _depth == 0:
            for build in openblas_builds():
                _saved.append((build.set_threads, build.get_threads()))
                build.set_threads(1)
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0:
                while _saved:
                    set_threads, count = _saved.pop()
                    set_threads(count)
