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

The two symbols are looked up once, at import, in numpy's linalg extension:
the dynamic loader resolves them through that extension's own dependencies,
so they belong to the build that serves numpy's lstsq, SVD and ``@``.
``_threads`` is that ``(get, set)`` pair, or ``None`` where the lookup fails
(another BLAS vendor, or a platform whose loader does not search an
extension's dependencies); ``single_threaded()`` then does nothing. Nested and
concurrent uses share one depth counter, so the caller's count is saved by
the first to enter and restored once, by the last to leave.
"""

from __future__ import annotations

import contextlib
import ctypes
import threading


def _lookup():
    try:
        from numpy.linalg import _umath_linalg

        lib = ctypes.CDLL(_umath_linalg.__file__)
        get = lib.scipy_openblas_get_num_threads64_
        set_ = lib.scipy_openblas_set_num_threads64_
    except (ImportError, OSError, AttributeError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


_threads = _lookup()

_lock = threading.Lock()
_depth = 0
_saved = 0


@contextlib.contextmanager
def single_threaded():
    """Run the body with numpy's OpenBLAS build at one thread."""
    global _depth, _saved
    with _lock:
        if _depth == 0 and _threads is not None:
            _saved = _threads[0]()
            _threads[1](1)
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0 and _threads is not None:
                _threads[1](_saved)
