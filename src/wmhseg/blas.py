"""OpenBLAS thread control for slice-parallel inference and data-parallel
training.

``single_threaded()`` pins every OpenBLAS library loaded in the process to
one thread and yields the thread count that was in effect before, so the
caller can run that many slices or batch shards concurrently, each on one
core. That count is ``OPENBLAS_NUM_THREADS`` as the process found it when
numpy loaded OpenBLAS (the CPU count if unset, and at most that); setting it
later changes nothing. It finds the libraries in ``/proc/self/maps`` and
calls their ``*_get_num_threads``/``*_set_num_threads`` symbols through
ctypes. Where none is found (no OpenBLAS, or no ``/proc``) it pins nothing
and yields 1.

Nested and concurrent pins share one count: the first pin saves the
previous thread counts, and the last release restores them.
"""

from __future__ import annotations

import contextlib
import ctypes
import threading

# symbol name templates, "{}" is "get" or "set": numpy's bundled 64-bit
# OpenBLAS, scipy's bundled 32-bit one, and plain system builds
_SYMBOLS = ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_",
            "scipy_openblas_{}_num_threads", "openblas_{}_num_threads")

# the OpenBLAS thread count is process-wide, and so is the pin count
_lock = threading.Lock()
_pins = 0
_saved: list[tuple[object, int]] = []


def _controls() -> list[tuple[object, object]]:
    """(get, set) of every loaded OpenBLAS, in library path order."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower()})
    except OSError:
        return []
    found = []
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for name in _SYMBOLS:
            get = getattr(handle, name.format("get"), None)
            set_ = getattr(handle, name.format("set"), None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = (), ctypes.c_int
                set_.argtypes, set_.restype = (ctypes.c_int,), None
                found.append((get, set_))
                break
    return found


@contextlib.contextmanager
def single_threaded():
    """Pin OpenBLAS to one thread inside the block; yields the count before."""
    global _pins, _saved
    with _lock:
        if _pins == 0:
            _saved = [(set_, int(get())) for get, set_ in _controls()]
            for set_, _ in _saved:
                set_(1)
        _pins += 1
        before = min((n for _, n in _saved), default=1)
    try:
        yield before
    finally:
        with _lock:
            _pins -= 1
            if _pins == 0:
                for set_, n in _saved:
                    set_(n)
