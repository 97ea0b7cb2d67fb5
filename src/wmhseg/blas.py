"""OpenBLAS thread control and the one worker pool of the package.

``run_parallel`` runs independent tasks concurrently, each on one core:
the inference, training and validation shards of 2 slices, and the clean,
mask and corrupted-companion writes of dataset generation. Inside the pool
``single_threaded()`` pins every OpenBLAS library loaded in the process to
one thread and yields the thread count that was in effect before, which is
the pool's budget. That count is ``OPENBLAS_NUM_THREADS`` as the process
found it when numpy loaded OpenBLAS (the CPU count if unset, and at most
that); setting it later changes nothing. It finds the libraries in ``/proc/self/maps`` and
calls their ``*_get_num_threads``/``*_set_num_threads`` symbols through
ctypes. Where none is found (no OpenBLAS, or no ``/proc``) it pins nothing
and yields 1.
"""

from __future__ import annotations

import contextlib
import contextvars
import ctypes
import os
import threading

# symbol name templates, "{}" is "get" or "set": numpy's bundled 64-bit
# OpenBLAS, scipy's bundled 32-bit one, and plain system builds
_SYMBOLS = ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_",
            "scipy_openblas_{}_num_threads", "openblas_{}_num_threads")


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
    """Pin OpenBLAS to one thread inside the block; yields the count before.

    Pins do not nest: no pool task starts a pool, and pools never overlap."""
    saved = [(set_, int(get())) for get, set_ in _controls()]
    for set_, _ in saved:
        set_(1)
    try:
        yield min((n for _, n in saved), default=1)
    finally:
        for set_, n in saved:
            set_(n)


def run_parallel(task, n: int, after_wave=None) -> None:
    """Run ``task(0)`` ... ``task(n - 1)`` concurrently, each on one core.

    A task should carry enough work to pay for its numpy call overheads,
    which hold the GIL: inference and training hand it a shard of 2 slices.

    OpenBLAS is pinned to one thread for the pool, and the calling thread
    plus (budget - 1) workers take indices from one shared counter, in
    index order. The budget is the OpenBLAS thread count in effect before
    (so ``OPENBLAS_NUM_THREADS`` at process start sets it), capped by the
    usable CPUs and ``n``. Workers share process-wide state such as
    ``tensor.no_grad``, and each runs in a copy of the caller's context, so
    the caller's ``np.errstate`` holds on every thread. The first error
    raised by any task is re-raised here once all have stopped.

    With ``after_wave``, the indices run in waves of the budget, and the
    calling thread calls ``after_wave(lo, hi)`` once ``task(lo)`` ...
    ``task(hi - 1)`` have all finished, before the next wave starts.
    """
    take = threading.Lock()
    errors: list[BaseException] = []

    def work(counter):
        try:
            while not errors:
                with take:
                    k = next(counter, None)
                if k is None:
                    return
                task(k)
        except BaseException as exc:  # re-raised on the calling thread
            errors.append(exc)

    with single_threaded() as blas_threads:
        budget = min(blas_threads, usable_cpus(), n)
        width = n if after_wave is None else budget
        for lo in range(0, n, max(width, 1)):
            hi = min(lo + width, n)
            counter = iter(range(lo, hi))
            # the calling thread is one of the workers: fresh threads would
            # each keep freed memory in a heap arena of their own
            workers = [threading.Thread(target=contextvars.copy_context().run,
                                        args=(work, counter))
                       for _ in range(min(budget, hi - lo) - 1)]
            for t in workers:
                t.start()
            work(counter)
            for t in workers:
                t.join()
            if errors:
                raise errors[0]
            if after_wave is not None:
                after_wave(lo, hi)


def usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1
