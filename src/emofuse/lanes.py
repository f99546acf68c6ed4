"""A second lane: one FIFO helper thread, for work whose bits do not depend on the thread.

NumPy releases the GIL in its loops and BLAS calls, so the helper keeps a second core
busy. Two lanes run with at least 2 CPUs and a BLAS pinned to one thread by the
environment; with one lane the helper's work runs inline, in the same functions."""

import os
from concurrent import futures

import numpy as np


def _blas_pinned() -> bool:
    """Whether the first positive thread count the BLAS reads from the environment is 1."""
    deps = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {})
    names = ("MKL", "OMP") if "mkl" in str(deps.get("blas")) else ("OPENBLAS", "GOTO", "OMP")
    counts = [os.environ.get(f"{name}_NUM_THREADS", "").strip() for name in names]
    return next((c for c in counts if c.isdigit() and int(c) > 0), None) == "1"


_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
# The helper thread, or None for one lane; chosen once, at import.
helper = futures.ThreadPoolExecutor(1, "emofuse-helper") if _CPUS >= 2 and _blas_pinned() else None


def submit(fn, *args) -> futures.Future:
    """``fn(*args)`` on the helper after the work submitted before it, its result or
    error kept in the future; with one lane, run here and now."""
    if helper is not None:
        return helper.submit(fn, *args)
    done = futures.Future()
    done.set_result(fn(*args))
    return done


def share(fn, items: list) -> list:
    """``[fn(item) for item in items]``: this thread and the helper each take the next
    unclaimed item until none are left. After an error nothing more is claimed, and
    the error propagates once the helper's current item has finished."""
    results = [None] * len(items)
    claims = iter(range(len(items)))  # next() on it is atomic under the GIL

    def drain():
        try:
            for i in claims:
                results[i] = fn(items[i])
        finally:
            list(claims)  # after an error, leave nothing to claim

    helping = submit(drain)
    try:
        drain()
    finally:
        futures.wait([helping])
    helping.result()
    return results
