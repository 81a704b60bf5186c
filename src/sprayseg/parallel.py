"""Row-independent training work spread over the CPUs this process may run on.

`spread` cuts range(n) into contiguous parts, and each part's task writes only
its own slices of the outputs, so results do not depend on the number of
threads, and there is no setting for it. numpy releases the GIL inside its
array operations and BLAS calls, so the parts run concurrently.
"""

from __future__ import annotations

import contextvars
import os
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor

# CPUs this process may run on: the most threads `spread` uses at once
try:
    WORKERS = len(os.sched_getaffinity(0))
except AttributeError:   # no sched_getaffinity on this platform
    WORKERS = os.cpu_count() or 1


def _blas_threads() -> int:
    """Threads numpy's BLAS runs one product on, read from the environment as
    OpenBLAS reads it when numpy loads."""
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(var, "")
        if value.isdigit() and int(value) > 0:
            return min(int(value), WORKERS)
    return WORKERS


# read once, as BLAS does: a later change to the environment reaches neither
BLAS_THREADS = _blas_threads()


def spans(n: int) -> list[slice]:
    """range(n) cut into min(WORKERS, n) contiguous slices whose lengths differ by at most 1."""
    k = min(WORKERS, n)
    return [slice(n * i // k, n * (i + 1) // k) for i in range(k)]


def spread(task: Callable[[slice], None], n: int) -> None:
    """Call task(part) for each part of `spans(n)`, part 0 in the calling
    thread and the rest in helper threads; or call task(slice(0, n)) alone
    when BLAS runs its products on several threads, which keep the CPUs busy
    and spin between products, so more threads would only compete with them.

    One part starts no thread. Each helper task runs in a copy of the caller's
    context, so a caller's ``np.errstate`` reaches it. The pool ends with the
    call, and a helper's exception is re-raised here.
    """
    parts = spans(n) if BLAS_THREADS == 1 else [slice(0, n)]
    if len(parts) <= 1:
        for part in parts:
            task(part)
        return
    with ThreadPoolExecutor(len(parts) - 1) as pool:
        helped = [pool.submit(contextvars.copy_context().run, task, part)
                  for part in parts[1:]]
        task(parts[0])
        for f in helped:
            f.result()
