"""Row-independent training work spread over the CPUs this process may run on.

`spread` cuts range(n) into contiguous parts, and each part's task writes only
its own slices of the outputs, so results do not depend on the number of
threads, and there is no setting for it. numpy releases the GIL inside its
array operations and BLAS calls, so the parts run concurrently. Importing
sprayseg pins BLAS to one thread, so these threads are its only parallelism.
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


def spans(n: int) -> list[slice]:
    """range(n) cut into min(WORKERS, n) contiguous slices whose lengths differ by at most 1."""
    k = min(WORKERS, n)
    return [slice(n * i // k, n * (i + 1) // k) for i in range(k)]


def spread(task: Callable[[slice], None], n: int) -> None:
    """Call task(part) for each part of `spans(n)`, part 0 in the calling
    thread and the rest in helper threads.

    One part starts no thread. Each helper task runs in a copy of the caller's
    context, so a caller's ``np.errstate`` reaches it. The pool ends with the
    call, and a helper's exception is re-raised here.
    """
    parts = spans(n)
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
