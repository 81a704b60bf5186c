import threading

import numpy as np
import pytest

from sprayseg import parallel


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 8, 35])
def test_spans_cover_range_in_order(workers, n, monkeypatch):
    monkeypatch.setattr(parallel, "WORKERS", workers)
    parts = parallel.spans(n)
    assert len(parts) == min(workers, n)
    assert [i for s in parts for i in range(n)[s]] == list(range(n))
    lengths = [s.stop - s.start for s in parts]
    assert all(lengths) and max(lengths, default=0) - min(lengths, default=0) <= 1


def record_threads(monkeypatch, workers):
    """spread over `workers` threads; returns a task and the list of
    (part, thread id) to which it appends."""
    monkeypatch.setattr(parallel, "WORKERS", workers)
    ran = []

    def task(part):
        ran.append((part, threading.get_ident()))
    return task, ran


@pytest.mark.parametrize("workers", [2, 3])
def test_spans_in_order_and_caller_takes_part_0(workers, monkeypatch):
    task, ran = record_threads(monkeypatch, workers)
    before = threading.active_count()
    parallel.spread(task, 7)
    ran.sort(key=lambda r: r[0].start)
    assert [part for part, _ in ran] == parallel.spans(7)
    caller = threading.get_ident()
    assert [i for i, (_, thread) in enumerate(ran) if thread == caller] == [0]
    assert threading.active_count() == before   # the pool ended with the call


def test_one_worker_or_one_part_starts_no_thread(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a thread pool was started")

    monkeypatch.setattr(parallel, "ThreadPoolExecutor", refuse)
    task, ran = record_threads(monkeypatch, 1)
    parallel.spread(task, 3)
    monkeypatch.setattr(parallel, "WORKERS", 4)
    parallel.spread(task, 1)
    parallel.spread(task, 0)
    assert [part for part, _ in ran] == [slice(0, 3), slice(0, 1)]
    assert {thread for _, thread in ran} == {threading.get_ident()}


def test_helper_exception_reaches_caller(monkeypatch):
    monkeypatch.setattr(parallel, "WORKERS", 2)

    def task(part):
        if part.start > 0:
            raise RuntimeError("helper part failed")

    with pytest.raises(RuntimeError, match="helper part failed"):
        parallel.spread(task, 2)


def test_helpers_keep_the_callers_errstate(monkeypatch):
    # pytest turns a RuntimeWarning into an error, so an overflow that a helper
    # thread does not see silenced fails the call
    task, ran = record_threads(monkeypatch, 2)

    def overflow(part):
        task(part)
        if part.start > 0:   # rows 2 and 3, which the helper runs
            np.full(4, 1e308) * 10.0

    with np.errstate(over="ignore"):
        parallel.spread(overflow, 4)
    assert dict((part.start, thread) for part, thread in ran)[2] != threading.get_ident()
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        parallel.spread(overflow, 4)
