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


@pytest.mark.parametrize("env, threads", [
    ({}, 4),
    ({"OPENBLAS_NUM_THREADS": "1"}, 1),
    ({"OMP_NUM_THREADS": "1"}, 1),
    ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 2),
    ({"GOTO_NUM_THREADS": "1", "OMP_NUM_THREADS": "3"}, 1),
    ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, 1),
    ({"OPENBLAS_NUM_THREADS": "x"}, 4),
    ({"OPENBLAS_NUM_THREADS": "16"}, 4),
])
def test_blas_threads_read_as_openblas_reads_them(env, threads, monkeypatch):
    monkeypatch.setattr(parallel, "WORKERS", 4)
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    assert parallel._blas_threads() == threads


def record_threads(monkeypatch, workers):
    """spread over `workers` threads; returns {part: thread id} as tasks record it."""
    monkeypatch.setattr(parallel, "WORKERS", workers)
    ran = {}

    def task(part):
        ran[part] = threading.get_ident()
    return task, ran


@pytest.mark.parametrize("workers", [2, 3])
def test_caller_takes_every_workers_th_part(workers, monkeypatch):
    task, ran = record_threads(monkeypatch, workers)
    before = threading.active_count()
    parallel.spread(task, range(7))
    assert sorted(ran) == list(range(7))
    caller = threading.get_ident()
    assert [p for p in range(7) if ran[p] == caller] == list(range(0, 7, workers))
    assert threading.active_count() == before   # the pool ended with the call


def test_one_worker_or_one_part_starts_no_thread(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a thread pool was started")

    monkeypatch.setattr(parallel, "ThreadPoolExecutor", refuse)
    task, ran = record_threads(monkeypatch, 1)
    parallel.spread(task, range(3))
    monkeypatch.setattr(parallel, "WORKERS", 4)
    parallel.spread(task, [3])
    parallel.spread(task, [])
    assert set(ran) == {0, 1, 2, 3}
    assert set(ran.values()) == {threading.get_ident()}


def test_helper_exception_reaches_caller(monkeypatch):
    monkeypatch.setattr(parallel, "WORKERS", 2)

    def task(part):
        if part == 1:
            raise RuntimeError("helper part failed")

    with pytest.raises(RuntimeError, match="helper part failed"):
        parallel.spread(task, range(2))


def test_helpers_keep_the_callers_errstate(monkeypatch):
    # pytest turns a RuntimeWarning into an error, so an overflow that a helper
    # thread does not see silenced fails the call
    task, ran = record_threads(monkeypatch, 2)

    def overflow(part):
        task(part)
        if part % 2:   # parts 1 and 3, which the helper runs
            np.full(4, 1e308) * 10.0

    with np.errstate(over="ignore"):
        parallel.spread(overflow, range(4))
    assert ran[1] == ran[3] != threading.get_ident()
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        parallel.spread(overflow, range(4))
