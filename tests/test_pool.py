"""Persistent worker pool: the engine behind ``parallel_map``.

The pool must be invisible except for speed: ``WorkerPool.map`` returns
exactly ``[fn(x) for x in items]`` at any worker count, a SIGKILLed
worker is respawned with its lost tasks resubmitted in order, a task
that keeps killing workers fails with :class:`WorkerCrashError` instead
of wedging the pool, and arrays ride the task pickle to workers with
the same bytes.
"""

import os
import signal

import numpy as np
import pytest

from repro.faults.policy import RetryPolicy
from repro.perf.executor import in_worker, parallel_map
from repro.perf.pool import (
    WorkerCrashError,
    WorkerPool,
    get_pool,
    shutdown_pool,
)


@pytest.fixture
def pool():
    worker_pool = WorkerPool(workers=2)
    yield worker_pool
    worker_pool.shutdown()


@pytest.fixture(autouse=True)
def _reset_shared_pool():
    # Tests below may widen or crash workers of the process-wide pool;
    # tear it down so later test modules fork a fresh one.
    yield
    shutdown_pool()


# ----------------------------------------------------------- task fns
# Module-level on purpose: pool tasks are pickled by reference.


def _square(x):
    return x * x


def _boom(x):
    raise ValueError(f"bad item {x}")


def _kill_self(_):
    os.kill(os.getpid(), signal.SIGKILL)


def _kill_if_flag(flag):
    if os.path.exists(flag):
        os.unlink(flag)
        os.kill(os.getpid(), signal.SIGKILL)
    return "survived"


def _array_sum(array):
    return float(np.sum(array))


def _nested_map(items):
    assert in_worker()
    return parallel_map(_square, items, workers=4)


# ------------------------------------------------------------ mapping


class TestDeterministicMap:
    def test_map_matches_serial(self, pool):
        items = list(range(23))
        expected = [_square(x) for x in items]
        for chunksize in (1, 3, 50):
            assert pool.map(_square, items, chunksize=chunksize) == expected

    def test_arrays_round_trip_through_workers(self, pool):
        a = np.arange(1000, dtype=np.float64)
        b = np.ones((40, 50), dtype=np.float32)
        assert pool.map(_array_sum, [a, b]) == [float(a.sum()), float(b.sum())]

    def test_more_workers_than_items(self):
        wide = WorkerPool(workers=4)
        try:
            assert wide.map(_square, [7]) == [49]
            assert wide.map(_square, []) == []
        finally:
            wide.shutdown()

    def test_submit_results_keep_submission_order(self, pool):
        futures = [pool.submit(_square, x) for x in range(10)]
        assert [f.result(timeout=30) for f in futures] == [
            x * x for x in range(10)
        ]

    def test_task_exception_propagates_and_pool_survives(self, pool):
        future = pool.submit(_boom, 3)
        with pytest.raises(ValueError, match="bad item 3"):
            future.result(timeout=30)
        assert pool.map(_square, [1, 2, 3]) == [1, 4, 9]

    def test_nested_parallel_map_degrades_to_serial(self, pool):
        items = list(range(6))
        result = pool.submit(_nested_map, items).result(timeout=30)
        assert result == [x * x for x in items]

    def test_parallel_map_engines_agree(self):
        # The pool and the serial loop are the two paths parallel_map
        # takes; they must return the same values in the same order.
        items = list(range(17))
        expected = [_square(x) for x in items]
        assert parallel_map(_square, items, workers=1) == expected
        assert parallel_map(_square, items, workers=2) == expected


# ----------------------------------------------------- crash recovery


class TestCrashRecovery:
    def test_killed_worker_is_respawned_and_task_rerun(
        self, pool, tmp_path
    ):
        flag = tmp_path / "kill-once"
        flag.touch()
        future = pool.submit(_kill_if_flag, str(flag))
        assert future.result(timeout=60) == "survived"
        assert pool.respawns >= 1
        assert not flag.exists()
        assert pool.map(_square, [5, 6]) == [25, 36]

    def test_queued_tasks_on_dead_worker_are_resubmitted(self, tmp_path):
        narrow = WorkerPool(workers=1)
        try:
            flag = tmp_path / "kill-once"
            flag.touch()
            first = narrow.submit(_kill_if_flag, str(flag))
            rest = [narrow.submit(_square, x) for x in range(5)]
            assert first.result(timeout=60) == "survived"
            assert [f.result(timeout=60) for f in rest] == [
                x * x for x in range(5)
            ]
        finally:
            narrow.shutdown()

    def test_persistent_crasher_raises_worker_crash_error(self, pool):
        future = pool.submit(_kill_self, None)
        with pytest.raises(WorkerCrashError, match="crashed its worker"):
            future.result(timeout=120)
        # The crash budget is the sampler's retry policy.
        assert pool.respawns == RetryPolicy().max_retries + 1
        assert pool.map(_square, [9]) == [81]


# ----------------------------------------------------------- lifecycle


class TestLifecycle:
    def test_get_pool_is_reused_and_widens(self):
        first = get_pool(1)
        assert get_pool(1) is first
        wider = get_pool(2)
        assert wider.workers >= 2
        assert get_pool(1) is wider

    def test_shutdown_rejects_new_submissions(self):
        worker_pool = WorkerPool(workers=1)
        worker_pool.shutdown()
        with pytest.raises(RuntimeError, match="shut down"):
            worker_pool.submit(_square, 1)
        worker_pool.shutdown()  # idempotent
