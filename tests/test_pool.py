"""The shared process pool: the engine behind ``parallel_map``.

The pool must be invisible except for speed: mapping through it returns
exactly ``[fn(x) for x in items]`` at any worker count, and arrays ride
the task pickle to workers with the same bytes.  A worker that dies
breaks the pool loudly with ``BrokenProcessPool``; the next
``get_pool`` forks a fresh one, exactly once per break.  Every
exception class ``repro`` defines survives the pickle round trip, so a
task error crosses the process boundary as itself instead of breaking
the pool.
"""

import importlib
import inspect
import multiprocessing
import os
import pickle
import pkgutil
import signal
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

import repro
from repro.core.sampler import ChannelOutageError
from repro.perf import pool as pool_module
from repro.perf.executor import in_worker, parallel_map
from repro.perf.pool import get_pool, shutdown_pool


@pytest.fixture
def pool():
    return get_pool(2)


@pytest.fixture(autouse=True)
def _reset_shared_pool():
    # Tests below may widen or break the process-wide pool; tear it
    # down so later test modules fork a fresh one.
    shutdown_pool()
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


def _array_sum(array):
    return float(np.sum(array))


def _nested_map(items):
    assert in_worker()
    return parallel_map(_square, items, workers=4)


def _raise_outage(_):
    raise ChannelOutageError("fpga", "current", "dead", 2)


# ------------------------------------------------------------ mapping


class TestDeterministicMap:
    def test_map_matches_serial(self):
        items = list(range(23))
        expected = [_square(x) for x in items]
        for chunksize in (1, 3, 50):
            assert (
                parallel_map(_square, items, workers=2, chunksize=chunksize)
                == expected
            )

    def test_arrays_round_trip_through_workers(self):
        a = np.arange(1000, dtype=np.float64)
        b = np.ones((40, 50), dtype=np.float32)
        assert parallel_map(_array_sum, [a, b], workers=2) == [
            float(a.sum()),
            float(b.sum()),
        ]

    def test_more_workers_than_items(self):
        wide = get_pool(4)
        assert list(wide.map(_square, [7])) == [49]
        assert list(wide.map(_square, [])) == []

    def test_submit_results_keep_submission_order(self, pool):
        futures = [pool.submit(_square, x) for x in range(10)]
        assert [f.result(timeout=30) for f in futures] == [
            x * x for x in range(10)
        ]

    def test_task_exception_propagates_and_pool_survives(self, pool):
        future = pool.submit(_boom, 3)
        with pytest.raises(ValueError, match="bad item 3"):
            future.result(timeout=30)
        assert get_pool(2) is pool
        assert parallel_map(_square, [1, 2, 3], workers=2) == [1, 4, 9]

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


# ---------------------------------------------------- worker death


class TestCrashRecovery:
    def test_killed_worker_breaks_pool_and_next_get_pool_rebuilds(
        self, pool
    ):
        before = pool_module.rebuilds()
        with pytest.raises(BrokenProcessPool):
            pool.submit(_kill_self, None).result(timeout=60)
        fresh = get_pool(2)
        assert fresh is not pool
        assert pool_module.rebuilds() == before + 1
        assert list(fresh.map(_square, [5, 6])) == [25, 36]

    def test_worker_death_fails_parallel_map_loudly(self):
        with pytest.raises(BrokenProcessPool):
            parallel_map(_kill_self, [1, 2], workers=2)
        assert parallel_map(_square, [9, 10], workers=2) == [81, 100]


# --------------------------------------------------------- task errors


def _repro_exception_classes():
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        for obj in vars(module).values():
            if (
                inspect.isclass(obj)
                and issubclass(obj, BaseException)
                and obj.__module__ == info.name
            ):
                yield obj


#: Constructor arguments of the exception classes whose ``__init__``
#: takes fields instead of one message.
_FIELD_ARGS = {
    "ChannelOutageError": ("fpga", "current", "dead", 2),
    "ChannelDeadError": ("ddr", "power", "pinned dead", 5),
    "StreamInterrupted": ("lpd", "voltage", 17, "device gone"),
}


class TestTaskErrors:
    def test_every_repro_exception_round_trips(self):
        classes = sorted(
            set(_repro_exception_classes()), key=lambda cls: cls.__name__
        )
        assert len(classes) >= 12
        for cls in classes:
            error = cls(*_FIELD_ARGS.get(cls.__name__, ("boom",)))
            clone = pickle.loads(pickle.dumps(error))
            assert type(clone) is cls
            assert str(clone) == str(error)
            assert vars(clone) == vars(error), cls.__name__

    def test_repro_exception_from_worker_keeps_pool_alive(self, pool):
        with pytest.raises(ChannelOutageError) as raised:
            pool.submit(_raise_outage, None).result(timeout=30)
        assert raised.value.retries == 2
        assert raised.value.message == "dead"
        assert get_pool(2) is pool
        assert list(pool.map(_square, [4])) == [16]


# ----------------------------------------------------------- lifecycle


class TestLifecycle:
    def test_get_pool_is_reused_and_widens(self):
        first = get_pool(1)
        assert get_pool(1) is first
        wider = get_pool(2)
        assert wider is not first
        assert get_pool(1) is wider

    def test_get_pool_forks_workers_before_returning(self):
        get_pool(2)
        workers = [
            child
            for child in multiprocessing.active_children()
            if child.is_alive()
        ]
        assert len(workers) >= 2

    def test_shutdown_rejects_new_submissions(self):
        shared = get_pool(1)
        workers = multiprocessing.active_children()
        shutdown_pool()
        assert not any(worker.is_alive() for worker in workers)
        with pytest.raises(RuntimeError, match="shutdown"):
            shared.submit(_square, 1)
        shutdown_pool()  # idempotent
