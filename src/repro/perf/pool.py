"""Persistent, crash-tolerant fork worker pool.

PR 1's :func:`repro.perf.parallel_map` forked a fresh
``ProcessPoolExecutor`` per call: every fan-out paid pool start-up,
interpreter warm-up, and full-array pickling — enough that the
pipeline bench recorded parallel *slowdowns* on small stages.
:class:`WorkerPool` replaces that with workers forked **once** (warm
imports inherited from the parent) and reused across every stage of a
run, fed through per-worker task queues:

* **Deterministic dispatch.**  Tasks are assigned round-robin in
  submission order and results reassembled by task id, so
  :meth:`map` returns ``[fn(x) for x in items]`` in order — the exact
  :func:`parallel_map` contract — at any worker count.  Task payloads
  are pickled *before* queueing (plain bytes ride the queue feeder
  thread), and each worker pickles its result before releasing its
  shared-memory attachments, so zero-copy views never outlive their
  segment.
* **Exact crash ownership.**  Each worker owns a dedicated task
  queue, so when a worker dies mid-task the pool knows precisely
  which submissions are lost: it respawns the worker with a fresh
  queue and resubmits those payloads in their original order.
  Resubmission is bounded by a :class:`repro.faults.RetryPolicy`
  (``max_retries`` re-runs per task, same machinery the resilient
  sampler uses for flaky sensor reads); a task that keeps killing its
  worker fails its future with :class:`WorkerCrashError` instead of
  wedging the pool.
* **Concurrent submitters.**  :meth:`submit` is thread-safe and a
  daemon collector thread resolves futures as results arrive, so the
  fleet scheduler can feed jobs from many asyncio executor threads
  while a forest fit maps tree batches through the same pool.
* **Deadlines & hung-worker reaping.**  A task submitted with a
  ``deadline_s`` wall-clock budget is watched: a worker still holding
  the task past its deadline — dead-but-undetected *or* merely hung
  (a SIGSTOPped process is alive but will never answer) — is
  SIGKILLed and the task resubmitted with a fresh budget, bounded by
  the same retry policy; exhaustion surfaces
  :class:`TaskDeadlineError` instead of a silent hang.  Every caller
  blocked in :meth:`PoolFuture.result` doubles as a watchdog, so the
  pool cannot strand a waiter even if the collector thread itself
  dies.

All shutdown/reap join timeouts and the sweep cadence live in
:class:`PoolConfig`, so tests and the chaos harness can tighten them.
Workers run with the :func:`repro.perf.executor.in_worker` flag set,
so nested parallel stages inside a task degrade to serial loops
exactly as before.  The module-level :func:`get_pool` singleton is the
way in; :func:`parallel_map` fans out through it whenever more than
one worker is asked for.
"""

from __future__ import annotations

import atexit
import os
import pickle
import threading
import time
from dataclasses import dataclass
from queue import Empty
from typing import Callable, Dict, List, Optional, Sequence, TypeVar

from repro.faults.policy import RetryPolicy
from repro.perf.executor import _fork_context, _mark_worker
from repro.perf.shm import release_attachments

_T = TypeVar("_T")
_R = TypeVar("_R")

__all__ = [
    "PoolConfig",
    "PoolFuture",
    "TaskDeadlineError",
    "WorkerCrashError",
    "WorkerPool",
    "get_pool",
    "shutdown_pool",
]

#: Sent on a task queue to make the worker exit its loop.
_SHUTDOWN = None


@dataclass(frozen=True)
class PoolConfig:
    """Timing knobs for pool supervision (all wall-clock seconds).

    Attributes:
        sweep_interval_s: how long the collector blocks on the result
            queue before sweeping worker liveness and task deadlines;
            a dead or expired worker is detected within this.  Waiting
            callers poll their futures at the same cadence.
        shutdown_join_s: graceful worker join budget at shutdown.
        terminate_join_s: join budget after a terminate at shutdown.
        collector_join_s: collector-thread join budget at shutdown.
        reap_join_s: join budget after the watchdog SIGKILLs a hung
            worker (the respawn scan needs the process reaped).
        default_deadline_s: deadline applied to tasks submitted
            without an explicit one (``None`` = no deadline).
    """

    sweep_interval_s: float = 0.2
    shutdown_join_s: float = 2.0
    terminate_join_s: float = 1.0
    collector_join_s: float = 2.0
    reap_join_s: float = 1.0
    default_deadline_s: Optional[float] = None

    def __post_init__(self):
        for name in (
            "sweep_interval_s",
            "shutdown_join_s",
            "terminate_join_s",
            "collector_join_s",
            "reap_join_s",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")
        if self.default_deadline_s is not None and self.default_deadline_s <= 0:
            raise ValueError("default_deadline_s must be > 0 or None")


class WorkerCrashError(RuntimeError):
    """A task's worker died more times than the retry policy allows."""


class TaskDeadlineError(WorkerCrashError):
    """A task blew its deadline on every attempt the policy allowed."""


def _run_chunk(task):
    """Run one map chunk: ``(fn, [items])`` → ``[fn(item), ...]``."""
    fn, chunk = task
    return [fn(item) for item in chunk]


def _worker_main(worker_id: int, task_queue, result_queue) -> None:
    """Worker loop: pull ``(tid, payload)``, run, push ``(tid, body)``.

    The result body is pickled before shared-memory attachments are
    released, so results that read zero-copy views are materialized
    while the mapping is still valid.
    """
    _mark_worker()
    while True:
        message = task_queue.get()
        if message is _SHUTDOWN:
            break
        tid, payload = message
        try:
            fn, item = pickle.loads(payload)
            result = fn(item)
            body = pickle.dumps(
                (True, result), protocol=pickle.HIGHEST_PROTOCOL
            )
        except Exception as exc:
            try:
                body = pickle.dumps(
                    (False, exc), protocol=pickle.HIGHEST_PROTOCOL
                )
            except Exception:
                body = pickle.dumps(
                    (False, RuntimeError(repr(exc))),
                    protocol=pickle.HIGHEST_PROTOCOL,
                )
        release_attachments()
        result_queue.put((tid, body))


class PoolFuture:
    """Result handle for one submitted task."""

    def __init__(self, tid: int, pool: Optional["WorkerPool"] = None):
        self.tid = tid
        self._pool = pool
        self._event = threading.Event()
        self._value = None
        self._error: Optional[BaseException] = None

    def _resolve(self, ok: bool, value) -> None:
        if ok:
            self._value = value
        else:
            self._error = value
        self._event.set()

    def done(self) -> bool:
        return self._event.is_set()

    def result(self, timeout: Optional[float] = None):
        """Block for the task result; re-raise the task's exception.

        An untimed wait is still bounded: the caller polls at the
        pool's sweep cadence and runs the liveness/deadline sweep
        itself each tick, so a worker that died after dequeueing the
        task — or a collector thread that died outright — resolves the
        future with :class:`WorkerCrashError` instead of stranding the
        wait forever.
        """
        if timeout is not None:
            if not self._event.wait(timeout):
                raise TimeoutError(f"task {self.tid} still pending")
        else:
            interval = (
                self._pool.config.sweep_interval_s
                if self._pool is not None
                else PoolConfig().sweep_interval_s
            )
            while not self._event.wait(interval):
                if self._pool is not None:
                    self._pool._watch()
        if self._error is not None:
            raise self._error
        return self._value


class _Worker:
    """One pool process plus its dedicated task queue."""

    def __init__(self, context, worker_id: int, result_queue):
        self.id = worker_id
        self.queue = context.Queue()
        self.process = context.Process(
            target=_worker_main,
            args=(worker_id, self.queue, result_queue),
            daemon=True,
            name=f"amperebleed-pool-{worker_id}",
        )
        self.process.start()

    def retire(self) -> None:
        """Drop the queue of a dead/stopping worker without blocking."""
        try:
            self.queue.close()
            self.queue.cancel_join_thread()
        except (OSError, ValueError):  # pragma: no cover
            pass


class _Pending:
    """Parent-side record of one in-flight task."""

    __slots__ = (
        "payload",
        "future",
        "worker_slot",
        "attempts",
        "deadline_s",
        "deadline_at",
        "expired",
    )

    def __init__(
        self,
        payload: bytes,
        future: PoolFuture,
        worker_slot: int,
        deadline_s: Optional[float] = None,
    ):
        self.payload = payload
        self.future = future
        self.worker_slot = worker_slot
        self.attempts = 0
        self.deadline_s = deadline_s
        self.expired = False
        self.rearm()

    def rearm(self) -> None:
        """Start (or restart) the wall-clock deadline for one attempt."""
        self.deadline_at = (
            time.monotonic() + self.deadline_s
            if self.deadline_s is not None
            else None
        )


class WorkerPool:
    """Long-lived fork pool with deterministic dispatch and respawn.

    Args:
        workers: number of worker processes (>= 1).
        retry_policy: bounds crash resubmission; ``max_retries`` is the
            number of times one task may be re-run after its worker
            died (default: the resilient sampler's policy, 3).
        config: supervision timing knobs (sweep cadence, shutdown and
            reap join budgets, default task deadline).
    """

    def __init__(
        self,
        workers: int,
        retry_policy: Optional[RetryPolicy] = None,
        config: Optional[PoolConfig] = None,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        context = _fork_context()
        if context is None:
            raise RuntimeError("fork start method unavailable")
        self.workers = workers
        self.retry_policy = retry_policy or RetryPolicy()
        self.config = config or PoolConfig()
        self._context = context
        self._results = context.Queue()
        self._lock = threading.Lock()
        self._next_tid = 0
        self._pending: Dict[int, _Pending] = {}
        self._closed = False
        self._respawns = 0
        self._slots: List[_Worker] = [
            _Worker(context, slot, self._results) for slot in range(workers)
        ]
        self._collector = threading.Thread(
            target=self._collect, daemon=True, name="amperebleed-pool-collect"
        )
        self._collector.start()

    # -- submission ---------------------------------------------------

    def submit(
        self,
        fn: Callable[[_T], _R],
        item: _T,
        *,
        deadline_s: Optional[float] = None,
    ) -> PoolFuture:
        """Queue ``fn(item)`` on the next worker (round-robin).

        ``deadline_s`` caps one attempt's wall-clock time; a worker
        still holding the task past that budget is SIGKILLed and the
        task resubmitted with a fresh budget, up to the retry policy.
        ``None`` falls back to ``config.default_deadline_s``.
        """
        if deadline_s is None:
            deadline_s = self.config.default_deadline_s
        if deadline_s is not None and deadline_s <= 0:
            raise ValueError("deadline_s must be > 0 or None")
        payload = pickle.dumps((fn, item), protocol=pickle.HIGHEST_PROTOCOL)
        with self._lock:
            if self._closed:
                raise RuntimeError("pool is shut down")
            tid = self._next_tid
            self._next_tid += 1
            slot = tid % self.workers
            future = PoolFuture(tid, pool=self)
            self._pending[tid] = _Pending(payload, future, slot, deadline_s)
            self._slots[slot].queue.put((tid, payload))
        return future

    def map(
        self,
        fn: Callable[[_T], _R],
        items: Sequence[_T],
        chunksize: int = 1,
    ) -> List[_R]:
        """``[fn(item) for item in items]`` — same values, same order.

        Items are grouped into ``chunksize`` batches (one pickled task
        each, as ``ProcessPoolExecutor.map`` would) and results
        reassembled in submission order.
        """
        items = list(items)
        chunksize = max(1, chunksize)
        chunks = [
            items[start : start + chunksize]
            for start in range(0, len(items), chunksize)
        ]
        futures = [self.submit(_run_chunk, (fn, chunk)) for chunk in chunks]
        out: List[_R] = []
        for future in futures:
            out.extend(future.result())
        return out

    # -- collection / crash recovery ---------------------------------

    def _collect(self) -> None:
        while True:
            try:
                tid, body = self._results.get(
                    timeout=self.config.sweep_interval_s
                )
            except (Empty, OSError, ValueError):
                if self._closed:
                    return
                self._sweep()
                continue
            if self._closed:
                return
            with self._lock:
                record = self._pending.pop(tid, None)
            if record is None:  # duplicate after a respawn resubmit
                continue
            try:
                ok, value = pickle.loads(body)
            except Exception as error:
                # An undecodable body (e.g. a task exception whose
                # class does not survive a pickle round-trip) must
                # fail *that task* — never the collector thread, which
                # every other future depends on.
                record.future._resolve(
                    False,
                    RuntimeError(
                        f"task {tid} returned an undecodable result: "
                        f"{type(error).__name__}: {error}"
                    ),
                )
                continue
            record.future._resolve(ok, value)

    def _watch(self) -> None:
        """Caller-side supervision tick (run from untimed waits).

        Runs the same sweep the collector runs, then — if the
        collector thread itself has died — fails every pending future
        so no caller is left waiting on a thread that will never post.
        """
        self._sweep()
        with self._lock:
            if self._closed or self._collector.is_alive():
                return
            orphaned = list(self._pending.values())
            self._pending.clear()
        for record in orphaned:
            record.future._resolve(
                False,
                WorkerCrashError(
                    "pool collector thread died with tasks pending"
                ),
            )

    def _sweep(self) -> None:
        """Reap hung workers, respawn dead ones, resubmit lost tasks.

        Phase one is the deadline watchdog: any worker holding a task
        past its wall-clock budget is SIGKILLed — that covers workers
        that are alive but wedged (SIGSTOP, livelock), which the
        liveness scan alone would never catch.  Phase two is the
        original crash recovery: dead workers are respawned and their
        in-flight tasks resubmitted in order, bounded by the retry
        policy; a task that expired on its last allowed attempt fails
        with :class:`TaskDeadlineError`.
        """
        with self._lock:
            if self._closed:
                return
            now = time.monotonic()
            hung_slots = set()
            for record in self._pending.values():
                if record.deadline_at is not None and now >= record.deadline_at:
                    record.expired = True
                    hung_slots.add(record.worker_slot)
            for slot in hung_slots:
                process = self._slots[slot].process
                if process.is_alive():
                    process.kill()
                    process.join(timeout=self.config.reap_join_s)
            for slot, worker in enumerate(self._slots):
                if worker.process.is_alive():
                    continue
                worker.retire()
                self._respawns += 1
                replacement = _Worker(self._context, worker.id, self._results)
                self._slots[slot] = replacement
                lost = sorted(
                    tid
                    for tid, record in self._pending.items()
                    if record.worker_slot == slot
                )
                for tid in lost:
                    record = self._pending[tid]
                    record.attempts += 1
                    if record.attempts > self.retry_policy.max_retries:
                        del self._pending[tid]
                        if record.expired:
                            error: WorkerCrashError = TaskDeadlineError(
                                f"task {tid} blew its "
                                f"{record.deadline_s:g}s deadline; worker "
                                f"reaped {record.attempts} times"
                            )
                        else:
                            error = WorkerCrashError(
                                f"task {tid} crashed its worker "
                                f"{record.attempts} times"
                            )
                        record.future._resolve(False, error)
                        continue
                    record.rearm()
                    replacement.queue.put((tid, record.payload))

    # -- lifecycle ----------------------------------------------------

    @property
    def respawns(self) -> int:
        """Workers respawned after dying (telemetry for the fleet)."""
        return self._respawns

    def shutdown(self) -> None:
        """Stop workers and fail any still-pending futures (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            pending = list(self._pending.values())
            self._pending.clear()
        for record in pending:
            record.future._resolve(
                False, RuntimeError("pool shut down with task pending")
            )
        for worker in self._slots:
            try:
                worker.queue.put(_SHUTDOWN)
            except (OSError, ValueError):  # pragma: no cover
                pass
        for worker in self._slots:
            worker.process.join(timeout=self.config.shutdown_join_s)
            if worker.process.is_alive():  # pragma: no cover - stuck task
                worker.process.terminate()
                worker.process.join(timeout=self.config.terminate_join_s)
            worker.retire()
        self._collector.join(timeout=self.config.collector_join_s)


#: Process-wide pool shared by every parallel stage (lazily built).
_POOL: Optional[WorkerPool] = None
_POOL_PID: Optional[int] = None
_POOL_LOCK = threading.Lock()


def get_pool(workers: int) -> WorkerPool:
    """The shared pool, grown to at least ``workers`` wide.

    One pool serves the whole process; asking for more workers than it
    currently has replaces it with a wider one (results are identical
    at any width, so shrinking requests reuse the existing pool).  A
    pool inherited across a ``fork`` is stale and rebuilt.
    """
    global _POOL, _POOL_PID
    with _POOL_LOCK:
        if _POOL is not None and (
            _POOL_PID != os.getpid() or _POOL.workers < workers
        ):
            if _POOL_PID == os.getpid():
                _POOL.shutdown()
            _POOL = None
        if _POOL is None:
            _POOL = WorkerPool(workers)
            _POOL_PID = os.getpid()
        return _POOL


def shutdown_pool() -> None:
    """Tear down the shared pool (tests and interpreter exit)."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is not None and _POOL_PID == os.getpid():
            _POOL.shutdown()
        _POOL = None


atexit.register(shutdown_pool)
