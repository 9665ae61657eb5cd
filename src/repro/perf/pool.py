"""The shared fork process pool behind :func:`repro.perf.parallel_map`.

One :class:`~concurrent.futures.ProcessPoolExecutor` on the ``fork``
context serves every parallel stage of a process: workers are forked
once, inherit the parent's warm imports, and are reused across calls.
Each worker runs :func:`repro.perf.executor._mark_worker` at start-up,
so nested parallel stages inside a task degrade to serial loops.

A worker that dies is a bug or an OOM, not a fault to absorb: the
executor fails every pending future with ``BrokenProcessPool``, and
the next :func:`get_pool` builds a fresh pool.  The fleet's one
recovery path sits above this layer: its job-level ``retries`` re-run
a job on the rebuilt pool, and the resume-first job continues the
partial archive.

No module of ``repro`` starts a thread (the fleet's dispatch loop
runs on its caller's), so the registry below has no lock: the first
:func:`get_pool` after a break replaces the broken pool, and one break
causes exactly one rebuild.
"""

from __future__ import annotations

import atexit
import os
from concurrent.futures import ProcessPoolExecutor
from typing import Optional

from repro.perf.executor import _fork_context, _mark_worker

__all__ = ["get_pool", "rebuilds", "shutdown_pool"]

_POOL: Optional[ProcessPoolExecutor] = None
_POOL_PID: Optional[int] = None
_REBUILDS = 0


def get_pool(workers: int) -> ProcessPoolExecutor:
    """The shared pool, at least ``workers`` wide, its workers forked.

    The pool is rebuilt when a wider one is asked for (results are
    identical at any width, so narrower requests reuse it), when it
    was inherited across a ``fork``, or when it is broken.
    """
    global _POOL, _POOL_PID, _REBUILDS
    if _POOL is not None and _POOL_PID != os.getpid():
        _POOL = None
    if _POOL is not None:
        # ``_broken`` is the executor's own flag, set before it fails
        # the pending futures with BrokenProcessPool.
        if _POOL._broken:
            _REBUILDS += 1
            workers = max(workers, _POOL._max_workers)
        elif _POOL._max_workers >= workers:
            return _POOL
        _POOL.shutdown()
    _POOL = ProcessPoolExecutor(
        workers, mp_context=_fork_context(), initializer=_mark_worker
    )
    _POOL_PID = os.getpid()
    # The executor forks on first submit; do it now, so callers that
    # time a pass do not pay the fork inside it.
    _POOL.submit(int).result()
    return _POOL


def rebuilds() -> int:
    """Pools rebuilt after a break, process-wide (fleet telemetry)."""
    return _REBUILDS


def shutdown_pool() -> None:
    """Join the shared pool's workers (tests and interpreter exit)."""
    global _POOL
    if _POOL is not None and _POOL_PID == os.getpid():
        _POOL.shutdown()
    _POOL = None


atexit.register(shutdown_pool)
