"""Deterministic parallel fan-out over the shared process pool.

:func:`parallel_map` is the single execution primitive every parallel
stage uses.  Its contract:

* results come back **in submission order**, so any pipeline built on
  it is reproducible regardless of worker count or scheduling;
* ``workers=1`` (or a single item) runs a plain serial loop in the
  calling process — no pool, no pickling, byte-for-byte the legacy
  behavior;
* inside a worker process the helper *always* runs serially, so a
  parallel stage that itself calls :func:`parallel_map` (a forest fit
  inside a CV fold, say) cannot fork a pool-of-pools and
  oversubscribe the machine;
* platforms without the ``fork`` start method (or with multiprocessing
  disabled) silently fall back to the serial loop — parallelism is an
  optimization, never a functional requirement.

Tasks and results must be picklable; the task callable must be a
module-level function (the usual :mod:`concurrent.futures` rules).

Fan-out rides the shared pool of :func:`repro.perf.pool.get_pool` —
workers forked once and reused across calls, so repeated small stages
stop paying pool start-up.  A worker that dies breaks the pool: the
call raises ``BrokenProcessPool`` and the next call forks a fresh one.
"""

from __future__ import annotations

import multiprocessing
from typing import Callable, List, Optional, Sequence, TypeVar

from repro.perf.config import resolve_workers

_T = TypeVar("_T")
_R = TypeVar("_R")

#: Set to True inside pool workers (via the pool initializer) so nested
#: parallel stages degrade to serial loops instead of forking again.
_IN_WORKER = False


def in_worker() -> bool:
    """True when executing inside a parallel_map worker process."""
    return _IN_WORKER


def _mark_worker() -> None:
    global _IN_WORKER
    _IN_WORKER = True


def _fork_context():
    try:
        return multiprocessing.get_context("fork")
    except ValueError:
        return None


def parallel_map(
    fn: Callable[[_T], _R],
    items: Sequence[_T],
    workers: Optional[int] = None,
    chunksize: int = 1,
) -> List[_R]:
    """Apply ``fn`` to every item, fanning out over ``workers`` processes.

    Args:
        fn: a picklable module-level callable.
        items: the task sequence; fully materialized before dispatch.
        workers: worker count request (see
            :func:`repro.perf.config.resolve_workers`); the default
            honors ``AMPEREBLEED_WORKERS`` and falls back to serial.
        chunksize: tasks per pool dispatch (raise for many tiny tasks).

    Returns:
        ``[fn(item) for item in items]`` — same values, same order.
    """
    items = list(items)
    workers = resolve_workers(workers)
    if (
        workers <= 1
        or len(items) <= 1
        or _IN_WORKER
        or _fork_context() is None
    ):
        return [fn(item) for item in items]
    from repro.perf.pool import get_pool

    workers = min(workers, len(items))
    return list(get_pool(workers).map(fn, items, chunksize=chunksize))
