"""Performance engine: worker configuration, parallel execution, timing.

The evaluation pipeline (collect traces -> train forests -> sweep the
Table III grid) is embarrassingly parallel at several granularities;
this package holds the shared machinery:

* :mod:`repro.perf.config` — one place that decides how many workers
  a stage may use (``AMPEREBLEED_WORKERS`` env var, CLI ``--workers``,
  explicit arguments);
* :mod:`repro.perf.executor` — :func:`parallel_map`, a deterministic
  fan-out helper over the persistent worker pool that degrades to a
  plain serial loop when one worker is requested (or when already
  inside a worker, so nested stages never oversubscribe);
* :mod:`repro.perf.timer` — :class:`StageTimer`, a wall-clock stage
  timer the fleet scheduler and the chaos harness report from;
* :mod:`repro.perf.pool` — the persistent :class:`WorkerPool` behind
  :func:`parallel_map`: long-lived fork workers with warm imports
  that survive across calls, respawn on death, and keep the
  deterministic task→seed assignment;
* :mod:`repro.perf.shm` — the zero-copy data plane: fit matrices and
  trace batches travel to workers as shared-memory / memmap
  descriptors (:class:`ShmSlice` / :class:`MmapSlice`) instead of
  pickled array copies.
"""

from repro.perf.config import (
    FAULT_RATE_ENV,
    FLEET_BOARDS_ENV,
    WORKERS_ENV,
    available_cpus,
    fault_rate_from_env,
    fleet_boards_from_env,
    resolve_workers,
)
from repro.perf.executor import in_worker, parallel_map
from repro.perf.timer import StageTimer
from repro.perf.pool import (
    WorkerCrashError,
    WorkerPool,
    get_pool,
    shutdown_pool,
)
from repro.perf.shm import (
    MmapSlice,
    SharedArena,
    ShmSlice,
    publish_arrays,
    release_attachments,
    resolve_array,
)

__all__ = [
    "FAULT_RATE_ENV",
    "FLEET_BOARDS_ENV",
    "WORKERS_ENV",
    "available_cpus",
    "fault_rate_from_env",
    "fleet_boards_from_env",
    "resolve_workers",
    "in_worker",
    "parallel_map",
    "StageTimer",
    "WorkerCrashError",
    "WorkerPool",
    "get_pool",
    "shutdown_pool",
    "MmapSlice",
    "SharedArena",
    "ShmSlice",
    "publish_arrays",
    "release_attachments",
    "resolve_array",
]
