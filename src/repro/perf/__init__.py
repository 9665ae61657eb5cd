"""Performance engine: worker configuration and parallel execution.

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
* :mod:`repro.perf.pool` — :func:`get_pool`, the shared fork
  ``ProcessPoolExecutor`` behind :func:`parallel_map`: long-lived
  workers with warm imports, reused across calls and rebuilt once
  after a worker dies.  Task inputs, arrays included, travel to
  workers in the task pickle.
"""

from repro.perf.config import (
    WORKERS_ENV,
    available_cpus,
    resolve_workers,
)
from repro.perf.executor import in_worker, parallel_map
from repro.perf.pool import get_pool, shutdown_pool

__all__ = [
    "WORKERS_ENV",
    "available_cpus",
    "resolve_workers",
    "in_worker",
    "parallel_map",
    "get_pool",
    "shutdown_pool",
]
