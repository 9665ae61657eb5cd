"""Runtime configuration knobs for the evaluation engine.

The library reads one environment variable, resolved here and nowhere
else (README's "Environment knobs" table documents it):
``AMPEREBLEED_WORKERS``, via :func:`resolve_workers`.  Every parallel
stage funnels through it so one knob controls the whole pipeline: an
explicit ``workers`` argument (CLI ``--workers`` plumbs through here)
always wins; otherwise the environment variable applies; otherwise the
stage's default (serial unless stated otherwise).  ``workers=0`` or a
negative value means "one worker per available CPU".  The resolution
never exceeds what the scheduler actually grants this process (cgroup
CPU masks on shared boxes), so asking for 16 workers on a 4-core
container fans out 4 wide.  Fault injection is armed only explicitly,
through ``faults=`` / ``--faults``.
"""

from __future__ import annotations

import os
from typing import Optional

#: Environment variable consulted when no explicit worker count is given.
WORKERS_ENV = "AMPEREBLEED_WORKERS"

#: Hard cap: more workers than this is always a configuration mistake.
MAX_WORKERS = 256


def available_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def resolve_workers(
    workers: Optional[int] = None, default: int = 1
) -> int:
    """Resolve a worker count for one parallel stage.

    Args:
        workers: explicit request; ``None`` defers to the environment,
            ``0`` or negative means "all available CPUs".
        default: stage default when neither an explicit count nor the
            ``AMPEREBLEED_WORKERS`` environment variable is set.

    Returns:
        An integer >= 1.
    """
    if workers is None:
        env = os.environ.get(WORKERS_ENV, "").strip()
        if env:
            try:
                workers = int(env)
            except ValueError:
                raise ValueError(
                    f"{WORKERS_ENV} must be an integer, got {env!r}"
                ) from None
        else:
            workers = default
    workers = int(workers)
    if workers <= 0:
        workers = available_cpus()
    if workers > MAX_WORKERS:
        raise ValueError(
            f"workers={workers} exceeds the sanity cap of {MAX_WORKERS}"
        )
    return max(1, workers)
