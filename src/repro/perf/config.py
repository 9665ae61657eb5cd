"""Runtime configuration knobs for the evaluation engine.

The library reads seven environment variables, all resolved here and
nowhere else (README's "Environment knobs" table documents them):

* ``AMPEREBLEED_WORKERS`` — via :func:`resolve_workers`.  Every
  parallel stage funnels through it so one knob controls the whole
  pipeline: an explicit ``workers`` argument (CLI ``--workers`` plumbs
  through here) always wins; otherwise the environment variable
  applies; otherwise the stage's default (serial unless stated
  otherwise).  ``workers=0`` or a negative value means "one worker per
  available CPU".  The resolution never exceeds what the scheduler
  actually grants this process (cgroup CPU masks on shared boxes), so
  asking for 16 workers on a 4-core container fans out 4 wide.
* ``AMPEREBLEED_FULL`` — via :func:`full_scale`.  Opt-in to
  paper-scale benchmark configurations (10 k samples per level,
  100-tree forests, 10-fold CV) instead of the minutes-range defaults.
* ``AMPEREBLEED_FAULT_RATE`` — via :func:`fault_rate_from_env`.  A
  rate in [0, 1] that arms :meth:`repro.faults.FaultPlan.at_rate` on
  every session built without an explicit ``faults=`` argument (unset
  or ``0`` means no fault injection).
* ``AMPEREBLEED_FLEET_BOARDS`` — via :func:`fleet_boards_from_env`.
  Comma-separated board names restricting which catalog boards
  :func:`repro.fleet.build_fleet_jobs` shards across (unset means the
  whole catalog).
* ``AMPEREBLEED_QUEUE_HWM`` — via :func:`queue_hwm_from_env`.  The
  fleet scheduler's admission high-water mark: at most this many jobs
  enter the run queue; the rest end as explicit ``deferred`` outcomes
  instead of growing the queue without bound (unset or ``0`` means
  unbounded, the historical behavior).
* ``AMPEREBLEED_BREAKER_THRESHOLD`` / ``AMPEREBLEED_BREAKER_COOLDOWN``
  — via :func:`breaker_threshold_from_env` /
  :func:`breaker_cooldown_from_env`.  Override the per-board circuit
  breaker's consecutive-failure trip threshold and base cooldown
  (scheduler ticks) when the scheduler is not handed an explicit
  :class:`repro.resilience.BreakerPolicy`.
"""

from __future__ import annotations

import os
from typing import Optional

#: Environment variable consulted when no explicit worker count is given.
WORKERS_ENV = "AMPEREBLEED_WORKERS"

#: Environment variable opting benches into full paper scale.
FULL_ENV = "AMPEREBLEED_FULL"

#: Environment variable arming a default fault-injection rate.
FAULT_RATE_ENV = "AMPEREBLEED_FAULT_RATE"

#: Environment variable restricting which boards the fleet targets.
FLEET_BOARDS_ENV = "AMPEREBLEED_FLEET_BOARDS"

#: Environment variable bounding the fleet scheduler's admission queue.
QUEUE_HWM_ENV = "AMPEREBLEED_QUEUE_HWM"

#: Environment variable overriding the breaker's failure threshold.
BREAKER_THRESHOLD_ENV = "AMPEREBLEED_BREAKER_THRESHOLD"

#: Environment variable overriding the breaker's base cooldown (ticks).
BREAKER_COOLDOWN_ENV = "AMPEREBLEED_BREAKER_COOLDOWN"

#: Hard cap: more workers than this is always a configuration mistake.
MAX_WORKERS = 256


def full_scale() -> bool:
    """True when paper-scale benchmark runs are requested.

    Reads ``AMPEREBLEED_FULL``; any of ``1``/``true``/``yes``/``on``
    (case-insensitive) enables full scale.
    """
    return os.environ.get(FULL_ENV, "").strip().lower() in (
        "1", "true", "yes", "on"
    )


def fault_rate_from_env() -> float:
    """The fault rate ``AMPEREBLEED_FAULT_RATE`` requests (default 0).

    Sessions built without an explicit ``faults=`` argument arm
    :meth:`repro.faults.FaultPlan.at_rate` at this rate; ``0`` (or an
    unset variable) arms nothing.
    """
    env = os.environ.get(FAULT_RATE_ENV, "").strip()
    if not env:
        return 0.0
    try:
        rate = float(env)
    except ValueError:
        raise ValueError(
            f"{FAULT_RATE_ENV} must be a float in [0, 1], got {env!r}"
        ) from None
    if not (0.0 <= rate <= 1.0):
        raise ValueError(
            f"{FAULT_RATE_ENV} must be in [0, 1], got {rate}"
        )
    return rate


def fleet_boards_from_env() -> Optional[list]:
    """Board names ``AMPEREBLEED_FLEET_BOARDS`` selects (None = all).

    The value is a comma-separated list of catalog names; whitespace
    around entries is ignored and empty entries dropped.  Validation
    against the catalog happens at fleet-build time, where the error
    can name the available boards.
    """
    env = os.environ.get(FLEET_BOARDS_ENV, "").strip()
    if not env:
        return None
    names = [part.strip() for part in env.split(",") if part.strip()]
    return names or None


def queue_hwm_from_env() -> Optional[int]:
    """The scheduler admission bound ``AMPEREBLEED_QUEUE_HWM`` requests.

    ``None`` (unset or ``0``) means unbounded admission — every job
    enters the queue, the historical behavior.  A positive integer
    caps how many jobs are admitted; the overflow is deferred with an
    explicit outcome instead of queued.
    """
    env = os.environ.get(QUEUE_HWM_ENV, "").strip()
    if not env:
        return None
    try:
        hwm = int(env)
    except ValueError:
        raise ValueError(
            f"{QUEUE_HWM_ENV} must be an integer >= 0, got {env!r}"
        ) from None
    if hwm < 0:
        raise ValueError(f"{QUEUE_HWM_ENV} must be >= 0, got {hwm}")
    return hwm or None


def breaker_threshold_from_env() -> Optional[int]:
    """Breaker trip threshold override (None = policy default)."""
    env = os.environ.get(BREAKER_THRESHOLD_ENV, "").strip()
    if not env:
        return None
    try:
        threshold = int(env)
    except ValueError:
        raise ValueError(
            f"{BREAKER_THRESHOLD_ENV} must be an integer >= 1, got {env!r}"
        ) from None
    if threshold < 1:
        raise ValueError(
            f"{BREAKER_THRESHOLD_ENV} must be >= 1, got {threshold}"
        )
    return threshold


def breaker_cooldown_from_env() -> Optional[float]:
    """Breaker base cooldown override in ticks (None = policy default)."""
    env = os.environ.get(BREAKER_COOLDOWN_ENV, "").strip()
    if not env:
        return None
    try:
        cooldown = float(env)
    except ValueError:
        raise ValueError(
            f"{BREAKER_COOLDOWN_ENV} must be a float > 0, got {env!r}"
        ) from None
    if cooldown <= 0:
        raise ValueError(
            f"{BREAKER_COOLDOWN_ENV} must be > 0, got {cooldown}"
        )
    return cooldown


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
