"""Fleet-wide failure containment: breakers, quarantine, chaos.

PR 8 gave the fleet its throughput substrate; this package gives it a
failure budget.  Three layers, each independently usable:

* :mod:`repro.resilience.breaker` — per-board circuit breakers
  (closed→open→half-open) with seed-deterministic exponential backoff
  and hashed jitter, driven by the scheduler's tick clock rather than
  wall time.
* :mod:`repro.resilience.quarantine` — corrupt archives are moved to
  a ``quarantine/`` sidecar with a machine-readable reason record
  instead of aborting the campaign.
* :mod:`repro.resilience.chaos` — the chaos harness behind
  ``pytest -m chaos``: seed-deterministic fault injectors (worker SIGKILL /
  SIGSTOP, board outage windows, archive corruption, sensor fault
  storms) composed with run-level invariant checks — no hang, archive
  byte-parity with a fault-free serial run, every job terminal,
  accuracy parity on surviving shards.  Imported lazily (it pulls in
  the fleet layer); use ``from repro.resilience import chaos``.

Deadline enforcement and hung-worker reaping live with the pool they
guard (:class:`repro.perf.pool.WorkerPool`); the scheduler threading
lives in :mod:`repro.fleet.scheduler`.
"""

from repro.resilience.breaker import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    BoardOutageError,
    BreakerPolicy,
    BreakerTransition,
    CircuitBreaker,
    TransientJobError,
)
from repro.resilience.quarantine import (
    QUARANTINE_DIRNAME,
    QuarantineRecord,
    list_quarantined,
    quarantine_archive,
)

__all__ = [
    "CLOSED",
    "HALF_OPEN",
    "OPEN",
    "BoardOutageError",
    "BreakerPolicy",
    "BreakerTransition",
    "CircuitBreaker",
    "QUARANTINE_DIRNAME",
    "QuarantineRecord",
    "TransientJobError",
    "list_quarantined",
    "quarantine_archive",
]
