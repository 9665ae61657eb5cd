"""Fleet-wide failure containment: breakers and quarantine.

Two layers, each independently usable:

* :mod:`repro.resilience.breaker` — per-board circuit breakers
  (closed→open→half-open) with seed-deterministic exponential backoff
  and hashed jitter, driven by the scheduler's tick clock rather than
  wall time.
* :mod:`repro.resilience.quarantine` — corrupt archives are moved to
  a ``quarantine/`` sidecar with a machine-readable reason record
  instead of aborting the campaign.

The dispatch loop that drives the breakers lives in
:mod:`repro.fleet.scheduler`; it runs on its caller's thread.
"""

from repro.resilience.breaker import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    BreakerPolicy,
    BreakerTransition,
    CircuitBreaker,
)
from repro.resilience.quarantine import (
    QUARANTINE_DIRNAME,
    QuarantineRecord,
    quarantine_archive,
)

__all__ = [
    "CLOSED",
    "HALF_OPEN",
    "OPEN",
    "BreakerPolicy",
    "BreakerTransition",
    "CircuitBreaker",
    "QUARANTINE_DIRNAME",
    "QuarantineRecord",
    "quarantine_archive",
]
