"""Deterministic fault injection for the acquisition plane.

* :class:`FaultPlan` — a seed-deterministic, counter-hashed schedule of
  hwmon read failures (transient errors, torn values, stale-latch
  runs, hotplug windows, ``update_interval`` flips), armed at the
  :class:`~repro.sensors.hwmon.HwmonDevice` read boundary.
* :class:`RetryPolicy` / :class:`SensorHealth` — what the resilient
  sampler does about the failures: bounded deterministic retries,
  gap interpolation, and the healthy → flaky → dead channel state the
  degraded-mode fallbacks consult.

A plan with every rate zero (``FaultPlan(seed=...)``) is the
contractually free path: arming it changes no trace, archive, or
accuracy bit.
"""

from repro.faults.plan import FaultPlan, TORN_MAGNITUDE, resolve_fault_plan
from repro.faults.policy import (
    DEAD,
    FLAKY,
    HEALTHY,
    RetryPolicy,
    SensorHealth,
)

__all__ = [
    "FaultPlan",
    "TORN_MAGNITUDE",
    "resolve_fault_plan",
    "RetryPolicy",
    "SensorHealth",
    "HEALTHY",
    "FLAKY",
    "DEAD",
]
