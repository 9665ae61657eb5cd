"""Fleet campaign scheduler: every board in the catalog, one queue.

AmpereBleed's attack loop (record → analyze → verdict) is the shape of
a multi-tenant cloud-FPGA monitoring service, and ROADMAP item 2 asks
for exactly that: an orchestrator that shards recording campaigns
across the whole Table I board catalog and is measured in traces/sec.
This package is that orchestrator, built on the PR 8 substrate:

* :mod:`repro.fleet.jobs` — :class:`FleetJob`, one shardable unit of
  attack work (a fingerprint dataset collection, an RSA Hamming-weight
  sweep, or an end-to-end :class:`~repro.core.campaign.AttackCampaign`)
  bound to one board, one seed, and one archive directory;
  :func:`run_job`, the module-level task the worker pool executes;
  and :func:`build_fleet_jobs`, the standard batch of every kind on
  every board.  Jobs are resume-first: a retried job reopens its
  partial archive via the PR 3 checkpoint path and seals it
  byte-identical to an uninterrupted run.
* :mod:`repro.fleet.scheduler` — :class:`FleetScheduler`, an asyncio
  job queue multiplexing concurrent recording sessions onto the
  persistent :class:`repro.perf.pool.WorkerPool`; per-job wall-clock
  latency lands in a :class:`~repro.perf.StageTimer` and worker death
  surfaces as a bounded resume-and-retry, not a lost campaign.

The ``fleet`` workload of ``bench/run.py`` measures the scheduler's
throughput and latency; ``tests/test_fleet.py`` holds it to exact
archive parity against the serial path.

The failure-containment threading — per-board circuit breakers,
admission backpressure (``AMPEREBLEED_QUEUE_HWM``), job deadlines
riding the pool's watchdog, and archive quarantine — comes from
:mod:`repro.resilience`; every job ends in one of the scheduler's
:data:`~repro.fleet.scheduler.TERMINAL_STATUSES`.

``AMPEREBLEED_FLEET_BOARDS`` restricts which catalog boards the fleet
targets; the ``repro fleet`` CLI command drives the scheduler from the
command line.
"""

from repro.fleet.jobs import (
    JOB_KINDS,
    FleetJob,
    JobResult,
    build_fleet_jobs,
    run_job,
)
from repro.fleet.scheduler import (
    STATUS_DEFERRED,
    STATUS_DONE,
    STATUS_FAILED,
    STATUS_QUARANTINED,
    STATUS_SKIPPED,
    TERMINAL_STATUSES,
    FleetReport,
    FleetScheduler,
    JobOutcome,
)

__all__ = [
    "JOB_KINDS",
    "STATUS_DEFERRED",
    "STATUS_DONE",
    "STATUS_FAILED",
    "STATUS_QUARANTINED",
    "STATUS_SKIPPED",
    "TERMINAL_STATUSES",
    "FleetJob",
    "FleetReport",
    "FleetScheduler",
    "JobOutcome",
    "JobResult",
    "build_fleet_jobs",
    "run_job",
]
