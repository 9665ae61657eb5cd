"""Fleet campaign scheduler: every board in the catalog, one queue.

This package shards AmpereBleed recording campaigns across the
Table I board catalog: every job records one attack's traces into its
own checkpointed archive on a shared worker pool, and a fleet run
reports its throughput in traces/sec.

* :mod:`repro.fleet.jobs` — :class:`FleetJob`, one shardable unit of
  attack work (a fingerprint dataset collection, an RSA Hamming-weight
  sweep, or an end-to-end :class:`~repro.core.campaign.AttackCampaign`)
  bound to one board, one seed, and one archive directory;
  :func:`run_job`, the module-level task the worker pool executes;
  and :func:`build_fleet_jobs`, the standard batch of every kind on
  every board.  Jobs are resume-first: a retried job reopens its
  partial archive at its last checkpoint and seals it
  byte-identical to an uninterrupted run.
* :mod:`repro.fleet.scheduler` — :class:`FleetScheduler`, one
  dispatch loop on the calling thread, with no threads of its own,
  that keeps up to ``max_concurrent`` recording sessions in flight as
  futures on the shared process pool of
  :func:`repro.perf.pool.get_pool`; per-job wall-clock latency comes
  from ``time.perf_counter`` reads in that loop, and a worker death
  surfaces as a bounded resubmission on a fresh pool that resumes the
  partial archive, not a lost campaign.

The ``fleet`` workload of ``bench/run.py`` measures the scheduler's
throughput and latency; ``tests/test_fleet.py`` holds it to exact
archive parity against the serial path.

The failure containment — per-board circuit breakers and archive
quarantine — comes from :mod:`repro.resilience`; every job ends in
one of the scheduler's ``STATUS_*`` states.

The ``repro fleet`` CLI command drives the scheduler from the command
line; its ``--boards`` option restricts which catalog boards the fleet
targets.
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
    "FleetJob",
    "FleetReport",
    "FleetScheduler",
    "JobOutcome",
    "JobResult",
    "build_fleet_jobs",
    "run_job",
]
