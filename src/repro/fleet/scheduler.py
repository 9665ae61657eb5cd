"""Async fleet scheduler: many boards, one queue, one worker pool.

:class:`FleetScheduler` multiplexes a batch of :class:`~repro.fleet.
jobs.FleetJob`\\ s with an :mod:`asyncio` queue: up to
``max_concurrent`` recording sessions are in flight at once, each
executed by :func:`~repro.fleet.jobs.run_job` on the persistent
:class:`~repro.perf.pool.WorkerPool` (or inline with
``use_pool=False`` — the serial baseline the chaos harness and the
tests compare against).

Fault story, layered bottom-up so each layer only sees what the one
below could not absorb:

* a **worker death** is first absorbed by the pool itself, which
  respawns the worker and resubmits the task (bounded by its
  :class:`~repro.faults.RetryPolicy`); a worker merely *hung* —
  SIGSTOPped, livelocked — is SIGKILLed by the pool's deadline
  watchdog when the job carries a ``timeout`` budget, then handled
  like any other death;
* if the pool gives up (:class:`~repro.perf.pool.WorkerCrashError`,
  including its deadline flavor :class:`~repro.perf.pool.
  TaskDeadlineError`), the scheduler retries the *job* up to
  ``retries`` times — and because jobs are resume-first, the retry
  continues the partial archive from its last checkpoint and seals it
  byte-identical to an uninterrupted run;
* a **board** that keeps failing trips its per-board
  :class:`~repro.resilience.CircuitBreaker`: dispatches to it are
  requeued (bounded) until the breaker half-opens and a probe
  succeeds, so one sick board sheds load instead of burning every
  job's retry budget — the full transition log lands in the report;
* a **corrupt archive** is quarantined by the job layer
  (``quarantined`` outcome), and more jobs than the admission
  high-water mark allows are shed up front as explicit ``deferred``
  outcomes (lowest priority first) rather than growing the queue
  without bound;
* any other exception is a deterministic job failure and is reported
  with its attempt trace, not retried (re-running it would fail
  identically) — and never raises out of the scheduler loop.

Every job therefore ends in exactly one terminal status:
``done``, ``skipped``, ``deferred``, ``quarantined``, or ``failed``
(with reason).  The breaker clock is the scheduler's own decision
tick, not wall time, so a replayed batch replays the same breaker
windows.

Per-job latency is wall-clock time from dispatch to result, measured
with :class:`~repro.perf.StageTimer` (one stage per job id); the
report folds those into p50/p95 job latencies.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.fleet.jobs import FleetJob, JobResult, run_job
from repro.perf.config import (
    available_cpus,
    queue_hwm_from_env,
    resolve_workers,
)
from repro.perf.executor import _fork_context
from repro.perf.pool import WorkerCrashError, get_pool
from repro.perf.timer import StageTimer
from repro.resilience.breaker import (
    OPEN,
    BreakerPolicy,
    CircuitBreaker,
    TransientJobError,
)

__all__ = [
    "STATUS_DONE",
    "STATUS_SKIPPED",
    "STATUS_DEFERRED",
    "STATUS_QUARANTINED",
    "STATUS_FAILED",
    "TERMINAL_STATUSES",
    "FleetReport",
    "FleetScheduler",
    "JobOutcome",
]

#: The only states a job may end a fleet run in.
STATUS_DONE = "done"
STATUS_SKIPPED = "skipped"
STATUS_DEFERRED = "deferred"
STATUS_QUARANTINED = "quarantined"
STATUS_FAILED = "failed"
TERMINAL_STATUSES = (
    STATUS_DONE,
    STATUS_SKIPPED,
    STATUS_DEFERRED,
    STATUS_QUARANTINED,
    STATUS_FAILED,
)


@dataclass(frozen=True)
class JobOutcome:
    """One job's fate: result or error, plus latency and attempts.

    Attributes:
        status: terminal state, one of :data:`TERMINAL_STATUSES`.
        attempt_errors: every error observed on the way to the
            terminal state, in order — crash retries and transient
            board outages included, so a ``failed`` outcome carries
            its full attempt trace.
    """

    job: FleetJob
    result: Optional[JobResult]
    error: Optional[str]
    latency_s: float
    attempts: int
    status: str = STATUS_DONE
    attempt_errors: Tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return self.error is None and self.result is not None


@dataclass(frozen=True)
class FleetReport:
    """Aggregated outcome of one fleet run."""

    outcomes: Tuple[JobOutcome, ...]
    total_s: float
    respawns: int = 0
    breaker_events: Tuple[Dict, ...] = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        """Every job completed (possibly after resume-and-retry)."""
        return all(outcome.ok for outcome in self.outcomes)

    @property
    def statuses(self) -> Dict[str, int]:
        """Terminal-state histogram (only states that occurred)."""
        counts: Dict[str, int] = {}
        for outcome in self.outcomes:
            counts[outcome.status] = counts.get(outcome.status, 0) + 1
        return counts

    @property
    def traces(self) -> int:
        return sum(
            outcome.result.traces for outcome in self.outcomes if outcome.ok
        )

    @property
    def samples(self) -> int:
        return sum(
            outcome.result.samples for outcome in self.outcomes if outcome.ok
        )

    @property
    def traces_per_sec(self) -> float:
        return self.traces / self.total_s if self.total_s > 0 else 0.0

    @property
    def samples_per_sec(self) -> float:
        return self.samples / self.total_s if self.total_s > 0 else 0.0

    def latency_percentile(self, q: float) -> float:
        """Wall-clock job latency at percentile ``q`` (0-100)."""
        latencies = [outcome.latency_s for outcome in self.outcomes]
        if not latencies:
            return 0.0
        return float(np.percentile(np.asarray(latencies), q))

    def as_dict(self) -> Dict:
        """The JSON shape each chaos-scenario report embeds."""
        return {
            "jobs": len(self.outcomes),
            "ok": self.ok,
            "total_s": self.total_s,
            "traces": self.traces,
            "samples": self.samples,
            "traces_per_sec": self.traces_per_sec,
            "samples_per_sec": self.samples_per_sec,
            "p50_job_latency_s": self.latency_percentile(50),
            "p95_job_latency_s": self.latency_percentile(95),
            "max_job_latency_s": self.latency_percentile(100),
            "respawns": self.respawns,
            "statuses": self.statuses,
            "breaker_events": list(self.breaker_events),
            "attempt_traces": [
                {
                    "job_id": outcome.job.job_id,
                    "attempts": outcome.attempts,
                    "errors": list(outcome.attempt_errors),
                }
                for outcome in self.outcomes
                if outcome.attempt_errors
            ],
            "failures": [
                {"job_id": outcome.job.job_id, "error": outcome.error}
                for outcome in self.outcomes
                if not outcome.ok
            ],
        }


def _terminal_status(result: Optional[JobResult], error: Optional[str]) -> str:
    if error is not None:
        return STATUS_FAILED
    if result is not None and result.skipped:
        return STATUS_SKIPPED
    if result is not None and result.quarantined:
        return STATUS_QUARANTINED
    return STATUS_DONE


class FleetScheduler:
    """Shard a batch of fleet jobs across boards and pool workers.

    Args:
        jobs: the batch; job ids and archive directories must be
            unique (two jobs writing one archive would corrupt it).
        max_concurrent: recording sessions in flight at once.
        retries: job-level re-runs after the pool reports a worker
            crash it could not absorb; each retry resumes the job's
            partial archive.
        use_pool: execute jobs on the shared :class:`WorkerPool`
            (falls back to inline execution when ``fork`` is
            unavailable); ``False`` runs every job inline — the
            serial baseline.  A job's ``timeout`` deadline is only
            enforceable on the pool path (inline execution cannot be
            preempted).
        workers: pool width (``None`` honors ``AMPEREBLEED_WORKERS``,
            defaulting to all CPUs).
        queue_hwm: admission high-water mark — at most this many jobs
            enter the run queue; the overflow ends ``deferred``,
            lowest :attr:`FleetJob.priority` first.  ``None`` honors
            ``AMPEREBLEED_QUEUE_HWM`` (unset = unbounded).
        breaker_policy: per-board circuit-breaker parameters
            (``None`` = :meth:`BreakerPolicy.from_env`).
        breaker_seed: seed for the breakers' deterministic cooldown
            jitter.
        max_defers: times one job may be requeued — breaker-denied or
            transiently failed — before it is forced terminal
            (default scales with the batch size).
        chaos: optional dispatch hook ``chaos(job)`` called before
            each execution; raising :class:`TransientJobError` models
            a board outage window (the dispatch is counted as a board
            failure and the job requeued).  This is the chaos
            harness's injection point — leave ``None`` in production.
    """

    def __init__(
        self,
        jobs: Sequence[FleetJob],
        max_concurrent: int = 4,
        retries: int = 1,
        use_pool: bool = True,
        workers: Optional[int] = None,
        queue_hwm: Optional[int] = None,
        breaker_policy: Optional[BreakerPolicy] = None,
        breaker_seed: int = 0,
        max_defers: Optional[int] = None,
        chaos: Optional[Callable[[FleetJob], None]] = None,
    ):
        self.jobs = list(jobs)
        seen_ids = set()
        seen_outs = set()
        for job in self.jobs:
            if job.job_id in seen_ids:
                raise ValueError(f"duplicate job id {job.job_id!r}")
            if job.out in seen_outs:
                raise ValueError(
                    f"jobs share the archive directory {job.out!r}"
                )
            seen_ids.add(job.job_id)
            seen_outs.add(job.out)
        if max_concurrent < 1:
            raise ValueError("max_concurrent must be >= 1")
        if retries < 0:
            raise ValueError("retries must be >= 0")
        if queue_hwm is None:
            queue_hwm = queue_hwm_from_env()
        if queue_hwm is not None and queue_hwm < 1:
            raise ValueError("queue_hwm must be >= 1 or None")
        self.max_concurrent = int(max_concurrent)
        self.retries = int(retries)
        self.use_pool = bool(use_pool) and _fork_context() is not None
        self.workers = resolve_workers(workers, default=available_cpus())
        self.queue_hwm = queue_hwm
        self.max_defers = (
            int(max_defers)
            if max_defers is not None
            else max(32, 8 * len(self.jobs))
        )
        if self.max_defers < 1:
            raise ValueError("max_defers must be >= 1")
        self._chaos = chaos
        policy = breaker_policy or BreakerPolicy.from_env()
        self._breakers: Dict[str, CircuitBreaker] = {
            board: CircuitBreaker(board, policy=policy, seed=breaker_seed)
            for board in sorted({job.board for job in self.jobs})
        }
        self._tick = 0.0

    # -- clock --------------------------------------------------------

    def _next_tick(self) -> float:
        """Advance the breaker clock by one scheduling decision.

        Runs on the (single-threaded) event loop only, so a plain
        counter is race-free — and being event-driven rather than
        wall-clock keeps breaker windows replayable.
        """
        self._tick += 1.0
        return self._tick

    # -- execution ----------------------------------------------------

    def _execute(self, job: FleetJob) -> JobResult:
        """Run one job, blocking — called from executor threads."""
        if self.use_pool:
            return (
                get_pool(self.workers)
                .submit(run_job, job, deadline_s=job.timeout)
                .result()
            )
        return run_job(job)

    async def _drain(self, queue, outcomes, timer) -> None:
        loop = asyncio.get_running_loop()
        while True:
            try:
                index, job, defers, attempt_errors = queue.get_nowait()
            except asyncio.QueueEmpty:
                return
            breaker = self._breakers[job.board]
            if not breaker.allow(self._next_tick()):
                # A deferral only counts against the budget while the
                # breaker is cooling down (open): its cooldown elapses
                # in these very denial ticks, so the count is bounded.
                # Queued behind an in-flight half-open probe, the job
                # just waits for the probe's verdict — wall-clock
                # visits there are unbounded by design and must not
                # burn the budget.
                counted = breaker.state == OPEN
                if counted and defers + 1 >= self.max_defers:
                    outcomes[index] = JobOutcome(
                        job=job,
                        result=None,
                        error=(
                            f"deferred: circuit breaker for board "
                            f"{job.board} still open after {defers + 1} "
                            f"deferrals"
                        ),
                        latency_s=0.0,
                        attempts=0,
                        status=STATUS_DEFERRED,
                        attempt_errors=tuple(attempt_errors),
                    )
                else:
                    queue.put_nowait(
                        (index, job, defers + counted, attempt_errors)
                    )
                    # Yield so a half-open probe elsewhere can run
                    # before this job spins on the same breaker again.
                    await asyncio.sleep(0)
                continue
            if self._chaos is not None:
                try:
                    self._chaos(job)
                except TransientJobError as outage:
                    breaker.record_failure(self._next_tick())
                    attempt_errors = attempt_errors + [
                        f"{type(outage).__name__}: {outage}"
                    ]
                    if defers + 1 >= self.max_defers:
                        outcomes[index] = JobOutcome(
                            job=job,
                            result=None,
                            error=(
                                f"transient failures exhausted "
                                f"{defers + 1} deferrals: "
                                f"{attempt_errors[-1]}"
                            ),
                            latency_s=0.0,
                            attempts=0,
                            status=STATUS_FAILED,
                            attempt_errors=tuple(attempt_errors),
                        )
                    else:
                        queue.put_nowait(
                            (index, job, defers + 1, attempt_errors)
                        )
                        await asyncio.sleep(0)
                    continue
            attempts = 0
            error: Optional[str] = None
            result: Optional[JobResult] = None
            with timer.stage(job.job_id):
                while True:
                    attempts += 1
                    try:
                        result = await loop.run_in_executor(
                            None, self._execute, job
                        )
                        error = None
                        break
                    except WorkerCrashError as crash:
                        # The pool already resubmitted up to its retry
                        # budget; one more job-level attempt resumes
                        # the partial archive from its checkpoint.
                        error = f"{type(crash).__name__}: {crash}"
                        attempt_errors = attempt_errors + [error]
                        if attempts > self.retries:
                            break
                    except Exception as exc:
                        error = f"{type(exc).__name__}: {exc}"
                        attempt_errors = attempt_errors + [error]
                        break
            if error is None:
                breaker.record_success(self._next_tick())
            else:
                breaker.record_failure(self._next_tick())
            outcomes[index] = JobOutcome(
                job=job,
                result=result,
                error=error,
                latency_s=timer.elapsed(job.job_id),
                attempts=attempts,
                status=_terminal_status(result, error),
                attempt_errors=tuple(attempt_errors),
            )

    def _admit(
        self, outcomes: List[Optional[JobOutcome]]
    ) -> List[Tuple[int, FleetJob]]:
        """Apply the queue high-water mark; defer the overflow.

        Keeps the ``queue_hwm`` highest-priority jobs (submission
        order breaks ties); every shed job gets an immediate terminal
        ``deferred`` outcome so callers see an explicit decision, not
        a silent drop.
        """
        indexed = list(enumerate(self.jobs))
        if self.queue_hwm is None or len(indexed) <= self.queue_hwm:
            return indexed
        ranked = sorted(
            indexed, key=lambda pair: (-pair[1].priority, pair[0])
        )
        admitted = ranked[: self.queue_hwm]
        for index, job in ranked[self.queue_hwm:]:
            outcomes[index] = JobOutcome(
                job=job,
                result=None,
                error=(
                    f"deferred: queue high-water mark "
                    f"{self.queue_hwm} exceeded"
                ),
                latency_s=0.0,
                attempts=0,
                status=STATUS_DEFERRED,
            )
        return sorted(admitted, key=lambda pair: pair[0])

    async def _run(self, timer: StageTimer) -> List[JobOutcome]:
        outcomes: List[Optional[JobOutcome]] = [None] * len(self.jobs)
        admitted = self._admit(outcomes)
        queue: asyncio.Queue = asyncio.Queue()
        for index, job in admitted:
            queue.put_nowait((index, job, 0, []))
        drains = min(self.max_concurrent, max(1, len(admitted)))
        await asyncio.gather(
            *(self._drain(queue, outcomes, timer) for _ in range(drains))
        )
        return outcomes

    def run(self) -> FleetReport:
        """Execute the batch; returns the aggregated report.

        Outcomes come back in job-submission order regardless of
        completion order, so fleet reports are stable run to run.
        """
        timer = StageTimer()
        respawns_before = 0
        if self.use_pool:
            respawns_before = get_pool(self.workers).respawns
        with timer.stage("fleet"):
            outcomes = asyncio.run(self._run(timer))
        respawns = 0
        if self.use_pool:
            respawns = get_pool(self.workers).respawns - respawns_before
        breaker_events = tuple(
            {"board": board, **transition.as_dict()}
            for board, breaker in sorted(self._breakers.items())
            for transition in breaker.transitions
        )
        return FleetReport(
            outcomes=tuple(outcomes),
            total_s=timer.elapsed("fleet"),
            respawns=respawns,
            breaker_events=breaker_events,
        )
