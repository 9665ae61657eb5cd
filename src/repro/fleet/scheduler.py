"""Fleet scheduler: many boards, one dispatch loop, one worker pool.

:class:`FleetScheduler` runs a batch of :class:`~repro.fleet.jobs.
FleetJob`\\ s from one loop on the calling thread, with no threads of
its own: it submits up to ``max_concurrent`` recording sessions to the
shared process pool of :func:`~repro.perf.pool.get_pool` as futures,
each executed by :func:`~repro.fleet.jobs.run_job`, and blocks in
:func:`concurrent.futures.wait` until the next one completes.  With
``use_pool=False`` each job runs inline, one at a time in submission
order — the serial baseline the tests compare against.  Only the loop
touches the job queue, the breakers and the tick clock.

Fault story, layered bottom-up so each layer only sees what the one
below could not absorb:

* a **worker death** breaks the pool: every job in flight on it fails
  with ``BrokenProcessPool``, the next :func:`~repro.perf.pool.
  get_pool` forks a fresh pool, and the scheduler retries each such
  job up to ``retries`` times — because jobs are resume-first, the
  retry continues the partial archive from its last checkpoint and
  seals it byte-identical to an uninterrupted run;
* a **board** that keeps failing trips its per-board
  :class:`~repro.resilience.CircuitBreaker`: dispatches to it are
  requeued until the breaker half-opens and a probe succeeds, so one
  sick board sheds load instead of burning every job's retry budget —
  jobs queued behind the in-flight probe wait for the next completion,
  a job still refused after its requeue budget ends ``deferred``, and
  the full transition log lands in the report;
* a **corrupt archive** is quarantined by the job layer
  (``quarantined`` outcome);
* any other exception is a deterministic job failure and is reported
  with its attempt trace, not retried (re-running it would fail
  identically) — and never raises out of the dispatch loop.

Every job therefore ends in exactly one terminal status:
``done``, ``skipped``, ``deferred``, ``quarantined``, or ``failed``
(with reason).  The breaker clock is the scheduler's own decision
tick, not wall time, so a replayed batch replays the same breaker
windows.

Per-job latency is wall-clock time from dispatch to result, read with
``time.perf_counter`` once per loop iteration; the report folds those
into p50/p95 job latencies.  Host wall time goes into the report only,
never into simulated time.
"""

from __future__ import annotations

import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.fleet.jobs import FleetJob, JobResult, run_job
from repro.perf import pool
from repro.perf.config import available_cpus, resolve_workers
from repro.perf.executor import _fork_context
from repro.resilience.breaker import OPEN, BreakerPolicy, CircuitBreaker

__all__ = [
    "STATUS_DONE",
    "STATUS_SKIPPED",
    "STATUS_DEFERRED",
    "STATUS_QUARANTINED",
    "STATUS_FAILED",
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


@dataclass(frozen=True)
class JobOutcome:
    """One job's fate: result or error, plus latency and attempts.

    Attributes:
        status: terminal state, one of the ``STATUS_*`` constants.
        attempt_errors: every error observed on the way to the
            terminal state, in order — broken-pool retries included,
            so a ``failed`` outcome carries its full attempt trace.
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
    """Aggregated outcome of one fleet run.

    ``respawns`` counts the pools rebuilt after a worker death broke
    one during the run.
    """

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
        """The report as one JSON-ready dict."""
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
        max_concurrent: recording sessions in flight at once on the
            pool (inline, jobs run one at a time).
        retries: job-level re-runs after a worker death broke the
            pool; each retry runs on a fresh pool and resumes the
            job's partial archive.
        use_pool: execute jobs on the shared process pool (falls back
            to inline execution when ``fork`` is unavailable);
            ``False`` runs every job inline — the serial baseline.
        workers: pool width (``None`` honors ``AMPEREBLEED_WORKERS``,
            defaulting to all CPUs).
        breaker_policy: per-board circuit-breaker parameters
            (``None`` = the :class:`BreakerPolicy` defaults).
        breaker_seed: seed for the breakers' deterministic cooldown
            jitter.

    A job an open breaker refuses may be requeued
    ``max(32, 8 * len(jobs))`` times before it ends ``deferred``.
    """

    def __init__(
        self,
        jobs: Sequence[FleetJob],
        max_concurrent: int = 4,
        retries: int = 1,
        use_pool: bool = True,
        workers: Optional[int] = None,
        breaker_policy: Optional[BreakerPolicy] = None,
        breaker_seed: int = 0,
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
        self.max_concurrent = int(max_concurrent)
        self.retries = int(retries)
        self.use_pool = bool(use_pool) and _fork_context() is not None
        self.workers = resolve_workers(workers, default=available_cpus())
        self.max_defers = max(32, 8 * len(self.jobs))
        policy = breaker_policy or BreakerPolicy()
        self._breakers: Dict[str, CircuitBreaker] = {
            board: CircuitBreaker(board, policy=policy, seed=breaker_seed)
            for board in sorted({job.board for job in self.jobs})
        }
        self._tick = 0.0

    # -- clock --------------------------------------------------------

    def _next_tick(self) -> float:
        """Advance the breaker clock by one scheduling decision.

        Event-driven rather than wall-clock, so breaker windows replay.
        """
        self._tick += 1.0
        return self._tick

    # -- execution ----------------------------------------------------

    def _submit(self, job: FleetJob) -> Future:
        """Start one job and return its future: the only execution seam.

        ``run_job`` is looked up by its module-global name at each
        call, so a wrapper patched over that name is what runs.  On the
        pool the future resolves when a worker finishes the job;
        inline, the job runs now and the future comes back resolved
        with its result or its exception.
        """
        future: Future = Future()
        try:
            if self.use_pool:
                return pool.get_pool(self.workers).submit(run_job, job)
            future.set_result(run_job(job))
        except Exception as exc:
            future.set_exception(exc)
        return future

    def _dispatch(self, now: float) -> List[JobOutcome]:
        """The dispatch loop: fill free slots, then await a completion.

        ``now`` is the wall time the first dispatches count latency
        from.  A job whose future fails with ``BrokenProcessPool`` is
        resubmitted at once, up to ``retries`` times, on the pool the
        next :func:`~repro.perf.pool.get_pool` rebuilds.  A job an open
        breaker refuses is requeued and counts against its budget — the
        cooldown elapses in these very refusal ticks, so the count is
        bounded.  A job refused because the board's half-open probe is
        still in flight is parked until the next completion, without
        spending budget.
        """
        outcomes: List[Optional[JobOutcome]] = [None] * len(self.jobs)
        queue = deque(
            (index, job, 0, ()) for index, job in enumerate(self.jobs)
        )
        #: future -> (index, job, attempts, attempt errors, dispatched at)
        inflight: Dict[Future, Tuple] = {}
        slots = self.max_concurrent if self.use_pool else 1
        while queue or inflight:
            parked = []
            while queue and len(inflight) < slots:
                index, job, defers, attempt_errors = queue.popleft()
                breaker = self._breakers[job.board]
                if not breaker.allow(self._next_tick()):
                    if breaker.state != OPEN:
                        parked.append((index, job, defers, attempt_errors))
                    elif defers + 1 >= self.max_defers:
                        outcomes[index] = JobOutcome(
                            job=job,
                            result=None,
                            error=(
                                f"deferred: circuit breaker for board "
                                f"{job.board} still open after "
                                f"{defers + 1} deferrals"
                            ),
                            latency_s=0.0,
                            attempts=0,
                            status=STATUS_DEFERRED,
                            attempt_errors=attempt_errors,
                        )
                    else:
                        queue.append((index, job, defers + 1, attempt_errors))
                    continue
                inflight[self._submit(job)] = (
                    index, job, 1, attempt_errors, now
                )
            done, _ = wait(inflight, return_when=FIRST_COMPLETED)
            # Host wall time: it feeds the report's latencies, never
            # simulated time.
            now = time.perf_counter()  # repro: ignore[TIME001]
            for future in done:
                index, job, attempts, attempt_errors, started = inflight.pop(
                    future
                )
                result: Optional[JobResult] = None
                error: Optional[str] = None
                try:
                    result = future.result()
                except BrokenProcessPool as crash:
                    # A worker died; the retry runs on a fresh pool and
                    # resumes the partial archive.
                    error = f"{type(crash).__name__}: {crash}"
                    attempt_errors += (error,)
                    if attempts <= self.retries:
                        inflight[self._submit(job)] = (
                            index, job, attempts + 1, attempt_errors, started
                        )
                        continue
                except Exception as exc:
                    error = f"{type(exc).__name__}: {exc}"
                    attempt_errors += (error,)
                breaker = self._breakers[job.board]
                if error is None:
                    breaker.record_success(self._next_tick())
                else:
                    breaker.record_failure(self._next_tick())
                outcomes[index] = JobOutcome(
                    job=job,
                    result=result,
                    error=error,
                    latency_s=now - started,
                    attempts=attempts,
                    status=_terminal_status(result, error),
                    attempt_errors=attempt_errors,
                )
            queue.extendleft(reversed(parked))
        return outcomes

    def run(self) -> FleetReport:
        """Execute the batch; returns the aggregated report.

        Outcomes come back in job-submission order regardless of
        completion order, so fleet reports are stable run to run.
        """
        rebuilds_before = pool.rebuilds()
        # Host wall time: it feeds the report's total, never simulated
        # time.
        start = time.perf_counter()  # repro: ignore[TIME001]
        outcomes = self._dispatch(start)
        total_s = time.perf_counter() - start  # repro: ignore[TIME001]
        breaker_events = tuple(
            {"board": board, **transition.as_dict()}
            for board, breaker in sorted(self._breakers.items())
            for transition in breaker.transitions
        )
        return FleetReport(
            outcomes=tuple(outcomes),
            total_s=total_s,
            respawns=pool.rebuilds() - rebuilds_before,
            breaker_events=breaker_events,
        )
