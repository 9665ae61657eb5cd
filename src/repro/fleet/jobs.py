"""Fleet jobs: one shardable unit of attack work per board.

A :class:`FleetJob` names everything needed to reproduce one recording
campaign — the attack kind, the catalog board, the seed, the archive
directory, and the experiment parameters — as a small frozen value
that pickles in bytes, so the scheduler can ship it to a pool worker,
lose that worker, and ship it again.

:func:`run_job` is deliberately **resume-first**: it always opens the
job's archive through the PR 3 checkpoint/resume path, so the three
possible starting states need no coordination from the scheduler:

* no archive yet → a fresh recording;
* a partial archive (the previous attempt's worker died mid-shard) →
  recording resumes at the last checkpoint and, because recording is
  deterministic, seals byte-identical to an uninterrupted run;
* a sealed archive (the worker died *after* finishing but before
  reporting) → the job is a no-op and reports ``skipped=True``;
* a **corrupt** archive (damage beyond a torn tail —
  :class:`~repro.core.io.ArchiveCorruptError`) → the directory is
  moved to the ``quarantine/`` sidecar with a reason record and the
  job re-records fresh, reporting ``quarantined=True`` instead of
  aborting the campaign.

:func:`build_fleet_jobs` builds the standard batch — every job kind on
every selected board — that the ``repro fleet`` command and the chaos
harness run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.boards.catalog import get_board, list_boards
from repro.core.io import (
    ArchiveCorruptError,
    TraceArchiveReader,
    TraceArchiveWriter,
    is_archive_dir,
)
from repro.crypto import PAPER_HAMMING_WEIGHTS
from repro.perf.config import fleet_boards_from_env
from repro.resilience.quarantine import quarantine_archive

__all__ = [
    "JOB_KINDS",
    "FleetJob",
    "JobResult",
    "build_fleet_jobs",
    "run_job",
]

#: The attack campaigns the fleet knows how to shard.
JOB_KINDS = ("fingerprint", "rsa", "campaign")


@dataclass(frozen=True)
class FleetJob:
    """One board-bound unit of recording work.

    Attributes:
        job_id: unique name, used for latency stages and reporting.
        kind: one of :data:`JOB_KINDS`.
        board: catalog board name (validated by :meth:`make`).
        seed: session seed; with the board it determines every byte
            the job records.
        out: archive directory this job owns (no two jobs may share).
        params: experiment parameters as sorted ``(key, value)`` pairs
            — tuple-of-tuples so the job stays hashable and cheap to
            pickle; :meth:`param_dict` restores the dict view.
        timeout: wall-clock budget for one execution attempt, in
            seconds; the scheduler propagates it into the worker
            pool's deadline watchdog, which SIGKILLs and resubmits a
            worker holding the job past it.  Distinct from any
            simulated-time ``timeout`` *parameter* a kind may take
            (the campaign's detection window lives in ``params``);
            :meth:`make` spells it ``deadline`` for that reason.
            ``None`` means no budget.
        priority: admission priority under backpressure — when the
            scheduler's queue high-water mark would overflow, the
            *lowest*-priority jobs are deferred first (ties broken by
            submission order).
    """

    job_id: str
    kind: str
    board: str
    seed: int
    out: str
    params: Tuple[Tuple[str, object], ...] = ()
    timeout: Optional[float] = None
    priority: int = 0

    @classmethod
    def make(
        cls,
        kind: str,
        board: str,
        seed: int,
        out,
        job_id: Optional[str] = None,
        deadline: Optional[float] = None,
        priority: int = 0,
        **params,
    ) -> "FleetJob":
        """Build a validated job (board resolved against the catalog).

        ``deadline`` populates :attr:`timeout` (the wall-clock attempt
        budget); the name differs so experiment parameters that happen
        to be called ``timeout`` — the campaign's simulated detection
        window — still flow into ``params`` untouched.
        """
        if kind not in JOB_KINDS:
            raise ValueError(
                f"unknown job kind {kind!r}; expected one of {JOB_KINDS}"
            )
        if deadline is not None and deadline <= 0:
            raise ValueError("deadline must be > 0 or None")
        spec = get_board(board)  # KeyError lists the catalog
        if job_id is None:
            job_id = f"{kind}/{spec.name}/{int(seed)}"
        return cls(
            job_id=job_id,
            kind=kind,
            board=spec.name,
            seed=int(seed),
            out=str(out),
            params=tuple(sorted(params.items())),
            timeout=deadline,
            priority=int(priority),
        )

    def param_dict(self) -> Dict[str, object]:
        return dict(self.params)


@dataclass(frozen=True)
class JobResult:
    """What one executed job reported back.

    Attributes:
        traces / samples: volume recorded (or found sealed on disk) —
            the numerator of the fleet's traces/sec.
        resumed: the job continued a partial archive from a previous
            attempt.
        skipped: the archive was already sealed; nothing ran.
        quarantined: a corrupt archive was moved to the quarantine
            sidecar and the job re-recorded fresh.
        detail: kind-specific extras (e.g. the campaign outcome).
    """

    job_id: str
    kind: str
    board: str
    traces: int = 0
    samples: int = 0
    resumed: bool = False
    skipped: bool = False
    quarantined: bool = False
    detail: Tuple[Tuple[str, object], ...] = field(default_factory=tuple)


def _archive_counts(out: Path) -> Tuple[int, int]:
    """(traces, samples) of an archive, without reading array data.

    Chunk shapes come from :meth:`TraceArchiveReader.chunk_descriptors`
    — the zip-member layout holds each array's shape, so counting a
    sealed archive touches headers only.  Legacy compressed chunks
    fall back to a full read.
    """
    reader = TraceArchiveReader(out, allow_partial=True, mmap=True)
    trace_ids = set()
    samples = 0
    for entry in reader.entries:
        trace_ids.add(entry["trace_id"])
        layout = reader.chunk_descriptors(entry)
        if layout is not None:
            samples += int(layout["values"].shape[0])
        else:  # pragma: no cover - legacy compressed chunk
            samples += int(reader._read_chunk(entry).values.size)
    return len(trace_ids), samples


def _traceset_counts(datasets) -> Tuple[int, int]:
    """(traces, samples) across one or many in-memory trace sets."""
    if hasattr(datasets, "values") and not hasattr(datasets, "traces"):
        sets = list(datasets.values())
    else:
        sets = [datasets]
    traces = samples = 0
    for dataset in sets:
        for trace in dataset:
            traces += 1
            samples += int(trace.values.size)
    return traces, samples


def _run_fingerprint(job: FleetJob, resume: bool) -> Tuple[int, int, Tuple]:
    from repro.core.fingerprint import DnnFingerprinter, FingerprintConfig
    from repro.session import AttackSession

    params = job.param_dict()
    models = list(params.get("models", ()))
    channels = tuple(
        tuple(channel) for channel in params.get("channels", ())
    )
    config = FingerprintConfig(
        duration=float(params.get("duration", 1.0)),
        traces_per_model=int(params.get("traces_per_model", 2)),
        n_folds=int(params.get("n_folds", 2)),
        forest_trees=int(params.get("forest_trees", 5)),
    )
    session = AttackSession.create(board=job.board, seed=job.seed)
    fingerprinter = DnnFingerprinter(session=session, config=config)
    with TraceArchiveWriter(
        job.out,
        meta=fingerprinter.archive_meta(models, channels),
        resume=resume,
    ) as writer:
        datasets = fingerprinter.collect_datasets(
            models=models, channels=channels, sink=writer, resume=resume
        )
    traces, samples = _traceset_counts(datasets)
    return traces, samples, (("channels", len(datasets)),)


def _run_rsa(job: FleetJob, resume: bool) -> Tuple[int, int, Tuple]:
    from repro.core.rsa_attack import RsaHammingWeightAttack
    from repro.session import AttackSession

    params = job.param_dict()
    weights = tuple(int(weight) for weight in params.get("weights", (16,)))
    quantity = str(params.get("quantity", "current"))
    n_samples = int(params.get("n_samples", 2000))
    session = AttackSession.create(board=job.board, seed=job.seed)
    attack = RsaHammingWeightAttack(session=session)
    with TraceArchiveWriter(
        job.out,
        meta=attack.archive_meta(
            weights=weights, quantity=quantity, n_samples=n_samples
        ),
        resume=resume,
    ) as writer:
        sweep = attack.collect_sweep(
            weights=weights,
            quantity=quantity,
            n_samples=n_samples,
            sink=writer,
            resume=resume,
        )
    traces, samples = _traceset_counts(sweep)
    return traces, samples, (("weights", len(weights)),)


def _run_campaign(job: FleetJob, resume: bool) -> Tuple[int, int, Tuple]:
    from repro.core.campaign import AttackCampaign, deploy_victim
    from repro.session import AttackSession

    params = job.param_dict()
    victim_start = float(params.get("victim_start", 2.0))
    session = AttackSession.create(board=job.board, seed=job.seed)
    deploy_victim(
        session,
        start=victim_start,
        amplitude=float(params.get("victim_amplitude", 3.0)),
        domain=str(params.get("victim_domain", "fpga")),
    )
    campaign = AttackCampaign(session=session)
    trace = campaign.run_archived(
        job.out,
        victim_start=victim_start,
        trace_duration=float(params.get("trace_duration", 2.0)),
        timeout=float(params.get("timeout", 20.0)),
        chunk_duration=float(params.get("chunk_duration", 1.0)),
        resume=resume,
    )
    if trace is None:
        return 0, 0, (("outcome", "missed"),)
    return 1, int(trace.values.size), (("outcome", "captured"),)


_RUNNERS = {
    "fingerprint": _run_fingerprint,
    "rsa": _run_rsa,
    "campaign": _run_campaign,
}


def run_job(job: FleetJob) -> JobResult:
    """Execute one fleet job; safe to re-run after any interruption.

    Module-level on purpose: this is the callable the scheduler
    submits to the worker pool, so it follows the fork-safe task
    contract (no closures, no global mutation).
    """
    out = Path(job.out)
    resume = False
    quarantined = False
    if is_archive_dir(out):
        try:
            probe = TraceArchiveReader(out, allow_partial=True)
        except ArchiveCorruptError as damage:
            quarantine_archive(
                out,
                reason="archive-corrupt",
                error=str(damage),
                job_id=job.job_id,
            )
            quarantined = True
        else:
            if probe.complete:
                traces, samples = _archive_counts(out)
                return JobResult(
                    job_id=job.job_id,
                    kind=job.kind,
                    board=job.board,
                    traces=traces,
                    samples=samples,
                    skipped=True,
                )
            resume = True
    try:
        runner = _RUNNERS[job.kind]
    except KeyError:
        raise ValueError(
            f"unknown job kind {job.kind!r}; expected one of {JOB_KINDS}"
        ) from None
    try:
        traces, samples, detail = runner(job, resume)
    except ArchiveCorruptError as damage:
        if not resume:
            raise
        # The probe accepted the archive but the resume recovery saw
        # damage a torn tail cannot explain: condemn it and re-record.
        quarantine_archive(
            out,
            reason="archive-corrupt",
            error=str(damage),
            job_id=job.job_id,
        )
        quarantined = True
        resume = False
        traces, samples, detail = runner(job, False)
    return JobResult(
        job_id=job.job_id,
        kind=job.kind,
        board=job.board,
        traces=traces,
        samples=samples,
        resumed=resume,
        quarantined=quarantined,
        detail=detail,
    )


#: Boards the smoke batch targets (first N catalog boards).
_SMOKE_BOARDS = 2

#: Per-kind experiment parameters sized for a smoke batch, not a paper
#: run — small enough that a serial baseline plus a fleet pass finish
#: in seconds, large enough that every kind records real multi-chunk
#: archives.
_FINGERPRINT_PARAMS = dict(
    models=("resnet-50", "vgg-16", "mobilenet-v2-1.0"),
    channels=(("fpga", "current"), ("ddr", "current")),
    duration=1.0,
    traces_per_model=2,
    n_folds=2,
    forest_trees=5,
)
_RSA_PARAMS = dict(
    weights=tuple(PAPER_HAMMING_WEIGHTS[:3]),
    quantity="current",
    n_samples=2000,
)
_CAMPAIGN_PARAMS = dict(
    victim_start=2.0,
    trace_duration=2.0,
    timeout=20.0,
    chunk_duration=1.0,
)

_KIND_PARAMS = {
    "fingerprint": _FINGERPRINT_PARAMS,
    "rsa": _RSA_PARAMS,
    "campaign": _CAMPAIGN_PARAMS,
}


def build_fleet_jobs(
    root,
    boards: Optional[Sequence[str]] = None,
    kinds: Optional[Sequence[str]] = None,
    seed: int = 0,
    smoke: bool = False,
    deadline: Optional[float] = None,
) -> List[FleetJob]:
    """The standard batch: every kind of campaign on every board.

    ``boards=None`` honors ``AMPEREBLEED_FLEET_BOARDS`` and falls back
    to the full Table I catalog; ``smoke=True`` trims that default to
    the first two catalog boards so a smoke pass stays quick (an
    explicit ``boards`` list is never trimmed).  Each job's archive
    lands under ``root`` in a directory named after the job, so one
    batch built against two different roots yields the job pairs the
    parity check compares.  ``deadline`` arms each job's wall-clock
    attempt budget (the chaos harness uses it to bound hung workers).
    """
    if boards is None:
        boards = fleet_boards_from_env()
    if boards is None:
        boards = [spec.name for spec in list_boards()]
        if smoke:
            boards = boards[:_SMOKE_BOARDS]
    if kinds is None:
        kinds = JOB_KINDS
    root = Path(root)
    jobs: List[FleetJob] = []
    for board in boards:
        for kind in kinds:
            params = _KIND_PARAMS[kind]
            jobs.append(
                FleetJob.make(
                    kind,
                    board,
                    seed=seed,
                    out=root / f"{kind}-{board}-{int(seed)}",
                    deadline=deadline,
                    **params,
                )
            )
    return jobs
