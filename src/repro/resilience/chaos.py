"""Chaos harness: inject fleet-scale faults, assert the invariants.

:func:`run_chaos_bench` (driven by ``pytest -m chaos``) runs each
scenario below against a small real campaign batch and checks the
run-level invariants a resilient fleet must keep **under** fault
injection, not just on the happy path:

* **no hang** — the scenario finishes inside a wall-clock bound (the
  whole point of deadlines, reaping, and strand-proof futures);
* **terminal states** — every job ends in exactly one of
  :data:`~repro.fleet.scheduler.TERMINAL_STATUSES`;
* **archive parity** — every surviving shard (``done`` / ``skipped``
  / ``quarantined``) seals byte-identical to the matched fault-free
  serial run (the PR 3 determinism contract, now under fire);
* **accuracy parity** — a surviving fingerprint shard evaluates to
  exactly the baseline's Table III accuracies.

Scenarios and what they stress:

==================  ====================================================
``worker-sigkill``  a pool worker SIGKILLs itself mid-append → pool
                    respawn + job resume must seal byte-identical
``worker-sigstop``  a pool worker SIGSTOPs itself (hung, not dead) →
                    the deadline watchdog must reap it and the job
                    must complete via resubmission
``board-outage``    dispatches to a board fail for a window → the
                    circuit breaker must open, half-open probe, close,
                    and every job still finish
``archive-corrupt`` a job's archive manifest is garbled beyond a torn
                    tail → quarantine + fresh re-record, campaign
                    survives
``fault-storm``     ``AMPEREBLEED_FAULT_RATE`` cranked high → the
                    sensor-fault machinery stays deterministic, so the
                    faulted fleet run still matches a faulted serial
                    run byte for byte
==================  ====================================================

Injectors are seed-deterministic — trigger counts are fixed, outage
windows count dispatches (the scheduler's tick clock), and sensor
fault storms ride the counter-hashed :class:`repro.faults.FaultPlan`
— so a red scenario reproduces under the same seed.  Wall-clock only
bounds the *harness* (via :class:`repro.perf.StageTimer`); it never
drives an injector.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import signal
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.io import MANIFEST_NAME, TraceArchiveWriter
from repro.fleet.jobs import FleetJob, build_fleet_jobs
from repro.fleet.scheduler import (
    STATUS_DONE,
    STATUS_QUARANTINED,
    STATUS_SKIPPED,
    TERMINAL_STATUSES,
    FleetReport,
    FleetScheduler,
)
from repro.perf.config import FAULT_RATE_ENV, available_cpus
from repro.perf.executor import _fork_context
from repro.perf.pool import shutdown_pool
from repro.perf.timer import StageTimer
from repro.resilience.breaker import BoardOutageError, BreakerPolicy
from repro.resilience.quarantine import list_quarantined

__all__ = ["SCENARIOS", "run_chaos_bench"]

#: Every chaos scenario, in the order the bench runs them.
SCENARIOS = (
    "worker-sigkill",
    "worker-sigstop",
    "board-outage",
    "archive-corrupt",
    "fault-storm",
)

#: Board the chaos batches target (one board keeps scenarios quick;
#: the breaker scenario only needs its own denials to advance ticks).
_CHAOS_BOARD = "ZCU102"

#: Per-scenario wall-clock bound for the no-hang invariant (generous:
#: a smoke batch runs in seconds; a hang runs forever).
_DEFAULT_BOUND_S = 240.0

#: Wall-clock budget per job attempt in the sigstop scenario — the
#: reaping latency for a hung worker, so it must comfortably exceed an
#: honest job's runtime while keeping the scenario short.
_SIGSTOP_DEADLINE_S = 20.0

#: Fault-storm sensor fault rate (high enough that every trace sees
#: faults, low enough that sensors stay out of the dead state).
_STORM_RATE = 0.25

#: The outcome statuses whose archives must match the baseline.
_SURVIVING = (STATUS_DONE, STATUS_SKIPPED, STATUS_QUARANTINED)


def _tree_hash(root: Path) -> str:
    """One digest over an archive directory, independent of its name."""
    digest = hashlib.sha256()
    root = Path(root)
    for path in sorted(root.rglob("*")):
        if path.is_file():
            digest.update(path.relative_to(root).as_posix().encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def _accuracy_cells(out) -> Dict[str, Dict[str, float]]:
    """Table III accuracies of one recorded fingerprint archive."""
    from repro.core.fingerprint import FingerprintAnalyzer

    analyzer, datasets = FingerprintAnalyzer.from_archive(out, workers=1)
    grid = analyzer.evaluate_table3(
        datasets, durations=(analyzer.config.duration,), workers=1
    )
    return {
        f"{domain}/{quantity}@{duration:g}s": {
            "top1": result.top1,
            "top5": result.top5,
        }
        for (domain, quantity, duration), result in grid.items()
    }


def _statuses(report: FleetReport) -> Dict[str, int]:
    return report.statuses


def _serial_baseline(
    root: Path, seed: int
) -> Tuple[List[FleetJob], FleetReport]:
    """Fault-free one-at-a-time inline run: the parity reference."""
    jobs = build_fleet_jobs(root, boards=[_CHAOS_BOARD], seed=seed)
    report = FleetScheduler(jobs, max_concurrent=1, use_pool=False).run()
    return jobs, report


def _parity_invariants(
    serial_jobs: Sequence[FleetJob],
    chaos_jobs: Sequence[FleetJob],
    report: FleetReport,
) -> Dict:
    """Archive + accuracy parity over the surviving shards."""
    by_index = {
        outcome.job.out: outcome for outcome in report.outcomes
    }
    archives = []
    archive_parity = True
    survivors = []
    for serial_job, chaos_job in zip(serial_jobs, chaos_jobs):
        outcome = by_index[chaos_job.out]
        if outcome.status not in _SURVIVING:
            archives.append(
                {"job_id": chaos_job.job_id, "status": outcome.status}
            )
            continue
        match = _tree_hash(serial_job.out) == _tree_hash(chaos_job.out)
        archive_parity = archive_parity and match
        archives.append(
            {
                "job_id": chaos_job.job_id,
                "status": outcome.status,
                "identical": match,
            }
        )
        survivors.append((serial_job, chaos_job))
    accuracy_parity: Optional[bool] = None
    for serial_job, chaos_job in survivors:
        if serial_job.kind != "fingerprint":
            continue
        accuracy_parity = _accuracy_cells(serial_job.out) == _accuracy_cells(
            chaos_job.out
        )
        break
    return {
        "archive_parity": archive_parity,
        "accuracy_parity": accuracy_parity,
        "archives": archives,
    }


def _finish(
    name: str,
    serial_jobs,
    chaos_jobs,
    report: FleetReport,
    extra_invariants: Optional[Dict] = None,
    baseline: str = "fault-free-serial",
) -> Dict:
    """Fold one scenario's report into its invariant verdicts."""
    terminal = all(
        outcome is not None and outcome.status in TERMINAL_STATUSES
        for outcome in report.outcomes
    )
    invariants = {"terminal_states": terminal}
    invariants.update(
        _parity_invariants(serial_jobs, chaos_jobs, report)
    )
    if extra_invariants:
        invariants.update(extra_invariants)
    verdicts = [
        value
        for key, value in invariants.items()
        if isinstance(value, bool)
    ]
    return {
        "name": name,
        "baseline": baseline,
        "ok": all(verdicts),
        "invariants": invariants,
        "statuses": _statuses(report),
        "respawns": report.respawns,
        "breaker_events": list(report.breaker_events),
        "report": report.as_dict(),
    }


# ------------------------------------------------------ append bombs


class _patched_append:
    """Temporarily replace ``TraceArchiveWriter.append`` with a bomb.

    The patch is installed in the *parent* before the pool forks, so
    every worker inherits it; the context restores the real method and
    tears the shared pool down on exit so no later fork carries the
    bomb.
    """

    def __init__(self, bomb):
        self._bomb = bomb

    def __enter__(self):
        self._real = TraceArchiveWriter.append
        TraceArchiveWriter.append = self._bomb(self._real)
        shutdown_pool()  # next get_pool() forks workers with the bomb
        return self

    def __exit__(self, *exc_info):
        TraceArchiveWriter.append = self._real
        shutdown_pool()
        return False


def _kill_after(flag: Path, appends: int, sig: int):
    """Bomb factory: signal own process on the Nth armed append.

    The flag file is the once-only latch — it is unlinked before the
    signal fires, so exactly one worker (the first to reach the Nth
    append while the flag exists) stops or dies, fleet-wide.
    """

    def bomb(real_append):
        state = {"left": appends - 1}

        def append(self, *args, **kwargs):
            if flag.exists():
                if state["left"] == 0:
                    flag.unlink()
                    os.kill(os.getpid(), sig)
                state["left"] -= 1
            return real_append(self, *args, **kwargs)

        return append

    return bomb


# --------------------------------------------------------- scenarios


def _scenario_worker_sigkill(root: Path, seed: int) -> Dict:
    serial_jobs, _ = _serial_baseline(root / "serial", seed)
    flag = root / "kill-flag"
    flag.touch()
    with _patched_append(_kill_after(flag, 6, signal.SIGKILL)):
        chaos_jobs = build_fleet_jobs(
            root / "chaos", boards=[_CHAOS_BOARD], seed=seed
        )
        report = FleetScheduler(
            chaos_jobs, max_concurrent=2, use_pool=True, workers=1
        ).run()
    return _finish(
        "worker-sigkill",
        serial_jobs,
        chaos_jobs,
        report,
        extra_invariants={"worker_killed": not flag.exists()},
    )


def _scenario_worker_sigstop(root: Path, seed: int) -> Dict:
    serial_jobs, _ = _serial_baseline(root / "serial", seed)
    flag = root / "stop-flag"
    flag.touch()
    with _patched_append(_kill_after(flag, 4, signal.SIGSTOP)):
        chaos_jobs = build_fleet_jobs(
            root / "chaos",
            boards=[_CHAOS_BOARD],
            seed=seed,
            deadline=_SIGSTOP_DEADLINE_S,
        )
        report = FleetScheduler(
            chaos_jobs, max_concurrent=2, use_pool=True, workers=1
        ).run()
    return _finish(
        "worker-sigstop",
        serial_jobs,
        chaos_jobs,
        report,
        extra_invariants={
            "worker_stopped": not flag.exists(),
            # The hung worker is gone only if the watchdog reaped it.
            "hung_worker_reaped": report.respawns >= 1,
        },
    )


class _BoardOutage:
    """Deterministic outage window: the first N dispatches to a board
    raise :class:`BoardOutageError`, then the board heals."""

    def __init__(self, board: str, failures: int):
        self.board = board
        self.remaining = failures

    def __call__(self, job: FleetJob) -> None:
        if job.board == self.board and self.remaining > 0:
            self.remaining -= 1
            raise BoardOutageError(
                f"injected outage window on {self.board} "
                f"({self.remaining} dispatch failures left)"
            )


def _scenario_board_outage(root: Path, seed: int) -> Dict:
    serial_jobs, _ = _serial_baseline(root / "serial", seed)
    chaos_jobs = build_fleet_jobs(
        root / "chaos", boards=[_CHAOS_BOARD], seed=seed
    )
    policy = BreakerPolicy(
        failure_threshold=3, cooldown=4.0, max_cooldown=32.0
    )
    # threshold + 1 failures: trips the breaker, then fails the first
    # half-open probe too, exercising the re-open backoff leg.
    outage = _BoardOutage(_CHAOS_BOARD, policy.failure_threshold + 1)
    report = FleetScheduler(
        chaos_jobs,
        max_concurrent=2,
        use_pool=False,
        breaker_policy=policy,
        breaker_seed=seed,
        chaos=outage,
    ).run()
    states = [event["to"] for event in report.breaker_events]
    return _finish(
        "board-outage",
        serial_jobs,
        chaos_jobs,
        report,
        extra_invariants={
            "outage_exhausted": outage.remaining == 0,
            "breaker_opened": "open" in states,
            "breaker_recovered": bool(states) and states[-1] == "closed",
            "all_jobs_completed": report.ok,
        },
    )


def _scenario_archive_corrupt(root: Path, seed: int) -> Dict:
    serial_jobs, _ = _serial_baseline(root / "serial", seed)
    chaos_jobs = build_fleet_jobs(
        root / "chaos", boards=[_CHAOS_BOARD], seed=seed
    )
    # Seed one job's archive with a *corrupt* copy of the sealed
    # baseline: a garbled manifest line in the middle is damage no
    # torn tail explains, so resume must quarantine, not abort.
    victim = next(job for job in chaos_jobs if job.kind == "rsa")
    template = next(job for job in serial_jobs if job.kind == "rsa")
    shutil.copytree(template.out, victim.out)
    manifest = Path(victim.out) / MANIFEST_NAME
    lines = manifest.read_text(encoding="utf-8").splitlines()
    lines[1] = '{"chunk": garbled'
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    report = FleetScheduler(
        chaos_jobs, max_concurrent=2, use_pool=False
    ).run()
    quarantined = list_quarantined(Path(victim.out).parent)
    return _finish(
        "archive-corrupt",
        serial_jobs,
        chaos_jobs,
        report,
        extra_invariants={
            "job_quarantined": report.statuses.get(STATUS_QUARANTINED, 0)
            == 1,
            "quarantine_recorded": len(quarantined) == 1
            and quarantined[0][1].reason == "archive-corrupt"
            and quarantined[0][1].job_id == victim.job_id,
        },
    )


def _scenario_fault_storm(root: Path, seed: int) -> Dict:
    # Both sides of the parity run under the same storm: sensor
    # faults are part of the recording, so the baseline must carry
    # the identical (counter-hashed, hence deterministic) fault plan.
    previous = os.environ.get(FAULT_RATE_ENV)
    os.environ[FAULT_RATE_ENV] = str(_STORM_RATE)
    shutdown_pool()  # workers must fork with the storm armed
    try:
        serial_jobs, _ = _serial_baseline(root / "serial", seed)
        chaos_jobs = build_fleet_jobs(
            root / "chaos", boards=[_CHAOS_BOARD], seed=seed
        )
        report = FleetScheduler(
            chaos_jobs, max_concurrent=2, use_pool=True, workers=2
        ).run()
    finally:
        if previous is None:
            os.environ.pop(FAULT_RATE_ENV, None)
        else:
            os.environ[FAULT_RATE_ENV] = previous
        shutdown_pool()
    return _finish(
        "fault-storm",
        serial_jobs,
        chaos_jobs,
        report,
        baseline=f"serial-at-fault-rate-{_STORM_RATE:g}",
    )


_SCENARIO_RUNNERS = {
    "worker-sigkill": _scenario_worker_sigkill,
    "worker-sigstop": _scenario_worker_sigstop,
    "board-outage": _scenario_board_outage,
    "archive-corrupt": _scenario_archive_corrupt,
    "fault-storm": _scenario_fault_storm,
}

#: Scenarios that need a forked worker pool to mean anything.
_POOL_SCENARIOS = ("worker-sigkill", "worker-sigstop", "fault-storm")


def run_chaos_bench(
    seed: int = 0,
    scenarios: Optional[Sequence[str]] = None,
    out_dir=None,
    bound_s: Optional[float] = None,
) -> Dict:
    """Run the chaos scenarios and fold them into one report dict.

    Args:
        seed: drives every injector and every recording byte.
        scenarios: subset to run (``None`` = all of :data:`SCENARIOS`).
        out_dir: keep archives here (``None`` = temporary directory).
        bound_s: per-scenario no-hang wall-clock bound.

    Returns:
        The report dict; ``ok`` is True only if every scenario's
        every boolean invariant held.
    """
    if scenarios is None:
        scenarios = SCENARIOS
    unknown = sorted(set(scenarios) - set(SCENARIOS))
    if unknown:
        raise ValueError(
            f"unknown chaos scenarios {unknown}; expected from {SCENARIOS}"
        )
    bound = float(bound_s) if bound_s is not None else _DEFAULT_BOUND_S
    pool_available = _fork_context() is not None
    cleanup = None
    if out_dir is None:
        cleanup = tempfile.TemporaryDirectory(prefix="amperebleed-chaos-")
        out_dir = cleanup.name
    timer = StageTimer()
    results = []
    try:
        for name in scenarios:
            if name in _POOL_SCENARIOS and not pool_available:
                results.append(
                    {
                        "name": name,
                        "ok": True,
                        "skipped": "fork start method unavailable",
                    }
                )
                continue
            scenario_root = Path(out_dir) / name
            scenario_root.mkdir(parents=True, exist_ok=True)
            with timer.stage(name):
                result = _SCENARIO_RUNNERS[name](scenario_root, seed)
            elapsed = timer.elapsed(name)
            result["elapsed_s"] = elapsed
            result["bound_s"] = bound
            result["invariants"]["no_hang"] = elapsed <= bound
            result["ok"] = result["ok"] and elapsed <= bound
            results.append(result)
    finally:
        if cleanup is not None:
            cleanup.cleanup()
    return {
        "benchmark": "fleet-chaos",
        "seed": int(seed),
        "cpu_count": available_cpus(),
        "scenarios": results,
        "ok": all(result["ok"] for result in results),
        "stage_seconds": timer.as_dict(),
    }
