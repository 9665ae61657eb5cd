"""Resilience layer: breakers, quarantine, terminal job statuses.

Per-board circuit breakers walk the deterministic
closed→open→half-open machine, driven by real job failures, and
surface their transition log in the fleet report; jobs queued behind a
half-open probe wait for its verdict instead of polling the breaker;
corrupt archives move to quarantine with a machine-readable reason
instead of killing the campaign.
"""

import json
import time
from concurrent.futures import Future, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.core.io import MANIFEST_NAME
from repro.fleet import (
    STATUS_DEFERRED,
    STATUS_DONE,
    STATUS_FAILED,
    FleetJob,
    FleetScheduler,
    run_job,
)
from repro.resilience import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    BreakerPolicy,
    CircuitBreaker,
    quarantine_archive,
)

SEED = 5

RSA_PARAMS = dict(weights=(1, 16), quantity="current", n_samples=400)


# ------------------------------------------------------------ breakers


class TestCircuitBreaker:
    def test_policy_validation(self):
        with pytest.raises(ValueError, match="failure_threshold"):
            BreakerPolicy(failure_threshold=0)
        with pytest.raises(ValueError, match="max_cooldown"):
            BreakerPolicy(cooldown=8.0, max_cooldown=4.0)
        with pytest.raises(ValueError, match="jitter"):
            BreakerPolicy(jitter=1.0)

    def test_state_machine_walks_closed_open_half_open(self):
        policy = BreakerPolicy(
            failure_threshold=2, cooldown=4.0, jitter=0.0
        )
        breaker = CircuitBreaker("ZCU102", policy=policy, seed=0)
        assert breaker.allow(1.0) and breaker.state == CLOSED
        breaker.record_failure(2.0)
        assert breaker.state == CLOSED
        breaker.record_failure(3.0)
        assert breaker.state == OPEN
        assert not breaker.allow(4.0)
        assert breaker.allow(7.0)  # cooldown elapsed -> probe admitted
        assert breaker.state == HALF_OPEN
        assert not breaker.allow(7.5)  # second probe queued out
        breaker.record_success(8.0)
        assert breaker.state == CLOSED
        states = [(t.from_state, t.to_state) for t in breaker.transitions]
        assert states == [
            (CLOSED, OPEN),
            (OPEN, HALF_OPEN),
            (HALF_OPEN, CLOSED),
        ]

    def test_failed_probe_reopens_with_longer_cooldown(self):
        policy = BreakerPolicy(
            failure_threshold=1,
            cooldown=2.0,
            backoff_multiplier=2.0,
            max_cooldown=64.0,
            jitter=0.0,
        )
        breaker = CircuitBreaker("ZCU104", policy=policy, seed=0)
        breaker.record_failure(1.0)  # trip 1: cooldown 2 ticks
        assert not breaker.allow(2.0)
        assert breaker.allow(3.0)
        breaker.record_failure(4.0)  # probe failed, trip 2: 4 ticks
        assert not breaker.allow(7.0)
        assert breaker.allow(8.0)

    def test_jitter_is_deterministic_per_seed_and_name(self):
        def windows(name, seed):
            breaker = CircuitBreaker(name, seed=seed)
            for tick in (1.0, 2.0, 3.0):
                breaker.record_failure(tick)
            return breaker._open_until

        assert windows("ZCU102", 0) == windows("ZCU102", 0)
        assert windows("ZCU102", 0) != windows("ZCU102", 1)
        assert windows("ZCU102", 0) != windows("ZCU111", 0)

# ---------------------------------------------------------- quarantine


class TestQuarantine:
    def test_move_record_and_list(self, tmp_path):
        archive = tmp_path / "rsa"
        archive.mkdir()
        (archive / MANIFEST_NAME).write_text("{garbled")
        dest = quarantine_archive(
            archive,
            reason="archive-corrupt",
            error="corrupted manifest line 1",
            job_id="rsa/ZCU102/5",
        )
        assert not archive.exists()
        assert dest.parent == tmp_path / "quarantine"
        assert dest.name == "rsa-000"
        record = json.loads((dest / "QUARANTINE.json").read_text())
        assert record["reason"] == "archive-corrupt"
        assert record["job_id"] == "rsa/ZCU102/5"
        assert record["archive"] == str(archive)

        archive.mkdir()  # re-record at the original path, corrupt again
        (archive / MANIFEST_NAME).write_text("{garbled again")
        again = quarantine_archive(archive, reason="archive-corrupt")
        assert again.name == "rsa-001"
        listed = sorted((tmp_path / "quarantine").iterdir())
        assert [path.name for path in listed] == ["rsa-000", "rsa-001"]

    def test_missing_archive_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            quarantine_archive(tmp_path / "ghost", reason="x")

    def test_run_job_quarantines_corrupt_archive_and_rerecords(
        self, tmp_path
    ):
        job = FleetJob.make(
            "rsa", "ZCU102", seed=SEED, out=tmp_path / "rsa", **RSA_PARAMS
        )
        first = run_job(job)
        assert not first.skipped and not first.quarantined

        manifest = tmp_path / "rsa" / MANIFEST_NAME
        lines = manifest.read_text().splitlines()
        lines[1] = '{"chunk": garbled'
        manifest.write_text("\n".join(lines) + "\n")

        again = run_job(job)
        assert again.quarantined
        assert not again.skipped  # re-recorded, not resumed
        (entry,) = (tmp_path / "quarantine").iterdir()
        record = json.loads((entry / "QUARANTINE.json").read_text())
        assert record["reason"] == "archive-corrupt"
        assert record["job_id"] == job.job_id
        # The re-recorded archive seals clean: a third run skips it.
        assert run_job(job).skipped


# ----------------------------------------------------------- scheduler


def _rsa_jobs(root, boards):
    """One small RSA job per entry of ``boards``, in order."""
    return [
        FleetJob.make(
            "rsa",
            board,
            seed=SEED + index,
            out=root / f"rsa{index}",
            **RSA_PARAMS,
        )
        for index, board in enumerate(boards)
    ]


def _resolved(fn, job):
    """A future already resolved with ``fn(job)`` or its exception."""
    future = Future()
    try:
        future.set_result(fn(job))
    except Exception as exc:
        future.set_exception(exc)
    return future


def _failing_submit(failing, hold_s=None, executor=None):
    """``_submit`` that fails the jobs in ``failing`` and runs the rest.

    Holds every successful job for ``hold_s[job_id]`` seconds first,
    when given.  Jobs run inline unless ``executor`` is given; on the
    test's own executor several can be in flight at once.
    """

    def run(job):
        if job.job_id in failing:
            raise RuntimeError(f"{job.board} unreachable")
        time.sleep((hold_s or {}).get(job.job_id, 0.0))
        return run_job(job)

    if executor is not None:
        return lambda job: executor.submit(run, job)
    return lambda job: _resolved(run, job)


class TestSchedulerResilience:
    def test_retry_exhaustion_reports_reason_and_attempt_trace(
        self, tmp_path, monkeypatch
    ):
        job = FleetJob.make(
            "rsa", "ZCU102", seed=SEED, out=tmp_path / "rsa", **RSA_PARAMS
        )
        scheduler = FleetScheduler([job], use_pool=False, retries=2)

        def crash(_job):
            raise BrokenProcessPool("worker died mid-shard")

        monkeypatch.setattr(
            scheduler, "_submit", lambda job: _resolved(crash, job)
        )
        report = scheduler.run()
        outcome = report.outcomes[0]
        assert outcome.status == STATUS_FAILED
        assert outcome.attempts == 3  # 1 + retries
        assert len(outcome.attempt_errors) == 3
        assert all(
            "BrokenProcessPool" in error
            for error in outcome.attempt_errors
        )
        payload = report.as_dict()
        assert payload["failures"] == [
            {"job_id": job.job_id, "error": outcome.error}
        ]
        traces = payload["attempt_traces"]
        assert traces == [
            {
                "job_id": job.job_id,
                "attempts": 3,
                "errors": list(outcome.attempt_errors),
            }
        ]

    def test_breaker_opens_and_recovers_with_transition_log(
        self, tmp_path, monkeypatch
    ):
        # Two failing jobs open the board's breaker; the third job is
        # refused until the cooldown elapses, then runs as the
        # half-open probe, succeeds and closes it — the full
        # transition log lands in the report.
        policy = BreakerPolicy(
            failure_threshold=2, cooldown=3.0, jitter=0.0
        )
        jobs = _rsa_jobs(tmp_path, ["ZCU102"] * 3)
        scheduler = FleetScheduler(
            jobs, max_concurrent=1, use_pool=False, breaker_policy=policy
        )
        failing = {job.job_id for job in jobs[:2]}
        monkeypatch.setattr(scheduler, "_submit", _failing_submit(failing))
        report = scheduler.run()
        assert [outcome.status for outcome in report.outcomes] == [
            STATUS_FAILED,
            STATUS_FAILED,
            STATUS_DONE,
        ]
        events = [
            (event["from"], event["to"])
            for event in report.breaker_events
            if event["board"] == "ZCU102"
        ]
        assert events == [
            (CLOSED, OPEN),
            (OPEN, HALF_OPEN),
            (HALF_OPEN, CLOSED),
        ]
        assert report.as_dict()["breaker_events"] == list(
            report.breaker_events
        )

    def test_unrelenting_outage_ends_deferred_not_hung(
        self, tmp_path, monkeypatch
    ):
        # The first failure opens the breaker for longer than the
        # second job's requeue budget, so that job ends deferred.
        policy = BreakerPolicy(
            failure_threshold=1, cooldown=40.0, jitter=0.0
        )
        jobs = _rsa_jobs(tmp_path, ["ZCU102"] * 2)
        scheduler = FleetScheduler(
            jobs, max_concurrent=1, use_pool=False, breaker_policy=policy
        )
        failing = {job.job_id for job in jobs}
        monkeypatch.setattr(scheduler, "_submit", _failing_submit(failing))
        report = scheduler.run()
        first, second = report.outcomes
        assert first.status == STATUS_FAILED
        assert first.attempt_errors == (
            "RuntimeError: ZCU102 unreachable",
        )
        assert second.status == STATUS_DEFERRED
        assert second.attempts == 0
        assert second.error.startswith("deferred: circuit breaker")

    def test_jobs_behind_half_open_probe_wait_instead_of_polling(
        self, tmp_path, monkeypatch
    ):
        # A fails at once and trips ZCU102's breaker while a short job
        # on another board holds the second slot.  D runs as the
        # half-open probe, held for 0.3 s; C, refused while the probe
        # is in flight, must wait for the probe's completion rather
        # than re-ask the breaker in a loop.  The jobs run on the
        # test's own two threads: use_pool=True gives the loop two
        # slots, and the substituted _submit keeps the pool unused.
        policy = BreakerPolicy(
            failure_threshold=1, cooldown=2.0, jitter=0.0
        )
        jobs = _rsa_jobs(tmp_path, ["ZCU102", "ZCU111", "ZCU102", "ZCU102"])
        scheduler = FleetScheduler(
            jobs, max_concurrent=2, use_pool=True, breaker_policy=policy
        )
        executor = ThreadPoolExecutor(2)
        monkeypatch.setattr(
            scheduler,
            "_submit",
            _failing_submit(
                {jobs[0].job_id},
                hold_s={jobs[1].job_id: 0.05, jobs[3].job_id: 0.3},
                executor=executor,
            ),
        )
        allow = CircuitBreaker.allow
        calls = []

        def counted_allow(breaker, now):
            calls.append(now)
            return allow(breaker, now)

        monkeypatch.setattr(CircuitBreaker, "allow", counted_allow)
        with executor:
            report = scheduler.run()
        assert [outcome.status for outcome in report.outcomes] == [
            STATUS_FAILED,
            STATUS_DONE,
            STATUS_DONE,
            STATUS_DONE,
        ]
        assert (HALF_OPEN, CLOSED) in [
            (event["from"], event["to"]) for event in report.breaker_events
        ]
        assert len(calls) <= 10, len(calls)
