"""Resilience layer: deadlines, breakers, backpressure, quarantine.

The chaos contract (PR 9) in unit-sized pieces: a hung or SIGSTOPped
worker is reaped within its task deadline and the task completes via
resubmission; an untimed ``PoolFuture.result()`` can never be stranded
by a dead collector; per-board circuit breakers walk the deterministic
closed→open→half-open machine and surface their transition log in the
fleet report; the admission high-water mark sheds load as explicit
``deferred`` outcomes; corrupt archives move to quarantine with a
machine-readable reason instead of killing the campaign.
"""

import json
import os
import signal
import threading
import time

import pytest

from repro.core.io import MANIFEST_NAME
from repro.faults.policy import RetryPolicy
from repro.fleet import (
    STATUS_DEFERRED,
    STATUS_DONE,
    STATUS_FAILED,
    FleetJob,
    FleetScheduler,
    run_job,
)
from repro.perf.config import (
    breaker_cooldown_from_env,
    breaker_threshold_from_env,
    queue_hwm_from_env,
)
from repro.perf.pool import (
    PoolConfig,
    TaskDeadlineError,
    WorkerCrashError,
    WorkerPool,
    shutdown_pool,
)
from repro.resilience import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    BoardOutageError,
    BreakerPolicy,
    CircuitBreaker,
    QuarantineRecord,
    list_quarantined,
    quarantine_archive,
)

SEED = 5

RSA_PARAMS = dict(weights=(1, 16), quantity="current", n_samples=400)


@pytest.fixture(autouse=True)
def _reset_shared_pool():
    yield
    shutdown_pool()


# ----------------------------------------------------------- task fns
# Module-level on purpose: pool tasks are pickled by reference.


def _square(x):
    return x * x


def _sleep_forever(_):
    time.sleep(3600)


def _stop_if_flag(flag):
    if os.path.exists(flag):
        os.unlink(flag)
        os.kill(os.getpid(), signal.SIGSTOP)
    return "survived"


class _Unpicklable(RuntimeError):
    """Round-trip bomb: pickles fine, explodes at load time."""

    def __init__(self, a, b):
        super().__init__(f"{a}/{b}")


def _raise_unpicklable(_):
    raise _Unpicklable("left", "right")


# ---------------------------------------------------------- PoolConfig


class TestPoolConfig:
    def test_rejects_nonpositive_budgets(self):
        with pytest.raises(ValueError, match="sweep_interval_s"):
            PoolConfig(sweep_interval_s=0.0)
        with pytest.raises(ValueError, match="reap_join_s"):
            PoolConfig(reap_join_s=-1.0)
        with pytest.raises(ValueError, match="default_deadline_s"):
            PoolConfig(default_deadline_s=0.0)

    def test_pool_routes_config(self):
        config = PoolConfig(sweep_interval_s=0.05, shutdown_join_s=1.0)
        pool = WorkerPool(workers=1, config=config)
        try:
            assert pool.config is config
            assert pool.map(_square, [1, 2, 3]) == [1, 4, 9]
        finally:
            pool.shutdown()

    def test_submit_rejects_nonpositive_deadline(self):
        pool = WorkerPool(workers=1)
        try:
            with pytest.raises(ValueError, match="deadline_s"):
                pool.submit(_square, 2, deadline_s=0.0)
        finally:
            pool.shutdown()


# ------------------------------------------------- deadlines & reaping


class TestDeadlines:
    def test_hung_task_fails_with_deadline_error(self):
        pool = WorkerPool(
            workers=1,
            retry_policy=RetryPolicy(max_retries=1),
            config=PoolConfig(sweep_interval_s=0.05),
        )
        try:
            future = pool.submit(_sleep_forever, None, deadline_s=0.3)
            with pytest.raises(TaskDeadlineError, match="deadline"):
                future.result()
            assert pool.respawns >= 1
        finally:
            pool.shutdown()

    def test_sigstopped_worker_is_reaped_and_task_completes(self, tmp_path):
        # The acceptance scenario: the worker wedges (SIGSTOP — alive,
        # so liveness scans never fire), the watchdog SIGKILLs it at
        # the deadline, and the resubmitted attempt succeeds.
        flag = tmp_path / "stop-once"
        flag.write_text("armed")
        pool = WorkerPool(
            workers=1, config=PoolConfig(sweep_interval_s=0.05)
        )
        try:
            future = pool.submit(
                _stop_if_flag, str(flag), deadline_s=1.0
            )
            assert future.result(timeout=30.0) == "survived"
            assert pool.respawns >= 1
            assert not flag.exists()
        finally:
            pool.shutdown()

    def test_untimed_result_survives_dead_collector(self):
        # satellite: a worker dying after dequeue must not strand an
        # untimed result() — the caller polls and runs the watch tick
        # itself, which flushes pending futures when the collector is
        # gone.
        pool = WorkerPool(
            workers=1, config=PoolConfig(sweep_interval_s=0.05)
        )
        try:
            future = pool.submit(_sleep_forever, None)
            stand_in = threading.Thread(target=lambda: None)
            stand_in.start()
            stand_in.join()
            pool._collector = stand_in  # simulate collector death
            with pytest.raises(WorkerCrashError, match="collector"):
                future.result()
        finally:
            pool.shutdown()

    def test_undecodable_result_fails_one_task_not_the_pool(self):
        # An exception that cannot survive the pickle round trip must
        # surface on its own future; the collector (and the pool)
        # stay serviceable.
        pool = WorkerPool(
            workers=1, config=PoolConfig(sweep_interval_s=0.05)
        )
        try:
            with pytest.raises(RuntimeError, match="undecodable"):
                pool.submit(_raise_unpicklable, None).result(timeout=30.0)
            assert pool.map(_square, [4]) == [16]
        finally:
            pool.shutdown()


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

    def test_from_env_overrides(self, monkeypatch):
        monkeypatch.setenv("AMPEREBLEED_BREAKER_THRESHOLD", "7")
        monkeypatch.setenv("AMPEREBLEED_BREAKER_COOLDOWN", "16")
        policy = BreakerPolicy.from_env()
        assert policy.failure_threshold == 7
        assert policy.cooldown == 16.0
        assert policy.max_cooldown >= 16.0 * 16.0


class TestEnvKnobs:
    def test_queue_hwm(self, monkeypatch):
        monkeypatch.delenv("AMPEREBLEED_QUEUE_HWM", raising=False)
        assert queue_hwm_from_env() is None
        monkeypatch.setenv("AMPEREBLEED_QUEUE_HWM", "0")
        assert queue_hwm_from_env() is None
        monkeypatch.setenv("AMPEREBLEED_QUEUE_HWM", "12")
        assert queue_hwm_from_env() == 12
        monkeypatch.setenv("AMPEREBLEED_QUEUE_HWM", "-3")
        with pytest.raises(ValueError):
            queue_hwm_from_env()

    def test_breaker_knobs(self, monkeypatch):
        monkeypatch.delenv("AMPEREBLEED_BREAKER_THRESHOLD", raising=False)
        monkeypatch.delenv("AMPEREBLEED_BREAKER_COOLDOWN", raising=False)
        assert breaker_threshold_from_env() is None
        assert breaker_cooldown_from_env() is None
        monkeypatch.setenv("AMPEREBLEED_BREAKER_THRESHOLD", "0")
        with pytest.raises(ValueError):
            breaker_threshold_from_env()
        monkeypatch.setenv("AMPEREBLEED_BREAKER_COOLDOWN", "-1")
        with pytest.raises(ValueError):
            breaker_cooldown_from_env()


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
        record = QuarantineRecord.from_dict(
            json.loads((dest / "QUARANTINE.json").read_text())
        )
        assert record.reason == "archive-corrupt"
        assert record.job_id == "rsa/ZCU102/5"
        assert record.archive == str(archive)

        archive.mkdir()  # re-record at the original path, corrupt again
        (archive / MANIFEST_NAME).write_text("{garbled again")
        again = quarantine_archive(archive, reason="archive-corrupt")
        assert again.name == "rsa-001"
        listed = list_quarantined(tmp_path)
        assert [path.name for path, _ in listed] == ["rsa-000", "rsa-001"]

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
        quarantined = list_quarantined(tmp_path)
        assert len(quarantined) == 1
        _, record = quarantined[0]
        assert record.reason == "archive-corrupt"
        assert record.job_id == job.job_id
        # The re-recorded archive seals clean: a third run skips it.
        assert run_job(job).skipped


# ----------------------------------------------------------- scheduler


class _OutageWindow:
    """Chaos hook: the board is down for the first ``n`` dispatches."""

    def __init__(self, n):
        self.remaining = n

    def __call__(self, job):
        if self.remaining > 0:
            self.remaining -= 1
            raise BoardOutageError(f"{job.board} unreachable (injected)")


class TestSchedulerResilience:
    def test_backpressure_defers_lowest_priority(self, tmp_path):
        jobs = [
            FleetJob.make(
                "rsa",
                "ZCU102",
                seed=SEED + index,
                out=tmp_path / f"rsa{index}",
                priority=priority,
                **RSA_PARAMS,
            )
            for index, priority in enumerate((0, 5, 1))
        ]
        report = FleetScheduler(
            jobs, use_pool=False, queue_hwm=2
        ).run()
        statuses = [outcome.status for outcome in report.outcomes]
        assert statuses == [STATUS_DEFERRED, STATUS_DONE, STATUS_DONE]
        shed = report.outcomes[0]
        assert "high-water mark" in shed.error
        assert report.statuses == {STATUS_DEFERRED: 1, STATUS_DONE: 2}
        assert report.as_dict()["statuses"][STATUS_DEFERRED] == 1

    def test_retry_exhaustion_reports_reason_and_attempt_trace(
        self, tmp_path, monkeypatch
    ):
        job = FleetJob.make(
            "rsa", "ZCU102", seed=SEED, out=tmp_path / "rsa", **RSA_PARAMS
        )
        scheduler = FleetScheduler([job], use_pool=False, retries=2)

        def crash(_job):
            raise WorkerCrashError("worker died mid-shard (injected)")

        monkeypatch.setattr(scheduler, "_execute", crash)
        report = scheduler.run()
        outcome = report.outcomes[0]
        assert outcome.status == STATUS_FAILED
        assert outcome.attempts == 3  # 1 + retries
        assert len(outcome.attempt_errors) == 3
        assert all(
            "WorkerCrashError" in error
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
        self, tmp_path
    ):
        # Acceptance: N consecutive injected outages open the board's
        # breaker; after the cooldown a half-open probe succeeds and
        # the job completes — the full transition log lands in the
        # report.
        policy = BreakerPolicy(
            failure_threshold=2, cooldown=3.0, jitter=0.0
        )
        job = FleetJob.make(
            "rsa", "ZCU102", seed=SEED, out=tmp_path / "rsa", **RSA_PARAMS
        )
        report = FleetScheduler(
            [job],
            use_pool=False,
            breaker_policy=policy,
            chaos=_OutageWindow(policy.failure_threshold),
        ).run()
        outcome = report.outcomes[0]
        assert outcome.status == STATUS_DONE
        assert len(outcome.attempt_errors) == policy.failure_threshold
        events = [
            (event["from"], event["to"])
            for event in report.breaker_events
            if event["board"] == "ZCU102"
        ]
        assert (CLOSED, OPEN) in events
        assert (OPEN, HALF_OPEN) in events
        assert (HALF_OPEN, CLOSED) in events
        assert report.as_dict()["breaker_events"] == list(
            report.breaker_events
        )

    def test_unrelenting_outage_ends_deferred_not_hung(self, tmp_path):
        policy = BreakerPolicy(
            failure_threshold=1, cooldown=2.0, jitter=0.0
        )
        job = FleetJob.make(
            "rsa", "ZCU102", seed=SEED, out=tmp_path / "rsa", **RSA_PARAMS
        )
        report = FleetScheduler(
            [job],
            use_pool=False,
            breaker_policy=policy,
            max_defers=6,
            chaos=_OutageWindow(10_000),
        ).run()
        outcome = report.outcomes[0]
        assert outcome.status in (STATUS_DEFERRED, STATUS_FAILED)
        assert outcome.error is not None
        assert outcome.attempt_errors  # the outage left its trace
