"""Fleet scheduler: sharded campaigns, worker death, byte-exact resume.

The fleet's contract mirrors the checkpoint/resume one, lifted a level:
a batch of recording jobs sharded over the shared process pool must
seal exactly the archives a one-at-a-time inline run seals — including
when a pool worker is SIGKILLed mid-shard: the death breaks the pool,
the job-level retry runs on a rebuilt pool, and the job finishes
through the resume path.
"""

import os
import signal
import time

import pytest

from test_checkpoint_resume import CHANNELS, CONFIG, MODELS, tree_hash

from repro.core.io import TraceArchiveWriter
from repro.fleet import (
    JOB_KINDS,
    FleetJob,
    FleetScheduler,
    build_fleet_jobs,
    run_job,
)
from repro.perf.pool import shutdown_pool
from repro.resilience import CircuitBreaker

pytestmark = pytest.mark.fleet

SEED = 5

RSA_PARAMS = dict(weights=(1, 16), quantity="current", n_samples=1500)
CAMPAIGN_PARAMS = dict(
    victim_start=2.0, trace_duration=3.0, timeout=20.0, chunk_duration=1.0
)
FINGERPRINT_PARAMS = dict(
    models=tuple(MODELS),
    channels=tuple(tuple(channel) for channel in CHANNELS),
    **CONFIG,
)


@pytest.fixture(autouse=True)
def _reset_shared_pool():
    yield
    shutdown_pool()


def _batch(root):
    """One job of every kind, matching the checkpoint-test scales."""
    return [
        FleetJob.make(
            "fingerprint",
            "ZCU102",
            seed=SEED,
            out=root / "fingerprint",
            **FINGERPRINT_PARAMS,
        ),
        FleetJob.make(
            "rsa", "ZCU102", seed=SEED, out=root / "rsa", **RSA_PARAMS
        ),
        FleetJob.make(
            "campaign",
            "ZCU102",
            seed=SEED,
            out=root / "campaign",
            **CAMPAIGN_PARAMS,
        ),
    ]


class TestFleetJobs:
    def test_make_validates_kind_and_board(self, tmp_path):
        with pytest.raises(ValueError, match="unknown job kind"):
            FleetJob.make("espionage", "ZCU102", seed=0, out=tmp_path)
        with pytest.raises(KeyError):
            FleetJob.make("rsa", "not-a-board", seed=0, out=tmp_path)

    def test_default_job_id_and_params_round_trip(self, tmp_path):
        job = FleetJob.make(
            "rsa", "ZCU102", seed=3, out=tmp_path, weights=(1, 2)
        )
        assert job.job_id == "rsa/ZCU102/3"
        assert job.param_dict() == {"weights": (1, 2)}

    def test_run_job_rejects_unknown_kind(self, tmp_path):
        bogus = FleetJob(
            job_id="x", kind="espionage", board="ZCU102", seed=0,
            out=str(tmp_path / "x"),
        )
        with pytest.raises(ValueError, match="unknown job kind"):
            run_job(bogus)

    def test_build_fleet_jobs_covers_kinds_and_boards(self, tmp_path):
        jobs = build_fleet_jobs(
            tmp_path, boards=["ZCU102", "ZCU111"], seed=0
        )
        assert len(jobs) == 2 * len(JOB_KINDS)
        assert {job.board for job in jobs} == {"ZCU102", "ZCU111"}
        assert len({job.out for job in jobs}) == len(jobs)


class TestScheduler:
    def test_duplicate_ids_and_archives_rejected(self, tmp_path):
        job = FleetJob.make("rsa", "ZCU102", seed=0, out=tmp_path / "a")
        with pytest.raises(ValueError, match="duplicate job id"):
            FleetScheduler([job, job])
        clone = FleetJob.make(
            "rsa", "ZCU102", seed=1, out=tmp_path / "a", job_id="other"
        )
        with pytest.raises(ValueError, match="share the archive"):
            FleetScheduler([job, clone])

    def test_outcomes_keep_submission_order(self, tmp_path):
        jobs = _batch(tmp_path)
        report = FleetScheduler(
            jobs, max_concurrent=2, use_pool=False
        ).run()
        assert report.ok
        assert [o.job.job_id for o in report.outcomes] == [
            j.job_id for j in jobs
        ]
        assert report.traces > 0 and report.samples > 0
        assert (
            report.latency_percentile(50)
            <= report.latency_percentile(95)
            <= report.latency_percentile(100)
        )

    def test_inline_runs_one_job_at_a_time_in_order(
        self, tmp_path, monkeypatch
    ):
        # The serial baseline: with use_pool=False the loop runs each
        # job to its end and records its breaker verdict before it
        # dispatches the next, whatever max_concurrent says.
        jobs = [
            FleetJob.make(
                "rsa", "ZCU102", seed=SEED + index,
                out=tmp_path / f"rsa{index}",
                weights=(1, 16), quantity="current", n_samples=400,
            )
            for index in range(3)
        ]
        scheduler = FleetScheduler(jobs, max_concurrent=2, use_pool=False)
        events = []
        submit = scheduler._submit

        def timed_submit(job):
            start = time.perf_counter()
            future = submit(job)
            future.result()
            events.append(("run", job.job_id, start, time.perf_counter()))
            return future

        record_success = CircuitBreaker.record_success

        def logged_success(breaker, now):
            events.append(("verdict", breaker.name))
            return record_success(breaker, now)

        monkeypatch.setattr(scheduler, "_submit", timed_submit)
        monkeypatch.setattr(CircuitBreaker, "record_success", logged_success)
        report = scheduler.run()
        assert report.ok
        assert [event[0] for event in events] == ["run", "verdict"] * 3
        runs = [event for event in events if event[0] == "run"]
        assert [run[1] for run in runs] == [job.job_id for job in jobs]
        for before, after in zip(runs, runs[1:]):
            assert before[3] <= after[2]

    def test_sealed_jobs_are_skipped_on_rerun(self, tmp_path):
        jobs = [
            FleetJob.make(
                "rsa", "ZCU102", seed=SEED, out=tmp_path / "rsa",
                **RSA_PARAMS,
            )
        ]
        first = FleetScheduler(jobs, use_pool=False).run()
        again = FleetScheduler(jobs, use_pool=False).run()
        assert first.ok and again.ok
        assert not first.outcomes[0].result.skipped
        assert again.outcomes[0].result.skipped
        assert again.traces == first.traces

    def test_deterministic_failure_is_reported_not_retried(self, tmp_path):
        bad = FleetJob.make(
            "campaign",
            "ZCU102",
            seed=SEED,
            out=tmp_path / "bad",
            timeout=-1.0,
        )
        report = FleetScheduler([bad], use_pool=False, retries=3).run()
        assert not report.ok
        outcome = report.outcomes[0]
        assert outcome.attempts == 1
        assert "timeout" in outcome.error
        assert report.as_dict()["failures"] == [
            {"job_id": bad.job_id, "error": outcome.error}
        ]


class TestFleetKillAndResume:
    def test_sigkilled_worker_mid_shard_seals_byte_identical(
        self, tmp_path, monkeypatch
    ):
        serial_jobs = _batch(tmp_path / "serial")
        reference = FleetScheduler(
            serial_jobs, max_concurrent=1, use_pool=False
        ).run()
        assert reference.ok

        # Arm a kill-once bomb: the 6th archive append performed while
        # the flag file exists SIGKILLs its own (worker) process —
        # mid-shard, after real chunks and checkpoints hit the disk.
        flag = tmp_path / "kill-flag"
        flag.touch()
        real_append = TraceArchiveWriter.append
        state = {"left": 5}

        def kill_once_append(self, *args, **kwargs):
            if flag.exists():
                if state["left"] == 0:
                    flag.unlink()
                    os.kill(os.getpid(), signal.SIGKILL)
                state["left"] -= 1
            return real_append(self, *args, **kwargs)

        monkeypatch.setattr(TraceArchiveWriter, "append", kill_once_append)
        # Fork the pool *after* arming so workers inherit the bomb.
        shutdown_pool()

        fleet_jobs = _batch(tmp_path / "fleet")
        report = FleetScheduler(
            fleet_jobs, max_concurrent=2, use_pool=True, workers=1
        ).run()

        assert report.ok
        # One break, one rebuild, however many jobs the break failed.
        assert report.respawns == 1
        assert not flag.exists()
        assert any(o.attempts == 2 for o in report.outcomes)
        resumed = [
            o.result.resumed for o in report.outcomes if o.result
        ]
        assert any(resumed)
        for serial_job, fleet_job in zip(serial_jobs, fleet_jobs):
            assert tree_hash(serial_job.out) == tree_hash(fleet_job.out), (
                f"{fleet_job.job_id} drifted after kill/resume"
            )
        assert report.traces == reference.traces
        assert report.samples == reference.samples
