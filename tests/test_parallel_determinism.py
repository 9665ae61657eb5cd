"""Determinism guarantees of the parallel & batched evaluation engine.

The engine's contract: parallelism and batching are pure execution
optimizations.  A forest fit at any worker count, a batched
multi-channel acquisition, and a parallel CV grid must produce
bit-identical outputs to their serial / per-channel counterparts.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from reference_kernels import legacy_read_series_faulted
from test_checkpoint_resume import tree_hash

from repro.core.countermeasures import SensorHardening
from repro.core.fingerprint import (
    TABLE3_CHANNELS,
    DnnFingerprinter,
    FingerprintConfig,
)
from repro.core.sampler import HwmonSampler
from repro.faults import FaultPlan
from repro.fleet import FleetScheduler, build_fleet_jobs
from repro.ml.forest import RandomForestClassifier
from repro.ml.validation import cross_validate
from repro.perf.pool import shutdown_pool
from repro.sensors.hwmon import HwmonLookupError, HwmonTransientError
from repro.session import AttackSession
from repro.soc.soc import QUANTITY_ATTRS, Soc

REPO = Path(__file__).resolve().parents[1]

#: Three two-worker CV fan-outs and one serial run, in a fresh
#: interpreter whose stderr the test inspects.  The last line of stdout
#: is the JSON ``{"parallel": [...], "serial": ...}`` of fold scores.
_FAN_OUT_SCRIPT = """
import json
import numpy as np
from repro.ml.forest import RandomForestClassifier
from repro.ml.validation import cross_validate

rng = np.random.default_rng(0)
X = rng.normal(size=(60, 20))
y = np.repeat(["a", "b", "c"], 20)
X[y == "b", 0] += 2.0


def factory():
    return RandomForestClassifier(n_estimators=6, max_depth=6, seed=1)


def scores(workers):
    result = cross_validate(
        X, y, n_folds=3, classifier_factory=factory, seed=2, workers=workers
    )
    return [list(result.top1_per_fold), list(result.top5_per_fold)]


parallel = [scores(2) for _ in range(3)]
print(json.dumps({"parallel": parallel, "serial": scores(1)}))
"""


def _blobs(n_per_class=30, n_classes=4, d=10, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n_per_class * n_classes, d))
    y = np.repeat([f"c{i}" for i in range(n_classes)], n_per_class)
    for i in range(n_classes):
        X[y == f"c{i}", i % d] += 2.5
    return X, y


class TestForestDeterminism:
    def test_env_var_worker_count_is_identical(self, monkeypatch):
        X, y = _blobs(seed=1)
        serial = RandomForestClassifier(n_estimators=8, seed=3).fit(X, y)
        monkeypatch.setenv("AMPEREBLEED_WORKERS", "2")
        enveloped = RandomForestClassifier(n_estimators=8, seed=3).fit(X, y)
        assert np.array_equal(
            serial.predict_proba(X), enveloped.predict_proba(X)
        )

    def test_refit_draws_fresh_trees(self):
        X, y = _blobs(seed=2)
        forest = RandomForestClassifier(n_estimators=5, seed=0)
        first = forest.fit(X, y).predict_proba(X)
        second = forest.fit(X, y).predict_proba(X)
        # The forest RNG advances between fits (fresh bootstraps).
        assert not np.array_equal(first, second)


class TestCrossValidationDeterminism:
    def test_parallel_folds_match_serial(self):
        X, y = _blobs(n_per_class=20, n_classes=5, seed=3)

        def factory():
            return RandomForestClassifier(n_estimators=10, seed=11)

        serial = cross_validate(
            X, y, n_folds=4, classifier_factory=factory, seed=0, workers=1
        )
        parallel = cross_validate(
            X, y, n_folds=4, classifier_factory=factory, seed=0, workers=3
        )
        assert serial.top1_per_fold == parallel.top1_per_fold
        assert serial.top5_per_fold == parallel.top5_per_fold

    def test_default_factory_is_parallel_safe(self):
        X, y = _blobs(n_per_class=12, n_classes=3, seed=4)
        serial = cross_validate(X, y, n_folds=3, seed=5, workers=1)
        parallel = cross_validate(X, y, n_folds=3, seed=5, workers=2)
        assert serial.top1_per_fold == parallel.top1_per_fold
        assert serial.top5_per_fold == parallel.top5_per_fold

    def test_repeated_fan_out_is_silent_on_stderr(self):
        # Fold inputs ride the task pickle; nothing registers process-
        # wide resources a worker or the parent must later release.
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        env.pop("AMPEREBLEED_WORKERS", None)
        run = subprocess.run(
            [sys.executable, "-c", _FAN_OUT_SCRIPT],
            cwd=REPO,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert run.returncode == 0, run.stderr
        assert "resource_tracker" not in run.stderr, run.stderr
        assert "KeyError" not in run.stderr, run.stderr
        outcome = json.loads(run.stdout.strip().splitlines()[-1])
        assert outcome["parallel"] == [outcome["serial"]] * 3


#: Fault plans and hardening policies every acquisition case runs under.
_PLANS = (None, FaultPlan.at_rate(0.2, seed=3))
_HARDENINGS = (
    None,
    SensorHardening(noise_sigma=4.0, min_interval=0.01, seed=5),
)
_CONFIGS = [(plan, hardening) for plan in _PLANS for hardening in _HARDENINGS]
#: Fig 2's three files of one sensor, converted in one pass.
FIG2_CHANNELS = (("fpga", "current"), ("fpga", "voltage"), ("fpga", "power"))


def _soc(seed, plan, hardening):
    soc = Soc("ZCU102", seed=seed, hardening=hardening)
    soc.arm_faults(plan)
    return soc


def _expected_error(device, attribute, transient, gone):
    """What a raising read does with one request's oracle masks."""
    if gone.any():
        cause = (
            "sensor hotplug window" if device.faults_active
            else "driver unbound"
        )
        return HwmonLookupError(
            f"{device.path}/{attribute}: no such device ({cause})"
        )
    if transient.any():
        return HwmonTransientError(
            f"{device.path}/{attribute}: resource temporarily "
            f"unavailable (EAGAIN)"
        )
    return None


def _oracle_channel(soc, channel, times):
    """``(values, transient, gone, error)`` of one channel via the oracle."""
    domain, quantity = channel
    device = soc.device(domain)
    attribute = QUANTITY_ATTRS[quantity]
    times = np.asarray(times, dtype=np.float64)
    if soc.hardening is not None:
        times = soc.hardening.effective_times(times)
    values, transient, gone = legacy_read_series_faulted(
        device, attribute, times
    )
    if soc.hardening is not None:
        values = soc.hardening.transform(values, times, f"{domain}-{quantity}")
    error = _expected_error(device, attribute, transient, gone)
    return values, transient, gone, error


def _assert_raises_like(expected, call):
    with pytest.raises(type(expected)) as caught:
        call()
    assert type(caught.value) is type(expected)
    assert str(caught.value) == str(expected)


def _oracle_sample_many(soc, channels, times):
    """Per-channel oracle values, or the first failure a batch raises.

    Channels are read device by device, in order of each device's
    first appearance, and a device's requests in channel order.
    """
    def times_for(channel):
        return times[channel] if isinstance(times, dict) else times

    expected = {
        channel: _oracle_channel(soc, channel, times_for(channel))
        for channel in channels
    }
    devices = []
    for domain, _ in channels:
        if soc.device(domain) not in devices:
            devices.append(soc.device(domain))
    for device in devices:
        for channel in channels:
            if soc.device(channel[0]) is device and expected[channel][3]:
                return expected, expected[channel][3]
    return expected, None


class TestBatchedAcquisition:
    """Every read path is pinned to the frozen one-request read."""

    @pytest.mark.parametrize("plan", _PLANS, ids=["clean", "faulted"])
    def test_read_series_faulted_matches_oracle(self, plan):
        device = _soc(0, plan, None).device("fpga")
        times = np.linspace(1.0, 3.0, 57)
        for attribute in (
            "curr1_input", "in0_input", "in1_input", "power1_input",
            "update_interval",
        ):
            got = device.read_series_faulted(attribute, times)
            want = legacy_read_series_faulted(device, attribute, times)
            for got_part, want_part in zip(got, want):
                assert np.array_equal(got_part, want_part)

    @pytest.mark.parametrize("plan", _PLANS, ids=["clean", "faulted"])
    def test_read_series_batch_mixed_matches_per_request(self, plan):
        device = _soc(0, plan, None).device("fpga")
        requests = [
            ("curr1_input", np.linspace(1.0, 3.0, 57)),
            ("update_interval", np.linspace(0.5, 1.0, 5)),
            ("in1_input", np.linspace(1.2, 2.5, 31)),
            ("power1_input", np.linspace(2.0, 4.0, 44)),
        ]
        first_error = None
        for attribute, times in requests:
            values, transient, gone = legacy_read_series_faulted(
                device, attribute, times
            )
            error = _expected_error(device, attribute, transient, gone)
            if error is not None:
                _assert_raises_like(
                    error, lambda: device.read_series(attribute, times)
                )
                first_error = first_error or error
            else:
                assert np.array_equal(
                    device.read_series(attribute, times), values
                )
        if first_error is not None:
            _assert_raises_like(
                first_error, lambda: device.read_series_batch(requests)
            )
            return
        batched = device.read_series_batch(requests)
        for (attribute, times), values in zip(requests, batched):
            want = legacy_read_series_faulted(device, attribute, times)[0]
            assert np.array_equal(values, want)

    def test_sample_many_matches_sample(self):
        times = np.linspace(1.0, 3.0, 57)
        for plan, hardening in _CONFIGS:
            soc = _soc(0, plan, hardening)
            self._check_soc_reads(soc, TABLE3_CHANNELS, times)

    def test_sample_many_per_channel_times(self):
        times = {
            channel: np.linspace(0.5 + 0.01 * i, 2.0, 40 + i)
            for i, channel in enumerate(TABLE3_CHANNELS)
        }
        for plan, hardening in _CONFIGS:
            soc = _soc(1, plan, hardening)
            self._check_soc_reads(soc, TABLE3_CHANNELS, times)

    @staticmethod
    def _check_soc_reads(soc, channels, times):
        expected, batch_error = _oracle_sample_many(soc, channels, times)
        for channel in channels:
            channel_times = (
                times[channel] if isinstance(times, dict) else times
            )
            values, transient, gone, error = expected[channel]
            faulted = soc.sample_faulted(*channel, channel_times)
            assert np.array_equal(faulted[0], values)
            assert np.array_equal(faulted[1], transient)
            assert np.array_equal(faulted[2], gone)
            if error is not None:
                _assert_raises_like(
                    error, lambda: soc.sample(*channel, channel_times)
                )
            else:
                assert np.array_equal(
                    soc.sample(*channel, channel_times), values
                )
        if batch_error is not None:
            _assert_raises_like(
                batch_error, lambda: soc.sample_many(channels, times)
            )
            return
        batched = soc.sample_many(channels, times)
        for channel in channels:
            assert np.array_equal(batched[channel], expected[channel][0])

    def test_collect_many_matches_collect(self):
        for plan, hardening in _CONFIGS:
            self._check_collects(plan, hardening)

    @staticmethod
    def _check_collects(plan, hardening):
        def sampler():
            return HwmonSampler(_soc(2, plan, hardening), seed=2)

        batched = sampler().collect_many(
            TABLE3_CHANNELS, start=1.5, duration=1.0, label="victim"
        )
        for domain, quantity in TABLE3_CHANNELS:
            solo = sampler().collect(
                domain, quantity, start=1.5, duration=1.0, label="victim"
            )
            trace = batched[(domain, quantity)]
            assert np.array_equal(trace.times, solo.times)
            assert np.array_equal(trace.values, solo.values)
            assert trace.quality == solo.quality
            assert trace.label == "victim"
            if plan is None:
                assert trace.quality is None
                want = _oracle_channel(
                    sampler().soc, (domain, quantity), trace.times
                )[0]
                assert np.array_equal(trace.values, want)
            else:
                assert trace.quality is not None

    def test_sorted_latches_skip_the_sort(self, hwmon_unique_calls):
        """Fig 2's three FPGA files on one clean clock: no ``np.unique``."""
        soc = _soc(0, None, None)
        self._check_soc_reads(soc, FIG2_CHANNELS, np.linspace(1.0, 3.0, 2000))
        assert hwmon_unique_calls.calls == 0

    def test_backward_latches_fall_back_to_the_sort(self, hwmon_unique_calls):
        """An interval flip near 92 s steps the faulted latches back."""
        soc = _soc(0, FaultPlan.at_rate(0.05), None)
        times = {
            channel: np.linspace(90.0, 94.0, 4000 + i)
            for i, channel in enumerate(FIG2_CHANNELS)
        }
        self._check_soc_reads(soc, FIG2_CHANNELS, times)
        assert hwmon_unique_calls.calls > 0

    def test_sample_many_rejects_duplicates(self):
        soc = Soc("ZCU102", seed=0)
        with pytest.raises(ValueError):
            soc.sample_many(
                [("fpga", "current"), ("fpga", "current")], np.arange(3.0)
            )

    def test_sample_many_empty(self):
        assert Soc("ZCU102", seed=0).sample_many([], np.arange(3.0)) == {}


class TestPipelineDeterminism:
    @pytest.fixture(scope="class")
    def config(self):
        return FingerprintConfig(
            duration=2.0, traces_per_model=6, n_folds=3, forest_trees=8
        )

    def test_grid_parallel_matches_serial(self, config):
        models = ["resnet-50", "vgg-19", "inception-v1"]
        serial_fp = DnnFingerprinter(config=config)
        parallel_fp = DnnFingerprinter(config=config)
        channels = [("fpga", "current"), ("fpga", "power")]
        serial_sets = serial_fp.collect_datasets(
            models=models, channels=channels
        )
        parallel_sets = parallel_fp.collect_datasets(
            models=models, channels=channels
        )
        durations = (1.0, 2.0)
        serial = serial_fp.evaluate_table3(
            serial_sets, durations=durations, workers=1
        )
        parallel = parallel_fp.evaluate_table3(
            parallel_sets, durations=durations, workers=2
        )
        assert set(serial) == set(parallel)
        for cell in serial:
            assert serial[cell].top1_per_fold == parallel[cell].top1_per_fold
            assert serial[cell].top5_per_fold == parallel[cell].top5_per_fold

    def test_grid_matches_evaluate_channel(self, config):
        fp = DnnFingerprinter(AttackSession.create(seed=1), config=config)
        datasets = fp.collect_datasets(
            models=["resnet-50", "vgg-19", "squeezenet-1.0"],
            channels=[("fpga", "current")],
        )
        grid = fp.evaluate_table3(datasets, durations=(2.0,), workers=2)
        single = fp.evaluate_channel(
            datasets[("fpga", "current")], duration=2.0, workers=1
        )
        cell = grid[("fpga", "current", 2.0)]
        assert cell.top1_per_fold == single.top1_per_fold
        assert cell.top5_per_fold == single.top5_per_fold


class TestFleetUnderFaults:
    def test_fault_storm_fleet_seals_like_serial(self, tmp_path, monkeypatch):
        # Sensor faults are part of the recording: a batch on the
        # two-worker pool at a high fault rate must end every job as
        # the serial run at the same rate does, with the same bytes on
        # disk — a job the storm kills included.
        def seal(root, **kwargs):
            jobs = build_fleet_jobs(root, boards=["ZCU102"], seed=0)
            report = FleetScheduler(jobs, max_concurrent=2, **kwargs).run()
            return [
                (outcome.status, outcome.error, tree_hash(outcome.job.out))
                for outcome in report.outcomes
            ]

        clean = seal(tmp_path / "clean", use_pool=False)
        # Every session a job builds arms a 25 % fault rate.
        arm_faults = AttackSession.arm_faults
        monkeypatch.setattr(
            AttackSession,
            "arm_faults",
            lambda session, faults=None: arm_faults(
                session, 0.25 if faults is None else faults
            ),
        )
        shutdown_pool()  # the workers must fork with the faults armed
        try:
            serial = seal(tmp_path / "serial", use_pool=False)
            pooled = seal(tmp_path / "pooled", use_pool=True, workers=2)
        finally:
            shutdown_pool()
        assert pooled == serial
        assert [status for status, _, _ in clean] == ["done"] * 3
        assert all(a[2] != b[2] for a, b in zip(serial, clean))


class TestWindowReservation:
    def test_concurrent_reservations_disjoint(self):
        config = FingerprintConfig(
            duration=1.0, traces_per_model=2, n_folds=2, forest_trees=2
        )
        fp = DnnFingerprinter(config=config)
        starts = [fp._next_window() for _ in range(200)]
        # Windows come back in order, each disjoint from the next.
        spacing = np.diff(np.asarray(starts))
        assert np.all(spacing >= config.duration)

    def test_feature_cache_hits(self):
        config = FingerprintConfig(
            duration=2.0, traces_per_model=4, n_folds=2, forest_trees=2
        )
        fp = DnnFingerprinter(config=config)
        datasets = fp.collect_datasets(
            models=["resnet-50", "vgg-19"], channels=[("fpga", "current")]
        )
        dataset = datasets[("fpga", "current")]
        X1, y1 = fp._features(dataset, 1.0)
        X2, y2 = fp._features(dataset, 1.0)
        assert X1 is X2 and y1 is y2
        X3, _ = fp._features(dataset, 2.0)
        assert X3 is not X1
