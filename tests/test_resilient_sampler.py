"""The resilient acquisition path: retries, health, degraded mode.

Covers the sampler-facing half of the fault plane:

* the determinism guard — a no-op ``FaultPlan()`` must leave every trace
  bit-identical to the unarmed fast path, pinned against a checked-in
  fixture recorded before the fault plane existed;
* the retry/backoff loop (deterministic recovery, gap interpolation,
  plausibility gating of torn reads);
* the per-sensor health machine and degraded-mode fallbacks
  (``collect_many(on_dead="drop")``, fused evaluation with dead
  channels, mid-stream partial flush);
* the one read a faulted chunk makes for itself and all its re-polls,
  pinned against the per-attempt loop it replaced
  (``legacy_sample_resilient``) and by a read count.
"""

from pathlib import Path

import numpy as np
import pytest
from reference_kernels import legacy_sample_resilient

from repro.core import (
    ChannelDeadError,
    ChannelOutageError,
    StreamInterrupted,
    TraceQuality,
)
from repro.core.countermeasures import SensorHardening
from repro.core.io import TraceArchiveReader
from repro.core.sampler import PREFETCH_POLLS, HwmonSampler
from repro.dpu.models import build_model
from repro.dpu.runner import DpuRunner
from repro.faults import DEAD, FLAKY, HEALTHY, FaultPlan, RetryPolicy
from repro.ml.forest import RandomForestClassifier
from repro.sensors.hwmon import HwmonDevice
from repro.session import AttackSession

pytestmark = pytest.mark.faults

FIXTURE = Path(__file__).parent / "data" / "collect_seed3"

#: The recipe the fixture was recorded with (pre-fault-plane code).
FIXTURE_RECIPE = (
    ("fpga", "current", 1.0, 160, "pin-fpga-current"),
    ("ddr", "power", 1.0, 120, "pin-ddr-power"),
    ("fpd", "voltage", 2.5, 96, "pin-fpd-voltage"),
)


def pin_dead(session, domain):
    """Unbind a domain's driver and poll it until its health pins dead."""
    session.soc.device(domain).inject_failure("unbind", at_time=0.0)
    sampler = session.sampler
    for _ in range(sampler.retry_policy.dead_after_outages):
        with pytest.raises(ChannelOutageError):
            sampler.collect(domain, "current", start=1.0, n_samples=20)
    assert sampler.channel_health(domain) == DEAD


def _collect_fixture_traces(session):
    return [
        session.sampler.collect(
            domain, quantity, start=start, n_samples=n, label=label
        )
        for domain, quantity, start, n, label in FIXTURE_RECIPE
    ]


class TestNoopDeterminismGuard:
    """A no-op FaultPlan() must be invisible, bit for bit."""

    @pytest.mark.parametrize("faults", [None, "noop-plan"])
    def test_matches_checked_in_fixture(self, faults):
        if faults == "noop-plan":
            faults = FaultPlan()
        session = AttackSession.create(seed=3, faults=faults)
        traces = _collect_fixture_traces(session)
        pinned = TraceArchiveReader(FIXTURE).load_traceset()
        assert len(pinned) == len(traces)
        for fresh, expected in zip(traces, pinned):
            assert fresh.label == expected.label
            np.testing.assert_array_equal(fresh.times, expected.times)
            np.testing.assert_array_equal(fresh.values, expected.values)

    def test_noop_plan_keeps_fast_path(self):
        session = AttackSession.create(seed=3, faults=FaultPlan())
        assert not session.sampler._faults_active("fpga")
        trace = session.sampler.collect(
            "fpga", "current", start=1.0, n_samples=64
        )
        assert trace.quality is None

    def test_zero_rate_resolves_to_unarmed(self):
        session = AttackSession.create(seed=3, faults=0.0)
        assert not any(
            device.faults_active for device in session.soc.hwmon.devices()
        )


class TestResilientCollect:
    def _session(self, rate=0.2, seed=3, retry_policy=None):
        return AttackSession.create(
            seed=seed, faults=rate, retry_policy=retry_policy
        )

    def test_faulted_collect_is_deterministic(self):
        kwargs = dict(start=1.0, n_samples=400)
        a = self._session().sampler.collect("fpga", "current", **kwargs)
        b = self._session().sampler.collect("fpga", "current", **kwargs)
        np.testing.assert_array_equal(a.values, b.values)
        assert a.quality == b.quality

    def test_quality_metadata_records_recovery(self):
        trace = self._session().sampler.collect(
            "fpga", "current", start=1.0, n_samples=400
        )
        quality = trace.quality
        assert isinstance(quality, TraceQuality)
        assert quality.retries > 0
        assert quality.health in (HEALTHY, FLAKY)
        assert quality.interpolated <= quality.gaps

    def test_recovered_values_pass_plausibility(self):
        policy = RetryPolicy()
        session = self._session(rate=0.5)
        trace = session.sampler.collect(
            "fpga", "current", start=1.0, n_samples=600
        )
        assert int(np.abs(trace.values).max()) <= policy.plausible_limit

    def test_sample_and_hold_fallback(self):
        policy = RetryPolicy(max_retries=0, interpolate_gaps=False)
        session = self._session(rate=0.4, retry_policy=policy)
        trace = session.sampler.collect(
            "fpga", "current", start=1.0, n_samples=400
        )
        assert trace.quality.gaps > 0
        assert trace.quality.interpolated == 0
        assert int(np.abs(trace.values).max()) <= policy.plausible_limit

    def test_seed_changes_fault_outcome(self):
        kwargs = dict(start=1.0, n_samples=400)
        a = self._session(seed=3).sampler.collect("fpga", "current", **kwargs)
        b = self._session(seed=4).sampler.collect("fpga", "current", **kwargs)
        assert a.quality != b.quality or not np.array_equal(
            a.values, b.values
        )


class TestHealthMachine:
    def test_dead_channel_raises_immediately(self):
        session = AttackSession.create(seed=3, faults=0.2)
        pin_dead(session, "fpga")
        assert session.sampler.channel_health("fpga") == DEAD
        with pytest.raises(ChannelDeadError, match="pinned dead"):
            session.sampler.collect("fpga", "current", start=1.0, n_samples=50)

    def test_faults_mark_channel_flaky(self):
        session = AttackSession.create(seed=3, faults=0.5)
        session.sampler.collect("fpga", "current", start=1.0, n_samples=400)
        assert session.sampler.channel_health("fpga") == FLAKY


class TestDegradedMode:
    CHANNELS = [("fpga", "current"), ("ddr", "current"), ("fpd", "current")]

    def test_collect_many_drops_dead_channel(self):
        session = AttackSession.create(seed=3, faults=0.1)
        pin_dead(session, "ddr")
        traces = session.sampler.collect_many(
            self.CHANNELS, start=1.0, n_samples=80, on_dead="drop"
        )
        assert ("ddr", "current") not in traces
        assert set(traces) == {("fpga", "current"), ("fpd", "current")}

    def test_collect_many_raise_propagates(self):
        session = AttackSession.create(seed=3, faults=0.1)
        pin_dead(session, "ddr")
        with pytest.raises(ChannelDeadError):
            session.sampler.collect_many(
                self.CHANNELS, start=1.0, n_samples=80, on_dead="raise"
            )

    def test_all_channels_dead_is_an_outage(self):
        session = AttackSession.create(seed=3, faults=0.1)
        for domain, _ in self.CHANNELS:
            pin_dead(session, domain)
        with pytest.raises(ChannelOutageError, match="every requested"):
            session.sampler.collect_many(
                self.CHANNELS, start=1.0, n_samples=80, on_dead="drop"
            )

    def test_on_dead_validated(self):
        session = AttackSession.create(seed=3, faults=0.1)
        with pytest.raises(ValueError, match="on_dead"):
            session.sampler.collect_many(
                self.CHANNELS, start=1.0, n_samples=80, on_dead="ignore"
            )

    def test_fused_degraded_reports_dropped_channels(self):
        from repro.core.fingerprint import DnnFingerprinter, FingerprintConfig

        session = AttackSession.create(seed=3, faults=0.05)
        pin_dead(session, "ddr")
        config = FingerprintConfig(
            duration=1.0, traces_per_model=4, n_folds=2, forest_trees=5
        )
        fingerprinter = DnnFingerprinter(session=session, config=config)
        channels = self.CHANNELS
        datasets = fingerprinter.collect_datasets(
            models=["resnet-50", "vgg-16"],
            channels=channels,
            on_dead="drop",
        )
        report = fingerprinter.evaluate_fused_degraded(
            datasets, channels=channels
        )
        assert ("ddr", "current") in report["dropped_channels"]
        assert set(report["used_channels"]) == {
            ("fpga", "current"), ("fpd", "current"),
        }
        assert 0.0 <= report["result"].top1 <= 1.0


class TestStreamResilience:
    def test_midstream_unbind_flushes_partial_chunk(self):
        session = AttackSession.create(seed=3, faults=0.05)
        device = session.soc.device("fpga")
        # The driver unbinds for good partway through the second chunk.
        device.inject_failure("unbind", at_time=1.15)
        stream = session.sampler.stream(
            "fpga", "current", start=1.0, duration=0.4, chunk_duration=0.1
        )
        chunks = []
        with pytest.raises(StreamInterrupted) as info:
            for chunk in stream:
                chunks.append(chunk)
        assert chunks, "the chunks before the unbind must flush"
        emitted = sum(chunk.values.size for chunk in chunks)
        assert info.value.emitted == emitted
        assert 0 < emitted < stream.n_samples
        # The chunk straddling the unbind interpolates its lost tail
        # (the sampler cannot know the outage is permanent); the first
        # fully-dead chunk terminates the stream with a typed error.
        straddling = chunks[-1].quality
        assert straddling is not None
        assert straddling.gaps > 0
        assert straddling.interpolated == straddling.gaps

    def test_stream_recovers_through_transient_faults(self):
        session = AttackSession.create(seed=3, faults=0.2)
        stream = session.sampler.stream(
            "fpga", "current", start=1.0, duration=0.4, chunk_duration=0.1
        )
        chunks = list(stream)
        assert sum(c.values.size for c in chunks) == stream.n_samples
        assert any(
            c.quality is not None and c.quality.retries > 0 for c in chunks
        )


class TestTraceQualityType:
    def test_validation(self):
        with pytest.raises(ValueError):
            TraceQuality(retries=-1)
        with pytest.raises(ValueError):
            TraceQuality(gaps=1, interpolated=2)
        with pytest.raises(ValueError):
            TraceQuality(health="zombie")

    def test_merge_and_roundtrip(self):
        a = TraceQuality(retries=2, gaps=1, interpolated=1, health=HEALTHY)
        b = TraceQuality(retries=3, gaps=2, interpolated=0, health=FLAKY)
        merged = a.merged(b)
        assert merged.retries == 5
        assert merged.gaps == 3
        assert merged.health == FLAKY
        assert TraceQuality.from_dict(merged.to_dict()) == merged
        assert TraceQuality().clean
        assert not merged.clean


class _ReadCounter:
    """Counts ``HwmonDevice.read_series_faulted`` calls while installed."""

    def __init__(self, monkeypatch):
        self.calls = 0
        read = HwmonDevice.read_series_faulted

        def counted(device, attribute, times):
            self.calls += 1
            return read(device, attribute, times)

        monkeypatch.setattr(HwmonDevice, "read_series_faulted", counted)


def _outcome(sampler, read, times, domain="fpga", quantity="current"):
    """A read's values (dtype and bytes), quality or error, then the health."""
    try:
        values, quality = read(domain, quantity, times)
        result = (values.dtype.str, values.tobytes(), quality, None)
    except ChannelOutageError as exc:
        result = (None, None, None, (type(exc), str(exc), exc.retries))
    health = sampler._health_for(domain)
    return result + (health.state, health._consecutive_outages)


def _assert_reads_match(make_session, reads, prepare=None):
    """Each read gives the oracle's outcome, on twin sessions, in order."""
    new, old = make_session(), make_session()
    if prepare is not None:
        prepare(new)
        prepare(old)
    for times in reads:
        got = _outcome(new.sampler, new.sampler._sample_resilient, times)
        want = _outcome(
            old.sampler,
            lambda *args: legacy_sample_resilient(old.sampler, *args),
            times,
        )
        assert got == want


def _chunks(n_chunks, n_polls, poll_hz, start=1.0):
    """Consecutive jittered chunks of one channel's poll clock."""
    sampler = AttackSession.create(seed=11).sampler
    return [
        sampler.poll_times(
            start + k * n_polls / poll_hz, n_polls, poll_hz, stream=f"c{k}"
        )
        for k in range(n_chunks)
    ]


class TestOneReadPerChunk:
    """One device read serves a chunk and its re-polls, bit for bit."""

    @pytest.mark.parametrize("rate", [0.05, 0.25, 0.6])
    @pytest.mark.parametrize("max_retries", [0, 1, 3, 5])
    @pytest.mark.parametrize("multiplier", [1.0, 2.0])
    @pytest.mark.parametrize("interpolate", [True, False])
    def test_matches_per_attempt_loop(
        self, rate, max_retries, multiplier, interpolate
    ):
        policy = RetryPolicy(
            max_retries=max_retries,
            backoff_multiplier=multiplier,
            interpolate_gaps=interpolate,
        )
        _assert_reads_match(
            lambda: AttackSession.create(
                seed=3, faults=rate, retry_policy=policy
            ),
            _chunks(16, 14, 1 / 0.035),
        )

    @pytest.mark.parametrize("rate", [0.05, 0.25])
    def test_hardening_matches(self, rate):
        hardening = SensorHardening(
            noise_sigma=3.0, min_interval=0.004, quantize_lsb=4.0, seed=5
        )
        _assert_reads_match(
            lambda: AttackSession.create(
                seed=3, faults=rate, hardening=hardening
            ),
            _chunks(16, 40, 1000.0),
        )

    @pytest.mark.parametrize("mode", ["stale", "unbind"])
    def test_injected_failures_match(self, mode):
        def prepare(session):
            session.soc.device("fpga").inject_failure(mode, at_time=1.3)

        _assert_reads_match(
            lambda: AttackSession.create(seed=3, faults=0.1),
            _chunks(12, 14, 1 / 0.035, start=1.0) + _chunks(4, 50, 200.0),
            prepare,
        )

    @pytest.mark.parametrize(
        "n_polls, one_read",
        [(PREFETCH_POLLS // 4, True), (PREFETCH_POLLS // 4 + 1, False)],
    )
    def test_both_sides_of_the_budget(self, monkeypatch, n_polls, one_read):
        # The default policy retries 3 times: a chunk and its re-polls
        # make 4 * n_polls polls.
        def make():
            return AttackSession.create(seed=3, faults=0.25)

        counter = _ReadCounter(monkeypatch)
        chunks = _chunks(2, n_polls, 1000.0, start=3.0)
        _assert_reads_match(make, chunks)
        session = make()
        for times in chunks:
            counter.calls = 0
            session.sampler._sample_resilient("fpga", "current", times)
            if one_read:
                assert counter.calls == 1
            else:
                assert counter.calls > 1

    @pytest.mark.parametrize("chunk_samples", [1, 14, 200])
    @pytest.mark.parametrize("rate", [0.05, 0.25])
    def test_stream_and_collect_match(self, monkeypatch, chunk_samples, rate):
        def record(session):
            sampler = session.sampler
            kwargs = dict(start=1.0, n_samples=400, poll_hz=200.0)
            traces, error = [], None
            try:
                for chunk in sampler.stream(
                    "fpga", "current", chunk_samples=chunk_samples, **kwargs
                ):
                    traces.append(chunk)
            except StreamInterrupted as exc:
                error = (str(exc), exc.emitted)
            sampler._health.clear()  # the collect starts healthy
            try:
                traces.append(sampler.collect("fpga", "current", **kwargs))
            except ChannelOutageError as exc:
                error = (error, str(exc), exc.retries)
            return [
                (t.times.tobytes(), t.values.tobytes(), t.quality)
                for t in traces
            ], error, sampler.channel_health("fpga")

        got = record(AttackSession.create(seed=3, faults=rate))
        monkeypatch.setattr(
            HwmonSampler, "_sample_resilient", legacy_sample_resilient
        )
        want = record(AttackSession.create(seed=3, faults=rate))
        assert got == want
        assert len(got[0]) > 1

    def test_monitor_makes_one_read_per_chunk(self, monkeypatch):
        """A 30 s monitor at rate 0.05: one read a chunk, the oracle's retries."""
        n_features = 20
        rng = np.random.default_rng(0)
        forest = RandomForestClassifier(n_estimators=3, seed=0).fit(
            rng.standard_normal((30, n_features)),
            np.array(["a", "b", "c"] * 10),
        )
        counter = _ReadCounter(monkeypatch)

        def monitor(read):
            log = []

            def logged(sampler, domain, quantity, times):
                before = counter.calls
                values, quality = read(sampler, domain, quantity, times)
                log.append((counter.calls - before, times.size, quality.retries))
                return values, quality

            monkeypatch.setattr(HwmonSampler, "_sample_resilient", logged)
            session = AttackSession.create(
                seed=7, faults=FaultPlan.at_rate(0.05, seed=2)
            )
            DpuRunner().deploy(
                session.soc,
                build_model("resnet-50"),
                duration=30.0,
                seed=session.derive("victim"),
                name="victim",
            )
            poll_hz = session.sampler.default_poll_hz("fpga")
            verdicts = [
                verdict
                for update in session.monitor(
                    forest,
                    duration=30.0,
                    window_samples=int(round(2.0 * poll_hz)),
                    hop_samples=int(round(0.5 * poll_hz)),
                    poll_hz=poll_hz,
                    chunk_duration=0.5,
                    n_features=n_features,
                )
                for verdict in update.verdicts
            ]
            return log, verdicts

        log, verdicts = monitor(HwmonSampler._sample_resilient)
        legacy_log, legacy_verdicts = monitor(legacy_sample_resilient)
        assert len(log) == len(legacy_log) >= 60
        assert all(size * 4 <= PREFETCH_POLLS for _, size, _ in log)
        assert [reads for reads, _, _ in log] == [1] * len(log)
        retries = sum(r for _, _, r in log)
        assert retries == sum(r for _, _, r in legacy_log) > 0
        assert verdicts == legacy_verdicts
