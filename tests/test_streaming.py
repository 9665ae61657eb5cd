"""Unit tests for the incremental streaming pipeline.

Covers the pieces in isolation — window geometry, the incremental
feature extractor, confidence smoothing, the analyzer's event stream
and the fault-tolerant monitor loop.  The end-to-end batch-vs-stream
bit-parity contract lives in ``test_streaming_parity.py``.
"""

import numpy as np
import pytest
from reference_kernels import batch_window_features

from repro.core.streaming import (
    ConfidenceSmoother,
    IncrementalFeatureExtractor,
    Interruption,
    ModelSwitch,
    MonitorUpdate,
    StreamingAnalyzer,
    WindowSpec,
    monitor_chunks,
)
from repro.core.detector import OnsetDetector
from repro.core.features import resample_batch
from repro.core.sampler import StreamInterrupted
from repro.core.traces import Trace, TraceQuality
from repro.utils.rng import ensure_rng

pytestmark = pytest.mark.stream


def _trace(values, start=0.0, poll_hz=100.0, quality=None, label=None):
    values = np.asarray(values)
    times = start + np.arange(values.size) / poll_hz
    return Trace(
        times=times,
        values=values,
        domain="fpga",
        quantity="current",
        label=label,
        quality=quality,
    )


class StubClassifier:
    """Deterministic two-class stub: mean(window) >= 0 -> 'hi'."""

    def __init__(self):
        self.classes_ = np.array(["hi", "lo"])

    def predict_proba(self, X):
        hot = (X.mean(axis=1) >= 0).astype(np.float64)
        return np.column_stack([0.1 + 0.8 * hot, 0.9 - 0.8 * hot])


# ------------------------------------------------------------- WindowSpec


def test_window_spec_validation():
    with pytest.raises(ValueError):
        WindowSpec(0, 1)
    with pytest.raises(ValueError):
        WindowSpec(10, 0)
    with pytest.raises(ValueError):
        WindowSpec(10, 11)  # a gap would drop samples


def test_window_spec_counts():
    spec = WindowSpec(100, 25)
    assert spec.n_windows(99) == 0
    assert spec.n_windows(100) == 1
    assert spec.n_windows(124) == 1
    assert spec.n_windows(125) == 2
    assert spec.n_windows(1000) == 37


# ------------------------------------------------------------- extractor


@pytest.mark.parametrize("chunk_size", [1, 7, 50, 128, 333, 1000])
def test_extractor_matches_batch_for_any_chunking(chunk_size):
    rng = ensure_rng(7)
    values = rng.standard_normal(1000)
    spec = WindowSpec(200, 50)
    reference = batch_window_features(values, spec, 64)
    extractor = IncrementalFeatureExtractor(spec, 64)
    rows = []
    for start in range(0, values.size, chunk_size):
        batch = extractor.push(values[start:start + chunk_size])
        if len(batch):
            rows.append(batch.features)
    streamed = np.vstack(rows)
    assert streamed.shape == reference.shape
    assert np.max(np.abs(streamed - reference)) == 0.0


def test_extractor_memory_bounded_by_window_plus_chunk():
    rng = ensure_rng(3)
    spec = WindowSpec(128, 32)
    extractor = IncrementalFeatureExtractor(spec, 16)
    chunk = 48
    for _ in range(200):
        extractor.push(rng.standard_normal(chunk))
    assert extractor.peak_resident_samples <= spec.window_samples + chunk
    assert extractor.samples_seen == 200 * chunk


def test_extractor_window_metadata():
    spec = WindowSpec(10, 5)
    extractor = IncrementalFeatureExtractor(spec, 4)
    batch = extractor.push_chunk(_trace(np.arange(25), poll_hz=10.0))
    assert len(batch) == 4
    first, second = batch.windows[0], batch.windows[1]
    assert first.index == 0 and first.start_index == 0
    assert second.index == 1 and second.start_index == 5
    assert first.start_time == 0.0
    assert first.end_time == pytest.approx(0.9)
    assert second.start_time == pytest.approx(0.5)


def test_extractor_quality_spans_merge_per_window():
    spec = WindowSpec(10, 10)
    extractor = IncrementalFeatureExtractor(spec, 4)
    degraded = TraceQuality(retries=2, gaps=1)
    # Window 0: clean + degraded chunks -> merged quality.
    batch = extractor.push_chunk(_trace(np.zeros(6)))
    assert len(batch) == 0
    batch = extractor.push_chunk(
        _trace(np.zeros(6), start=0.06, quality=degraded)
    )
    assert len(batch) == 1
    quality = batch.windows[0].quality
    assert quality is not None
    assert quality.retries == 2 and quality.gaps == 1
    # Window 1 (samples 10-19) still overlaps the degraded chunk
    # (samples 6-11), so the provenance sticks to it too.
    batch = extractor.push_chunk(_trace(np.zeros(8), start=0.12))
    assert len(batch) == 1
    assert batch.windows[0].quality is not None
    # Window 2 (samples 20-29) is built from clean chunks only.
    batch = extractor.push_chunk(_trace(np.zeros(10), start=0.20))
    assert len(batch) == 1
    assert batch.windows[0].quality is None


def test_extractor_rejects_bad_input():
    extractor = IncrementalFeatureExtractor(WindowSpec(4, 4), 4)
    with pytest.raises(ValueError):
        extractor.push(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        extractor.push(np.zeros(5), times=np.zeros(4))
    assert len(extractor.push(np.empty(0))) == 0


def test_resample_batch_is_the_to_matrix_kernel():
    from repro.core.traces import TraceSet

    rng = ensure_rng(5)
    traces = [
        _trace(rng.standard_normal(40 + 3 * i), label=f"m{i % 2}")
        for i in range(6)
    ]
    X, y = TraceSet(traces).to_matrix(16)
    direct = resample_batch([t.values for t in traces], 16)
    assert np.max(np.abs(X - direct)) == 0.0
    assert list(y) == [t.label for t in traces]


# --------------------------------------------------------------- smoother


def test_smoother_validation_and_identity():
    with pytest.raises(ValueError):
        ConfidenceSmoother(0.0)
    with pytest.raises(ValueError):
        ConfidenceSmoother(1.5)
    smoother = ConfidenceSmoother(1.0)
    first = np.array([0.25, 0.75])
    out = smoother.update(first)
    assert np.array_equal(out, first)
    out is not first  # a defensive copy, not the caller's array


def test_smoother_ema_and_reset():
    smoother = ConfidenceSmoother(0.5)
    smoother.update(np.array([1.0, 0.0]))
    blended = smoother.update(np.array([0.0, 1.0]))
    assert np.allclose(blended, [0.5, 0.5])
    blended = smoother.update(np.array([0.0, 1.0]))
    assert np.allclose(blended, [0.25, 0.75])
    # A new stream starts from a fresh smoother, which adopts its
    # first input verbatim.
    fresh = ConfidenceSmoother(0.5).update(np.array([0.0, 1.0]))
    assert np.array_equal(fresh, [0.0, 1.0])


# ----------------------------------------------------- streaming analyzer


def test_analyzer_emits_verdicts_and_switches():
    analyzer = StreamingAnalyzer(
        StubClassifier(), WindowSpec(10, 10), n_features=8, top_k=2
    )
    hot = _trace(np.full(10, 5.0))
    cold = _trace(np.full(10, -5.0), start=0.1)
    update = analyzer.push_chunk(hot)
    assert len(update.verdicts) == 1
    first = update.verdicts[0]
    assert first.label == "hi" and first.raw_label == "hi"
    assert first.labels == ("hi", "lo")
    assert not first.switched  # no previous decision
    # The first decision still announces itself as a switch from idle.
    assert any(
        isinstance(e, ModelSwitch) and e.previous is None
        for e in update.events
    )
    update = analyzer.push_chunk(cold)
    second = update.verdicts[0]
    assert second.label == "lo" and second.switched
    switch = [e for e in update.events if isinstance(e, ModelSwitch)][0]
    assert switch.previous == "hi" and switch.label == "lo"


def test_analyzer_verdict_lag_is_simulated_time():
    analyzer = StreamingAnalyzer(
        StubClassifier(), WindowSpec(10, 10), n_features=8
    )
    # One 30-sample chunk completes 3 windows; the verdict for the
    # first window is 20 samples (0.2 s at 100 Hz) stale at emission.
    update = analyzer.push_chunk(_trace(np.ones(30)))
    lags = [v.lag_seconds for v in update.verdicts]
    assert lags[0] == pytest.approx(0.20)
    assert lags[-1] == pytest.approx(0.0)


def test_analyzer_smoothing_can_override_a_flip():
    # Heavy smoothing: one cold window after many hot ones must not
    # flip the smoothed decision, but the raw label still reports it.
    analyzer = StreamingAnalyzer(
        StubClassifier(),
        WindowSpec(10, 10),
        n_features=8,
        smoothing=0.2,
    )
    for _ in range(5):
        update = analyzer.push_chunk(_trace(np.full(10, 5.0)))
    update = analyzer.push_chunk(_trace(np.full(10, -5.0)))
    verdict = update.verdicts[0]
    assert verdict.raw_label == "lo"
    assert verdict.label == "hi"
    assert not verdict.switched


def test_analyzer_threads_detector_events():
    rng = ensure_rng(9)
    idle = rng.standard_normal(30)
    active = idle.copy()
    analyzer = StreamingAnalyzer(
        StubClassifier(),
        WindowSpec(10, 10),
        n_features=8,
        detector=OnsetDetector(baseline_window=8, min_gap=2),
        baseline=(0.0, 1.0),
    )
    burst = np.concatenate([idle, np.full(20, 50.0), idle])
    events = []
    for start in range(0, burst.size, 16):
        chunk = _trace(burst[start:start + 16], start=start / 100.0)
        events.extend(analyzer.push_chunk(chunk).events)
    events.extend(analyzer.finish().events)
    kinds = [e.kind for e in events if hasattr(e, "kind")]
    assert "onset" in kinds and "episode" in kinds


# ------------------------------------------------------- monitor_chunks


def test_monitor_chunks_flushes_and_survives_interruption():
    analyzer = StreamingAnalyzer(
        StubClassifier(), WindowSpec(10, 10), n_features=8
    )

    def chunks():
        yield _trace(np.full(10, 5.0))
        raise StreamInterrupted("fpga", "current", 10, "device died")

    updates = list(monitor_chunks(analyzer, chunks()))
    assert len(updates) == 2  # one chunk + the final flush
    assert len(updates[0].verdicts) == 1
    interruptions = [
        e for e in updates[-1].events if isinstance(e, Interruption)
    ]
    assert len(interruptions) == 1
    assert interruptions[0].samples_seen == 10
    assert "device died" in interruptions[0].message


def test_monitor_update_episode_filter():
    update = MonitorUpdate(verdicts=(), events=())
    assert update.episodes == ()


# ------------------------------------------------------- stream resume


def test_stream_skip_samples_is_bit_identical():
    from repro.session import AttackSession

    session = AttackSession.create(seed=5)
    full = list(
        session.sampler.stream(
            "fpga", "current", duration=0.4, poll_hz=1000,
            chunk_samples=64,
        )
    )
    skipped_stream = session.sampler.stream(
        "fpga", "current", duration=0.4, poll_hz=1000, chunk_samples=64
    )
    skip = sum(chunk.n_samples for chunk in full[:3])
    skipped_stream.skip_samples(skip)
    rest = list(skipped_stream)
    assert np.array_equal(
        np.concatenate([c.times for c in full[3:]]),
        np.concatenate([c.times for c in rest]),
    )
    assert np.array_equal(
        np.concatenate([c.values for c in full[3:]]),
        np.concatenate([c.values for c in rest]),
    )


def test_stream_skip_samples_validates_budget():
    from repro.session import AttackSession

    session = AttackSession.create(seed=5)
    stream = session.sampler.stream(
        "fpga", "current", duration=0.1, poll_hz=100
    )
    with pytest.raises(ValueError):
        stream.skip_samples(stream.n_samples + 1)


def test_partial_flush_quality_keeps_retry_provenance():
    # A faulted stream whose chunk dies mid-read must hand the retry
    # count of the failing read to the flushed partial chunk.
    from repro.session import AttackSession

    session = AttackSession.create(seed=31, faults=0.9)
    stream = session.sampler.stream(
        "fpga", "current", duration=2.0, poll_hz=200, chunk_samples=100
    )
    qualities = []
    try:
        for chunk in stream:
            if chunk.quality is not None:
                qualities.append(chunk.quality)
    except StreamInterrupted:
        pass
    assert qualities, "expected degraded chunks at a 0.9 fault rate"
    assert any(quality.retries > 0 for quality in qualities)
