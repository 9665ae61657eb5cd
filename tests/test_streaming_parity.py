"""Streaming-vs-batch bit-parity for the analysis plane.

The refactor's contract: the incremental pipeline is a *re-chunking*
of the batch plane, not an approximation of it.  Features, episodes
and verdicts computed chunk-by-chunk must equal the batch results on
the assembled stream with ``max_abs_diff == 0.0`` — including on
degraded (fault-injected) captures — and the interrupted-and-resumed
monitor must reproduce the uninterrupted run bit for bit.
"""

import numpy as np
import pytest

from repro.core.detector import OnsetDetector
from repro.core.fingerprint import DnnFingerprinter, FingerprintConfig
from repro.core.io import TraceArchiveReader, TraceArchiveWriter
from repro.core.streaming import (
    IncrementalFeatureExtractor,
    Interruption,
    StreamingAnalyzer,
    WindowSpec,
    batch_window_features,
    monitor_chunks,
    window_feature_matrix,
)
from repro.core.traces import Trace
from repro.dpu.models import build_model, list_models
from repro.dpu.runner import DpuRunner
from repro.session import AttackSession

pytestmark = pytest.mark.stream

CHANNEL = ("fpga", "current")
N_MODELS = 3
TRAIN_CONFIG = FingerprintConfig(
    duration=1.0, traces_per_model=3, n_folds=2, forest_trees=10
)


@pytest.fixture(scope="module")
def forest():
    """A small pretrained fingerprint forest over N_MODELS classes."""
    models = list_models()[:N_MODELS]
    fingerprinter = DnnFingerprinter(config=TRAIN_CONFIG, seed=0)
    datasets = fingerprinter.collect_datasets(
        models=models, channels=(CHANNEL,)
    )
    return fingerprinter.analyzer, fingerprinter.train(datasets[CHANNEL])


def _victim_stream(
    seed, model, duration, chunk_samples, faults=None, poll_hz=None
):
    """A session streaming CHANNEL while one victim model serves."""
    session = AttackSession.create(seed=seed, faults=faults)
    DpuRunner().deploy(
        session.soc,
        build_model(model),
        duration=duration,
        seed=session.derive("victim"),
        name="victim",
    )
    if poll_hz is None:
        poll_hz = session.sampler.default_poll_hz(CHANNEL[0])
    stream = session.sampler.stream(
        CHANNEL[0],
        CHANNEL[1],
        duration=duration,
        poll_hz=poll_hz,
        chunk_samples=chunk_samples,
    )
    return session, stream


def _assemble(chunks, label=None):
    return Trace(
        times=np.concatenate([chunk.times for chunk in chunks]),
        values=np.concatenate([chunk.values for chunk in chunks]),
        domain=CHANNEL[0],
        quantity=CHANNEL[1],
        label=label,
    )


def test_classify_stream_matches_classify_topk(forest):
    """Full-trace window + smoothing=1.0 == the batch online phase."""
    analyzer, classifier = forest
    classes = list(classifier.classes_)
    n_features = analyzer.config.n_features
    for seed_offset, model in enumerate(classes):
        _, stream = _victim_stream(
            100 + seed_offset, model, duration=1.0, chunk_samples=128
        )
        chunks = list(stream)
        assembled = _assemble(chunks)
        verdicts = [
            verdict
            for update in analyzer.classify_stream(
                classifier,
                iter(chunks),
                window_samples=assembled.n_samples,
                top_k=len(classes),
            )
            for verdict in update.verdicts
        ]
        assert len(verdicts) == 1
        expected = analyzer.classify_topk(
            classifier, assembled, k=len(classes)
        )
        assert list(verdicts[0].labels) == expected
        # Confidences must equal the forest's batch probabilities on
        # the batch-windowed features, exactly.
        proba = classifier.predict_proba(
            window_feature_matrix([assembled.values], n_features)
        )[0]
        order = np.argsort(-proba, kind="stable")
        diff = np.abs(np.asarray(verdicts[0].confidences) - proba[order])
        assert float(np.max(diff)) == 0.0


def test_sliding_features_and_episodes_match_batch(forest):
    """Overlapping windows + onset episodes, streamed vs batch."""
    analyzer, classifier = forest
    n_features = analyzer.config.n_features
    session = AttackSession.create(seed=200)
    poll_hz = session.sampler.default_poll_hz(CHANNEL[0])
    # Victim active only mid-stream so the detector sees idle->active.
    DpuRunner().deploy(
        session.soc,
        build_model(classifier.classes_[0]),
        duration=0.5,
        seed=session.derive("victim"),
        start=0.4,
        name="victim",
    )
    chunks = list(
        session.sampler.stream(
            CHANNEL[0],
            CHANNEL[1],
            duration=1.4,
            poll_hz=poll_hz,
            chunk_samples=96,
        )
    )
    values = np.concatenate([chunk.values for chunk in chunks])
    idle = values[: int(0.3 * poll_hz)]
    baseline = (float(np.mean(idle)), float(np.std(idle)))
    detector = OnsetDetector()
    spec = WindowSpec(
        int(0.5 * poll_hz), int(0.1 * poll_hz)
    )
    streaming = StreamingAnalyzer(
        classifier,
        spec,
        n_features,
        detector=detector,
        baseline=baseline,
    )
    streamed_episodes = []
    for update in monitor_chunks(streaming, iter(chunks)):
        streamed_episodes.extend(
            event.episode for event in update.episodes
        )
    batch_episodes = detector.episodes(values, baseline=baseline)
    assert batch_episodes, "expected at least one victim episode"
    assert streamed_episodes == batch_episodes
    # Feature parity across the same overlapping windows.
    replay = IncrementalFeatureExtractor(spec, n_features)
    rows = [
        batch.features
        for batch in map(replay.push_chunk, chunks)
        if len(batch)
    ]
    diff = np.abs(
        np.vstack(rows) - batch_window_features(values, spec, n_features)
    )
    assert float(np.max(diff)) == 0.0


@pytest.mark.faults
def test_stream_parity_survives_fault_injection(forest):
    """Degraded captures stay bit-parity and flag their verdicts."""
    analyzer, classifier = forest
    n_features = analyzer.config.n_features
    _, stream = _victim_stream(
        300,
        str(classifier.classes_[1]),
        duration=10.0,
        chunk_samples=100,
        faults=0.05,
        poll_hz=100,
    )
    spec = WindowSpec(200, 200)
    streaming = StreamingAnalyzer(classifier, spec, n_features)
    chunks = []

    def recorded():
        for chunk in stream:
            chunks.append(chunk)
            yield chunk

    verdicts = []
    interrupted = False
    for update in monitor_chunks(streaming, recorded()):
        verdicts.extend(update.verdicts)
        interrupted = interrupted or any(
            isinstance(event, Interruption) for event in update.events
        )
    assert verdicts, "fault injection starved the monitor of verdicts"
    assert any(verdict.degraded for verdict in verdicts), (
        "fault injection must degrade at least one window"
    )
    # The chunks that actually arrived (resilient reads included) must
    # windows-and-features exactly like their batch assembly.
    values = np.concatenate([chunk.values for chunk in chunks])
    replay = IncrementalFeatureExtractor(spec, n_features)
    rows = [
        batch.features
        for batch in map(replay.push_chunk, chunks)
        if len(batch)
    ]
    diff = np.abs(
        np.vstack(rows) - batch_window_features(values, spec, n_features)
    )
    assert float(np.max(diff)) == 0.0
    assert replay.peak_resident_samples <= spec.window_samples + 100


def _run_monitor(forest_pair, archive_path, *, resume, stop_after=None):
    """One monitor session on a fixed seed; optionally cut short."""
    analyzer, classifier = forest_pair
    session = AttackSession.create(seed=400)
    DpuRunner().deploy(
        session.soc,
        build_model(classifier.classes_[0]),
        duration=2.0,
        seed=session.derive("victim"),
        name="victim",
    )
    sink = TraceArchiveWriter(
        archive_path, meta={"experiment": "monitor"}, resume=resume
    )
    updates = session.monitor(
        classifier,
        CHANNEL[0],
        CHANNEL[1],
        duration=2.0,
        window_samples=128,
        hop_samples=64,
        poll_hz=200,
        chunk_samples=50,
        n_features=analyzer.config.n_features,
        sink=sink,
        resume=resume,
    )
    verdicts, events = [], []
    for index, update in enumerate(updates):
        verdicts.extend(update.verdicts)
        events.extend(update.events)
        if stop_after is not None and index + 1 >= stop_after:
            sink.abort()  # process killed mid-session
            return verdicts, events
    sink.close()
    return verdicts, events


def test_monitor_resume_is_byte_identical(forest, tmp_path):
    """Kill a monitor mid-run, resume it, get the uninterrupted result."""
    full_verdicts, full_events = _run_monitor(
        forest, tmp_path / "full.d", resume=False
    )
    assert full_verdicts
    # No verdict is staler than the chunk that emitted it (50 polls at
    # 200 Hz): lag is simulated time from a window's last sample to
    # the end of its chunk.
    chunk_seconds = 50 / 200
    assert max(v.lag_seconds for v in full_verdicts) <= chunk_seconds + 1e-9
    head_verdicts, head_events = _run_monitor(
        forest, tmp_path / "resumed.d", resume=False, stop_after=4
    )
    tail_verdicts, tail_events = _run_monitor(
        forest, tmp_path / "resumed.d", resume=True
    )
    assert head_verdicts + tail_verdicts == full_verdicts
    assert head_events + tail_events == full_events
    # The archives load back bit-identically, chunk boundaries and all.
    full = list(TraceArchiveReader(tmp_path / "full.d").load_traceset())
    resumed = list(
        TraceArchiveReader(tmp_path / "resumed.d").load_traceset()
    )
    assert len(full) == len(resumed) == 1
    assert np.array_equal(full[0].times, resumed[0].times)
    assert np.array_equal(full[0].values, resumed[0].values)
