"""Incremental streaming analysis: classify while recording.

The batch analysis plane (:class:`~repro.core.fingerprint.
FingerprintAnalyzer`) must see a complete archive before it emits
anything.  This module is the live counterpart: a pipeline over
bounded :class:`~repro.core.sampler.TraceStream` chunks that emits
fingerprint verdicts *while the sampler is still polling*, with memory
bounded by the window size and latency bounded by the chunk size.

Three layers compose the pipeline:

* :class:`IncrementalFeatureExtractor` — turns a chunked sample stream
  into fixed-width feature rows over sliding windows.  Feature rows go
  through :func:`window_feature_matrix`, the *same* batched kernel
  call the offline path (:meth:`repro.core.traces.TraceSet.to_matrix`)
  uses, so streaming/batch feature parity is structural, not
  coincidental.
* :class:`~repro.core.detector.OnsetTracker` — the incremental onset
  state machine (built by :meth:`OnsetDetector.tracker`), threaded
  through so verdicts know whether the victim was active.
* :class:`StreamingAnalyzer` — runs a pretrained classifier over each
  completed window, smooths confidences across windows
  (:class:`ConfidenceSmoother`) and emits per-window top-k
  :class:`Verdict`\\ s plus :class:`ModelSwitch` events when the
  smoothed decision changes.

Quality provenance survives the whole way: chunks recorded through the
resilient sampling path carry :class:`~repro.core.traces.TraceQuality`
metadata, and every verdict reports the merged quality of the chunks
its window was computed from — a degraded capture yields visibly
degraded verdicts, not silently shaky ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.detector import OnsetDetector, OnsetEvent, OnsetTracker
from repro.core.features import resample_batch
from repro.core.sampler import StreamInterrupted
from repro.core.traces import Trace, TraceQuality
from repro.utils.validation import require_int_in_range

__all__ = [
    "WindowSpec",
    "window_feature_matrix",
    "batch_window_features",
    "FeatureWindow",
    "FeatureBatch",
    "IncrementalFeatureExtractor",
    "ConfidenceSmoother",
    "Verdict",
    "ModelSwitch",
    "Interruption",
    "MonitorUpdate",
    "StreamingAnalyzer",
    "monitor_chunks",
]


@dataclass(frozen=True)
class WindowSpec:
    """Sliding-window geometry over a sample stream.

    Attributes:
        window_samples: samples per analysis window.
        hop_samples: stride between consecutive window starts; equal
            to ``window_samples`` for tumbling windows, smaller for
            overlapping ones (must not exceed the window — a gap would
            drop samples and break the bounded-buffer invariant).
    """

    window_samples: int
    hop_samples: int

    def __post_init__(self):
        require_int_in_range(
            self.window_samples, 1, 100_000_000, "window_samples"
        )
        require_int_in_range(
            self.hop_samples, 1, self.window_samples, "hop_samples"
        )

    def n_windows(self, n_samples: int) -> int:
        """Complete windows inside ``n_samples`` consecutive samples."""
        if n_samples < self.window_samples:
            return 0
        return 1 + (n_samples - self.window_samples) // self.hop_samples


def window_feature_matrix(
    windows: Sequence[np.ndarray], n_features: int
) -> np.ndarray:
    """Fixed-width feature rows for a batch of sample windows.

    *The* feature kernel of both analysis planes: the offline path
    (:meth:`repro.core.traces.TraceSet.to_matrix`) feeds it one window
    per trace, the incremental extractor feeds it every sliding window
    a chunk completes.  Thin by design — it pins both planes to the
    same batched resampling kernel so their features are bit-identical
    whenever their windows are.
    """
    return resample_batch(windows, n_features)


def batch_window_features(
    values: np.ndarray, spec: WindowSpec, n_features: int
) -> np.ndarray:
    """Reference batch form: every sliding window of a complete trace.

    Equal to concatenating the feature batches an
    :class:`IncrementalFeatureExtractor` emits for the same samples
    under *any* chunking — the parity tests hold that equality
    exactly.
    """
    values = np.asarray(values)
    count = spec.n_windows(int(values.size))
    windows = [
        values[start * spec.hop_samples:
               start * spec.hop_samples + spec.window_samples]
        for start in range(count)
    ]
    if not windows:
        return np.empty((0, n_features))
    return window_feature_matrix(windows, n_features)


@dataclass(frozen=True)
class FeatureWindow:
    """Provenance of one emitted feature row.

    Attributes:
        index: running window number within the stream (0-based).
        start_index: global sample index of the window's first sample.
        start_time / end_time: timestamps of the window's first and
            last samples (``nan`` when the pushed chunks carried no
            times).
        quality: merged :class:`TraceQuality` of every chunk that
            contributed samples to this window; ``None`` when all of
            them were clean fast-path captures.
    """

    index: int
    start_index: int
    start_time: float
    end_time: float
    quality: Optional[TraceQuality] = None


@dataclass(frozen=True)
class FeatureBatch:
    """Every feature row one pushed chunk completed, as an SoA batch."""

    features: np.ndarray  # (n_windows, n_features)
    windows: Tuple[FeatureWindow, ...]

    def __len__(self) -> int:
        return len(self.windows)


class IncrementalFeatureExtractor:
    """Stateful chunk consumer producing sliding-window feature rows.

    Push :class:`Trace` chunks (or raw arrays) in stream order; each
    push returns a :class:`FeatureBatch` holding one feature row per
    window the new samples completed, computed through
    :func:`window_feature_matrix` in a single batched kernel call.

    Memory is bounded by the window: at most ``window_samples -
    hop_samples`` carried samples plus the current chunk are resident,
    never the stream; :attr:`peak_resident_samples` records the
    high-water mark for capacity planning and the ``monitor`` workload
    of ``bench/run.py``.
    """

    def __init__(self, spec: WindowSpec, n_features: int):
        self.spec = spec
        self.n_features = require_int_in_range(
            n_features, 1, 1_000_000, "n_features"
        )
        self._values: Optional[np.ndarray] = None
        self._times: Optional[np.ndarray] = None
        # Quality provenance of buffered samples: (start, end, quality)
        # global-index spans, one per contributing chunk, trimmed as
        # the buffer advances.  Rebound, never grown in place.
        self._spans: Tuple[Tuple[int, int, Optional[TraceQuality]], ...] = ()
        self._consumed = 0  # global index of the buffer's first sample
        self._emitted_windows = 0
        #: Largest sample buffer materialized so far.
        self.peak_resident_samples = 0

    @property
    def resident_samples(self) -> int:
        """Samples currently buffered."""
        return 0 if self._values is None else int(self._values.size)

    @property
    def samples_seen(self) -> int:
        """Global samples consumed so far."""
        return self._consumed + self.resident_samples

    @property
    def windows_emitted(self) -> int:
        """Feature rows emitted so far."""
        return self._emitted_windows

    def push_chunk(self, chunk: Trace) -> FeatureBatch:
        """Consume one stream chunk; return the windows it completed."""
        return self.push(
            chunk.values, times=chunk.times, quality=chunk.quality
        )

    def push(
        self,
        values: np.ndarray,
        times: Optional[np.ndarray] = None,
        quality: Optional[TraceQuality] = None,
    ) -> FeatureBatch:
        """Lower-level form of :meth:`push_chunk` for raw arrays."""
        values = np.asarray(values)
        if values.ndim != 1:
            raise ValueError("values must be one-dimensional")
        if values.size == 0:
            return FeatureBatch(np.empty((0, self.n_features)), ())
        if times is None:
            times = np.full(values.size, np.nan)
        else:
            times = np.asarray(times, dtype=np.float64)
            if times.shape != values.shape:
                raise ValueError("times must match values in length")
        start = self.samples_seen
        self._spans = self._spans + (
            (start, start + int(values.size), quality),
        )
        if self._values is None:
            self._values = values
            self._times = times
        else:
            self._values = np.concatenate([self._values, values])
            self._times = np.concatenate([self._times, times])
        self.peak_resident_samples = max(
            self.peak_resident_samples, int(self._values.size)
        )
        return self._drain()

    def _drain(self) -> FeatureBatch:
        """Emit every complete window in the buffer, then trim it."""
        window = self.spec.window_samples
        hop = self.spec.hop_samples
        rows: List[np.ndarray] = []
        metas: List[FeatureWindow] = []
        while self._values is not None and self._values.size >= window:
            rows.append(self._values[:window])
            metas.append(
                FeatureWindow(
                    index=self._emitted_windows,
                    start_index=self._consumed,
                    start_time=float(self._times[0]),
                    end_time=float(self._times[window - 1]),
                    quality=self._window_quality(
                        self._consumed, self._consumed + window
                    ),
                )
            )
            self._emitted_windows += 1
            self._values = self._values[hop:]
            self._times = self._times[hop:]
            self._consumed += hop
        self._spans = tuple(
            span for span in self._spans if span[1] > self._consumed
        )
        if not rows:
            return FeatureBatch(np.empty((0, self.n_features)), ())
        return FeatureBatch(
            window_feature_matrix(rows, self.n_features), tuple(metas)
        )

    def _window_quality(
        self, start: int, end: int
    ) -> Optional[TraceQuality]:
        """Merged quality of every chunk overlapping [start, end)."""
        overlapping = [
            quality
            for span_start, span_end, quality in self._spans
            if span_start < end and span_end > start
        ]
        if not any(quality is not None for quality in overlapping):
            return None
        merged = TraceQuality()
        for quality in overlapping:
            merged = merged.merged(
                quality if quality is not None else TraceQuality()
            )
        return merged


class ConfidenceSmoother:
    """Exponential moving average over per-window class probabilities.

    ``alpha`` is the weight of the newest window; ``alpha=1.0`` keeps
    raw per-window probabilities (the first update always adopts the
    incoming vector verbatim, so a fresh smoother is bit-transparent
    for single-window streams).  Lower values trade verdict latency
    for stability against one-window misclassifications.
    """

    def __init__(self, alpha: float = 1.0):
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        self.alpha = float(alpha)
        self._state: Optional[np.ndarray] = None

    def update(self, proba: np.ndarray) -> np.ndarray:
        """Fold one probability vector in; return the smoothed vector."""
        proba = np.asarray(proba, dtype=np.float64)
        if self._state is None or proba.shape != self._state.shape:
            self._state = proba.copy()
        else:
            self._state = (
                self.alpha * proba + (1.0 - self.alpha) * self._state
            )
        return self._state.copy()

    def reset(self) -> None:
        """Forget history; the next update adopts its input verbatim."""
        self._state = None


@dataclass(frozen=True)
class Verdict:
    """One live classification decision for one feature window.

    Attributes:
        window: provenance of the feature row this verdict scored.
        labels: top-k class labels by smoothed confidence (stable
            order, best first).
        confidences: smoothed probabilities matching ``labels``.
        raw_label: argmax of the *unsmoothed* window probabilities —
            diverges from ``labels[0]`` only when smoothing overrode a
            one-window flip.
        switched: the smoothed decision changed from the previous
            verdict's.
        lag_seconds: simulated-time staleness at emission — how far
            the stream's newest sample was past this window's last
            sample when the verdict came out (``nan`` without times).
    """

    window: FeatureWindow
    labels: Tuple[str, ...]
    confidences: Tuple[float, ...]
    raw_label: str
    switched: bool
    lag_seconds: float

    @property
    def label(self) -> str:
        """The smoothed top-1 decision."""
        return self.labels[0]

    @property
    def confidence(self) -> float:
        """Smoothed probability of :attr:`label`."""
        return self.confidences[0]

    @property
    def quality(self) -> Optional[TraceQuality]:
        """Capture quality of the window (``None`` = clean fast path)."""
        return self.window.quality

    @property
    def degraded(self) -> bool:
        """True when any contributing chunk needed the resilient path."""
        quality = self.window.quality
        return quality is not None and not quality.clean


@dataclass(frozen=True)
class ModelSwitch:
    """The smoothed verdict changed class between consecutive windows."""

    window_index: int
    time: float
    previous: Optional[str]
    label: str


@dataclass(frozen=True)
class Interruption:
    """The underlying stream died mid-run (all retries exhausted)."""

    message: str
    samples_seen: int


@dataclass(frozen=True)
class MonitorUpdate:
    """Everything one pushed chunk produced.

    ``events`` interleaves :class:`~repro.core.detector.OnsetEvent`,
    :class:`ModelSwitch` and :class:`Interruption` records in stream
    order.
    """

    verdicts: Tuple[Verdict, ...]
    events: Tuple[object, ...] = ()

    @property
    def episodes(self) -> Tuple[OnsetEvent, ...]:
        """Closed-episode events inside this update."""
        return tuple(
            event
            for event in self.events
            if isinstance(event, OnsetEvent) and event.kind == "episode"
        )


class StreamingAnalyzer:
    """Live verdicts over a chunked sample stream.

    Composes the incremental feature extractor, an optional
    :class:`~repro.core.detector.OnsetTracker` and a pretrained
    classifier (anything with ``classes_`` and ``predict_proba``, e.g.
    the fingerprint forest or an
    :class:`~repro.ml.streaming.OnlineSoftmaxClassifier`).  Push
    :class:`Trace` chunks in stream order; every push returns a
    :class:`MonitorUpdate` with the verdicts and detector events the
    new samples completed.
    """

    def __init__(
        self,
        classifier,
        spec: WindowSpec,
        n_features: int,
        *,
        top_k: int = 3,
        smoothing: float = 1.0,
        detector: Optional[OnsetDetector] = None,
        baseline: Optional[Tuple[float, float]] = None,
    ):
        self.classifier = classifier
        self.spec = spec
        self.extractor = IncrementalFeatureExtractor(spec, n_features)
        self.smoother = ConfidenceSmoother(smoothing)
        self._detector = detector
        self._baseline = baseline
        self.tracker: Optional[OnsetTracker] = None
        if detector is not None:
            self.tracker = detector.tracker(
                baseline=baseline, mask_baseline_region=False
            )
        classes = np.asarray(classifier.classes_)
        self.top_k = int(min(max(1, top_k), classes.size))
        self._last_label: Optional[str] = None
        self._verdicts_emitted = 0

    @property
    def verdicts_emitted(self) -> int:
        """Total verdicts emitted so far."""
        return self._verdicts_emitted

    @property
    def peak_resident_samples(self) -> int:
        """High-water mark of the feature buffer (bounded by O(window))."""
        return self.extractor.peak_resident_samples

    def reset(self) -> None:
        """Forget smoothing/decision state between independent streams.

        Keeps the classifier and window geometry; drops buffered
        samples, smoothed confidences and the last decision so the
        next stream is scored exactly like a fresh analyzer.
        """
        self.extractor = IncrementalFeatureExtractor(
            self.spec, self.extractor.n_features
        )
        self.smoother.reset()
        if self._detector is not None:
            self.tracker = self._detector.tracker(
                baseline=self._baseline, mask_baseline_region=False
            )
        self._last_label = None

    def push_chunk(self, chunk: Trace) -> MonitorUpdate:
        """Consume one stream chunk; return verdicts + events."""
        events: List[object] = []
        values = np.asarray(chunk.values, dtype=np.float64)
        if self.tracker is not None:
            events.extend(self.tracker.push(values, chunk.times))
        batch = self.extractor.push_chunk(chunk)
        chunk_end = (
            float(chunk.times[-1]) if chunk.times.size else float("nan")
        )
        verdicts = self._score(batch, chunk_end, events)
        return MonitorUpdate(verdicts=tuple(verdicts), events=tuple(events))

    def finish(self) -> MonitorUpdate:
        """Close the stream: flush trailing detector state.

        A trailing partial window (fewer than ``window_samples``
        buffered samples) is discarded, mirroring the batch path's
        whole-window contract.
        """
        events: List[object] = []
        if self.tracker is not None:
            events.extend(self.tracker.finish())
        return MonitorUpdate(verdicts=(), events=tuple(events))

    def _score(
        self,
        batch: FeatureBatch,
        chunk_end: float,
        events: List[object],
    ) -> List[Verdict]:
        if not len(batch):
            return []
        classes = np.asarray(self.classifier.classes_)
        proba = np.asarray(self.classifier.predict_proba(batch.features))
        smoothed = np.empty_like(proba)
        for row in range(proba.shape[0]):
            smoothed[row] = self.smoother.update(proba[row])
        # One stable argsort over the whole batch (API004: loops must
        # not re-sort per window).
        order = np.argsort(-smoothed, axis=1, kind="stable")
        raw_top = np.argmax(proba, axis=1)
        verdicts: List[Verdict] = []
        for row, meta in enumerate(batch.windows):
            top = order[row, : self.top_k]
            labels = tuple(str(label) for label in classes[top])
            previous = self._last_label
            switched = previous is not None and labels[0] != previous
            if labels[0] != previous:
                events.append(
                    ModelSwitch(
                        window_index=meta.index,
                        time=meta.end_time,
                        previous=previous,
                        label=labels[0],
                    )
                )
            self._last_label = labels[0]
            verdicts.append(
                Verdict(
                    window=meta,
                    labels=labels,
                    confidences=tuple(
                        float(value) for value in smoothed[row, top]
                    ),
                    raw_label=str(classes[raw_top[row]]),
                    switched=switched,
                    lag_seconds=chunk_end - meta.end_time,
                )
            )
            self._verdicts_emitted += 1
        return verdicts


def monitor_chunks(
    analyzer: StreamingAnalyzer,
    chunks: Iterable[Trace],
) -> Iterator[MonitorUpdate]:
    """Drive an analyzer over a chunk iterable, fault-tolerantly.

    Yields one :class:`MonitorUpdate` per chunk and a final update
    from :meth:`StreamingAnalyzer.finish`.  A
    :class:`~repro.core.sampler.StreamInterrupted` escaping the chunk
    source (channel dead beyond the outage budget) ends the stream
    early: the final update then also carries an
    :class:`Interruption` event instead of propagating the exception,
    so a monitor keeps the verdicts it already earned.
    """
    iterator = iter(chunks)
    interruption: Optional[Interruption] = None
    while True:
        try:
            chunk = next(iterator)
        except StopIteration:
            break
        except StreamInterrupted as exc:
            interruption = Interruption(
                message=str(exc),
                samples_seen=analyzer.extractor.samples_seen,
            )
            break
        yield analyzer.push_chunk(chunk)
    final = analyzer.finish()
    if interruption is not None:
        final = MonitorUpdate(
            verdicts=final.verdicts,
            events=final.events + (interruption,),
        )
    yield final
