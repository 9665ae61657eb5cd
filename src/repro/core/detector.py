"""Victim-activity onset detection from current traces.

Both end-to-end attacks need to know *when* the victim runs: the
fingerprinting attack must trim its trace to the inference window, and
the RSA attack should discard samples collected while the circuit was
idle.  This module provides a simple, dependency-free change-point
detector over hwmon current traces: a rolling baseline with a z-score
trigger, plus helpers to segment a trace into active episodes.

The detector has two faces over one state machine:

* the **batch** face (:meth:`OnsetDetector.episodes`,
  :meth:`OnsetDetector.detect_onset`) segments a complete trace;
* the **incremental** face (:class:`OnsetTracker`, built by
  :meth:`OnsetDetector.tracker`) consumes a stream chunk by chunk and
  emits :class:`OnsetEvent`\\ s as activity starts and ends.

The batch face is re-expressed on top of the tracker, so feeding a
trace through either face — under any chunking — produces identical
episodes by construction, not by coincidence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

import numpy as np

from repro.core.traces import Trace
from repro.utils.validation import require_int_in_range, require_positive


@dataclass(frozen=True)
class Episode:
    """One detected activity episode, as sample indices [start, end)."""

    start: int
    end: int

    @property
    def length(self) -> int:
        """Number of samples inside the episode."""
        return self.end - self.start


@dataclass(frozen=True)
class OnsetEvent:
    """One state transition reported by an :class:`OnsetTracker`.

    Attributes:
        kind: ``"baseline"`` when the idle baseline locks in,
            ``"onset"`` when activity starts, ``"episode"`` when an
            activity episode closes (carrying the full episode).
        index: global sample index of the transition (the episode's
            start for onsets; one past its last sample for closes).
        time: the sample's timestamp when the pushed chunks carried
            times, else ``nan``.
        episode: the closed episode for ``"episode"`` events.
    """

    kind: str
    index: int
    time: float = float("nan")
    episode: Optional[Episode] = None


class OnsetTracker:
    """Incremental change-point state machine over a chunked stream.

    Built by :meth:`OnsetDetector.tracker`; consume with
    :meth:`push` per chunk and :meth:`finish` at end of stream.  The
    tracker carries the rolling state a batch scan keeps implicitly —
    the idle baseline (estimated from the first ``baseline_window``
    samples when not given), the open episode, and the gap counter
    that merges nearby episodes — so chunk boundaries are invisible:
    any chunking of the same samples yields the same events.

    Memory is O(``baseline_window``): only the samples needed to
    estimate a pending baseline are buffered, and they are released
    the moment the baseline locks in.
    """

    def __init__(
        self,
        detector: "OnsetDetector",
        baseline: Optional[Tuple[float, float]] = None,
        mask_baseline_region: bool = True,
    ):
        self.detector = detector
        if baseline is not None and baseline[1] <= 0:
            raise ValueError("baseline sigma must be > 0")
        self._baseline = baseline
        self._explicit_baseline = baseline is not None
        # Only a self-estimated baseline region is exempt from
        # triggering (the batch mask zeroes it); an explicit baseline
        # scans every sample, as detect_onset(baseline=...) does.
        self._mask_baseline_region = (
            mask_baseline_region and baseline is None
        )
        self._pending: Optional[np.ndarray] = (
            None if baseline is not None else np.empty(0, dtype=np.float64)
        )
        self._pending_times: Optional[np.ndarray] = (
            None if baseline is not None else np.empty(0, dtype=np.float64)
        )
        self._position = 0  # global samples fully processed
        self._episode_start: Optional[int] = None
        self._episode_start_time = float("nan")
        self._gap = 0

    @property
    def baseline(self) -> Optional[Tuple[float, float]]:
        """The locked-in ``(mean, sigma)`` baseline, if known yet."""
        return self._baseline

    @property
    def samples_seen(self) -> int:
        """Global samples consumed so far (including buffered ones)."""
        if self._pending is not None:
            return self._position + int(self._pending.size)
        return self._position

    def push(
        self,
        values: np.ndarray,
        times: Optional[np.ndarray] = None,
    ) -> List[OnsetEvent]:
        """Consume one chunk; return the events it triggered."""
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 1:
            raise ValueError("values must be one-dimensional")
        if times is not None:
            times = np.asarray(times, dtype=np.float64)
            if times.shape != values.shape:
                raise ValueError("times must match values in length")
        events: List[OnsetEvent] = []
        if values.size == 0:
            return events
        if self._baseline is None:
            self._pending = np.concatenate([self._pending, values])
            if times is not None:
                self._pending_times = np.concatenate(
                    [self._pending_times, times]
                )
            else:
                self._pending_times = np.concatenate(
                    [self._pending_times, np.full(values.size, np.nan)]
                )
            window = self.detector.baseline_window
            if self._pending.size < window:
                return events
            head = self._pending[:window]
            self._baseline = (
                float(head.mean()),
                float(max(head.std(), self.detector.min_sigma)),
            )
            events.append(
                OnsetEvent(
                    kind="baseline",
                    index=window - 1,
                    time=float(self._pending_times[window - 1]),
                )
            )
            buffered = self._pending
            buffered_times = self._pending_times
            self._pending = None
            self._pending_times = None
            if self._mask_baseline_region:
                # The batch mask never flags the self-estimated
                # baseline region; advance past it as all-idle.
                self._advance(
                    np.zeros(window, dtype=bool),
                    buffered_times[:window],
                    events,
                )
                buffered = buffered[window:]
                buffered_times = buffered_times[window:]
            if buffered.size:
                self._advance(
                    self._active_mask(buffered), buffered_times, events
                )
            return events
        mask = self._active_mask(values)
        if times is None:
            times = np.full(values.size, np.nan)
        self._advance(mask, times, events)
        return events

    def finish(self) -> List[OnsetEvent]:
        """Close the stream: flush a still-open trailing episode.

        Mirrors the batch scan's tail handling — an episode open at end
        of data closes at the last *active* sample (trailing idle
        samples shorter than ``min_gap`` are not part of it).
        """
        events: List[OnsetEvent] = []
        if self._episode_start is not None:
            end = self._position - self._gap
            events.append(
                OnsetEvent(
                    kind="episode",
                    index=end,
                    episode=Episode(self._episode_start, end),
                )
            )
            self._episode_start = None
            self._gap = 0
        return events

    # ------------------------------------------------------- internals

    def _active_mask(self, values: np.ndarray) -> np.ndarray:
        mu, sigma = self._baseline
        return np.abs((values - mu) / sigma) >= self.detector.z_threshold

    def _advance(
        self,
        mask: np.ndarray,
        times: np.ndarray,
        events: List[OnsetEvent],
    ) -> None:
        """Run the merge state machine over one chunk's activity mask.

        Sample-for-sample the same loop the batch segmentation ran,
        with the (start, gap) state carried across chunk boundaries.
        """
        min_gap = self.detector.min_gap
        for offset, active in enumerate(mask):
            index = self._position + offset
            if active:
                if self._episode_start is None:
                    self._episode_start = index
                    self._episode_start_time = float(times[offset])
                    events.append(
                        OnsetEvent(
                            kind="onset",
                            index=index,
                            time=float(times[offset]),
                        )
                    )
                self._gap = 0
            elif self._episode_start is not None:
                self._gap += 1
                if self._gap > min_gap:
                    end = index - self._gap + 1
                    events.append(
                        OnsetEvent(
                            kind="episode",
                            index=end,
                            time=float(times[offset]),
                            episode=Episode(self._episode_start, end),
                        )
                    )
                    self._episode_start = None
                    self._gap = 0
        self._position += int(mask.size)


class OnsetDetector:
    """Rolling-baseline z-score change detector.

    Args:
        baseline_window: samples used to estimate the idle baseline.
        z_threshold: trigger level in baseline standard deviations.
        min_gap: episodes separated by fewer idle samples are merged.
        min_sigma: floor on the baseline deviation (quantized idle
            traces can have zero variance; one LSB is the natural
            floor).
    """

    def __init__(
        self,
        baseline_window: int = 16,
        z_threshold: float = 5.0,
        min_gap: int = 3,
        min_sigma: float = 1.0,
    ):
        self.baseline_window = require_int_in_range(
            baseline_window, 2, 1_000_000, "baseline_window"
        )
        self.z_threshold = require_positive(z_threshold, "z_threshold")
        self.min_gap = require_int_in_range(min_gap, 0, 1_000_000, "min_gap")
        self.min_sigma = require_positive(min_sigma, "min_sigma")

    def estimate_baseline(self, values: np.ndarray) -> Tuple[float, float]:
        """(mean, sigma) of the leading idle window — reusable across
        later recordings (a stakeout loop measures idle once)."""
        values = np.asarray(values, dtype=np.float64)
        if values.size < self.baseline_window:
            raise ValueError(
                f"need at least baseline_window={self.baseline_window} "
                f"samples, got {values.size}"
            )
        window = values[: self.baseline_window]
        return float(window.mean()), float(
            max(window.std(), self.min_sigma)
        )

    def scores(
        self,
        values: np.ndarray,
        baseline: Optional[Tuple[float, float]] = None,
    ) -> np.ndarray:
        """Per-sample z-scores against an idle baseline.

        Without an explicit ``baseline`` the leading
        ``baseline_window`` samples estimate it (so the trace must
        start idle); stakeout loops pass a baseline captured earlier.
        """
        values = np.asarray(values, dtype=np.float64)
        if baseline is None:
            if values.size <= self.baseline_window:
                raise ValueError(
                    f"need more than baseline_window="
                    f"{self.baseline_window} samples, got {values.size}"
                )
            mu, sigma = self.estimate_baseline(values)
        else:
            mu, sigma = baseline
            if sigma <= 0:
                raise ValueError("baseline sigma must be > 0")
        return (values - mu) / sigma

    def tracker(
        self,
        baseline: Optional[Tuple[float, float]] = None,
        mask_baseline_region: bool = True,
    ) -> OnsetTracker:
        """An incremental :class:`OnsetTracker` with this detector's knobs.

        Without ``baseline`` the tracker calibrates itself from the
        first ``baseline_window`` samples pushed (buffering across
        chunk boundaries if needed); ``mask_baseline_region=False``
        lets even that calibration region trigger, which is the
        stakeout (:meth:`scan_for_onset`) convention.
        """
        return OnsetTracker(
            self, baseline=baseline,
            mask_baseline_region=mask_baseline_region,
        )

    def episodes(
        self,
        values: np.ndarray,
        baseline: Optional[Tuple[float, float]] = None,
    ) -> List[Episode]:
        """Contiguous active episodes, with short gaps bridged.

        Expressed as one :class:`OnsetTracker` push over the whole
        trace, so batch segmentation and chunked streaming share the
        same state machine (and therefore the same episodes).
        """
        values = np.asarray(values, dtype=np.float64)
        if baseline is None and values.size <= self.baseline_window:
            raise ValueError(
                f"need more than baseline_window="
                f"{self.baseline_window} samples, got {values.size}"
            )
        tracker = self.tracker(baseline=baseline)
        events = tracker.push(values)
        events += tracker.finish()
        return [
            event.episode for event in events if event.kind == "episode"
        ]

    def detect_onset(
        self,
        trace: Trace,
        baseline: Optional[Tuple[float, float]] = None,
    ) -> Tuple[bool, float]:
        """Did the victim start, and when (trace timestamp)?

        Returns ``(False, nan)`` when no activity is found.
        """
        found = self.episodes(np.asarray(trace.values), baseline=baseline)
        if not found:
            return False, float("nan")
        return True, float(trace.times[found[0].start])

    def scan_for_onset(
        self,
        chunks: Iterable[Trace],
        baseline: Optional[Tuple[float, float]] = None,
    ) -> Tuple[bool, float]:
        """Watch a chunked stream for the first victim onset.

        Consumes bounded :class:`Trace` chunks (e.g. from
        :meth:`repro.core.sampler.HwmonSampler.stream`) one at a time,
        so a stakeout holds only the current chunk in memory.  Without
        an explicit ``baseline`` the first chunk calibrates the idle
        level, exactly as a real stakeout measures idle once before
        watching; iteration stops at the first detected onset.

        Returns ``(found, onset_time)``; ``(False, nan)`` when the
        stream ends without activity.
        """
        tracker = self.tracker(
            baseline=baseline, mask_baseline_region=False
        )
        for chunk in chunks:
            events = tracker.push(
                np.asarray(chunk.values, dtype=np.float64),
                times=np.asarray(chunk.times, dtype=np.float64),
            )
            for event in events:
                if event.kind == "onset":
                    return True, event.time
        return False, float("nan")
