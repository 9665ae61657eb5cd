"""Victim-activity onset detection from current traces.

Both end-to-end attacks need to know *when* the victim runs: the
fingerprinting attack must trim its trace to the inference window, and
the RSA attack should discard samples collected while the circuit was
idle.  This module provides a simple, dependency-free change-point
detector over hwmon current traces: an idle baseline with a z-score
trigger, and a merge rule that joins active samples into episodes.

The detector is one incremental state machine, :class:`OnsetTracker`
(built by :meth:`OnsetDetector.tracker`).  It consumes a stream chunk
by chunk and emits :class:`OnsetEvent`\\ s as the baseline locks in,
activity starts and episodes close.  Its state carries across chunk
boundaries, so any chunking of the same samples, one whole-trace
push included, yields the same events.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

import numpy as np

from repro.core.traces import Trace
from repro.utils.validation import require_int_in_range, require_positive

#: Trigger level in baseline standard deviations.
Z_THRESHOLD = 5.0


@dataclass(frozen=True)
class Episode:
    """One detected activity episode, as sample indices [start, end)."""

    start: int
    end: int


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
    tracker carries its state across chunks — the idle baseline
    (estimated from the first ``baseline_window`` samples when not
    given), the open episode, and the gap counter that merges nearby
    episodes — so chunk boundaries are invisible: any chunking of the
    same samples yields the same events.

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
        # Only a self-estimated baseline region is exempt from
        # triggering; an explicit baseline scans every sample.
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
        self._gap = 0

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
                # The self-estimated baseline region never triggers;
                # advance past it as all-idle.
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

        An episode open at end of data closes at its last *active*
        sample (trailing idle samples shorter than ``min_gap`` are not
        part of it).
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
        return np.abs((values - mu) / sigma) >= Z_THRESHOLD

    def _advance(
        self,
        mask: np.ndarray,
        times: np.ndarray,
        events: List[OnsetEvent],
    ) -> None:
        """Run the merge state machine over one chunk's activity mask,
        with the (start, gap) state carried across chunk boundaries."""
        min_gap = self.detector.min_gap
        for offset, active in enumerate(mask):
            index = self._position + offset
            if active:
                if self._episode_start is None:
                    self._episode_start = index
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
    """Idle-baseline z-score change detector.

    A sample is active when it lies :data:`Z_THRESHOLD` or more
    baseline standard deviations from the idle mean.

    Args:
        baseline_window: samples used to estimate the idle baseline.
        min_gap: episodes separated by fewer idle samples are merged.
        min_sigma: floor on the baseline deviation (quantized idle
            traces can have zero variance; one LSB is the natural
            floor).
    """

    def __init__(
        self,
        baseline_window: int = 16,
        min_gap: int = 3,
        min_sigma: float = 1.0,
    ):
        self.baseline_window = require_int_in_range(
            baseline_window, 2, 1_000_000, "baseline_window"
        )
        self.min_gap = require_int_in_range(min_gap, 0, 1_000_000, "min_gap")
        self.min_sigma = require_positive(min_sigma, "min_sigma")

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

    def scan_for_onset(self, chunks: Iterable[Trace]) -> Tuple[bool, float]:
        """Watch a chunked stream for the first victim onset.

        Consumes bounded :class:`Trace` chunks (e.g. from
        :meth:`repro.core.sampler.HwmonSampler.stream`) one at a time,
        so a stakeout holds only the current chunk in memory.  The
        first ``baseline_window`` samples calibrate the idle level,
        exactly as a real stakeout measures idle once before watching;
        iteration stops at the first detected onset.

        Returns ``(found, onset_time)``; ``(False, nan)`` when the
        stream ends without activity.
        """
        tracker = self.tracker(mask_baseline_region=False)
        for chunk in chunks:
            events = tracker.push(
                np.asarray(chunk.values, dtype=np.float64),
                times=np.asarray(chunk.times, dtype=np.float64),
            )
            for event in events:
                if event.kind == "onset":
                    return True, event.time
        return False, float("nan")
