"""Side-channel traces: what the attacking process actually records.

A :class:`Trace` is one polling session of one hwmon channel: the poll
timestamps, the integer readings the sysfs file returned, and the
labels the attack pipeline needs (which sensor, which quantity, and —
during the offline phase — which victim produced it).  A
:class:`TraceSet` is a labeled collection that can flatten itself into
the fixed-size feature matrix the classifier consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.features import resample_batch


@dataclass(frozen=True)
class TraceQuality:
    """Acquisition-quality metadata for one trace (or trace chunk).

    Recorded by the resilient sampling path when fault injection is
    armed; ``None`` on a :class:`Trace` means the trace was captured on
    the fast path with no faults scheduled, and every serialization
    layer omits it in that case so fault-free artifacts stay
    bit-identical to pre-resilience ones.

    Attributes:
        retries: total re-reads issued while recovering bad samples.
        gaps: samples still unrecovered after the retry budget.
        interpolated: gap samples filled from neighboring good polls
            (always <= ``gaps``; the difference was left as-is because
            interpolation was disabled or impossible).
        health: the channel's health state after this read
            (``"healthy"`` / ``"flaky"`` / ``"dead"``).
    """

    retries: int = 0
    gaps: int = 0
    interpolated: int = 0
    health: str = "healthy"

    def __post_init__(self):
        for name in ("retries", "gaps", "interpolated"):
            count = getattr(self, name)
            if not isinstance(count, int) or count < 0:
                raise ValueError(f"{name} must be a non-negative int")
        if self.interpolated > self.gaps:
            raise ValueError("interpolated cannot exceed gaps")
        if self.health not in ("healthy", "flaky", "dead"):
            raise ValueError(
                f"health must be 'healthy', 'flaky', or 'dead'; "
                f"got {self.health!r}"
            )

    @property
    def clean(self) -> bool:
        """True when the read needed no recovery at all."""
        return (
            self.retries == 0
            and self.gaps == 0
            and self.health == "healthy"
        )

    def merged(self, other: "TraceQuality") -> "TraceQuality":
        """Combine per-chunk quality into session-level quality.

        Counters add; the health field keeps the *later* chunk's state
        (health is a running property of the channel, so the last
        observation wins).
        """
        return TraceQuality(
            retries=self.retries + other.retries,
            gaps=self.gaps + other.gaps,
            interpolated=self.interpolated + other.interpolated,
            health=other.health,
        )

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready form for archive manifests."""
        return {
            "retries": self.retries,
            "gaps": self.gaps,
            "interpolated": self.interpolated,
            "health": self.health,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "TraceQuality":
        """Inverse of :meth:`to_dict`."""
        return cls(
            retries=int(payload.get("retries", 0)),
            gaps=int(payload.get("gaps", 0)),
            interpolated=int(payload.get("interpolated", 0)),
            health=str(payload.get("health", "healthy")),
        )


@dataclass(frozen=True)
class Trace:
    """One recorded side-channel trace.

    Attributes:
        times: poll timestamps in seconds (monotonic).
        values: integer readings in hwmon units (mA / mV / uW).
        domain: sensor domain key (``"fpga"``, ``"ddr"``, ...).
        quantity: ``"current"``, ``"voltage"`` or ``"power"``.
        label: ground-truth tag (victim model name) when known.
        quality: acquisition metadata from the resilient sampling
            path; ``None`` for fault-free fast-path captures.
    """

    times: np.ndarray
    values: np.ndarray
    domain: str
    quantity: str
    label: Optional[str] = None
    quality: Optional[TraceQuality] = None

    def __post_init__(self):
        times = np.asarray(self.times, dtype=np.float64)
        values = np.asarray(self.values)
        if times.ndim != 1 or values.ndim != 1:
            raise ValueError("times and values must be one-dimensional")
        if times.size != values.size:
            raise ValueError("times and values must have equal length")
        if times.size == 0:
            raise ValueError("a trace needs at least one sample")
        if times.size > 1 and np.any(np.diff(times) < 0):
            raise ValueError("times must be non-decreasing")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    @property
    def n_samples(self) -> int:
        """Number of recorded polls."""
        return int(self.values.size)

    @property
    def duration(self) -> float:
        """Span of the polling session in seconds."""
        return float(self.times[-1] - self.times[0])

    def truncation_mask(self, duration: float) -> np.ndarray:
        """Boolean sample mask for the first ``duration`` seconds.

        The single source of the truncation rule, which
        :meth:`TraceSet.to_matrix` applies without building
        intermediate ``Trace`` objects.
        """
        if duration <= 0:
            raise ValueError("duration must be > 0")
        cutoff = self.times[0] + duration
        keep = self.times <= cutoff + 1e-12
        if not keep.any():
            keep[0] = True
        return keep

    def __repr__(self) -> str:
        return (
            f"Trace({self.domain}/{self.quantity}, {self.n_samples} samples, "
            f"{self.duration:.2f} s, label={self.label!r})"
        )


@dataclass
class TraceSet:
    """A labeled collection of traces (one classifier's dataset)."""

    traces: List[Trace] = field(default_factory=list)

    def add(self, trace: Trace) -> None:
        """Append one trace."""
        if not isinstance(trace, Trace):
            raise TypeError("only Trace objects can be added")
        self.traces.append(trace)

    def __len__(self) -> int:
        return len(self.traces)

    def __iter__(self):
        return iter(self.traces)

    @property
    def labels(self) -> List[Optional[str]]:
        """Ground-truth label of each trace, in order."""
        return [trace.label for trace in self.traces]

    def filter(self, domain: str = None, quantity: str = None) -> "TraceSet":
        """Subset by sensor domain and/or quantity."""
        kept = [
            trace
            for trace in self.traces
            if (domain is None or trace.domain == domain)
            and (quantity is None or trace.quantity == quantity)
        ]
        return TraceSet(kept)

    def to_matrix(
        self, n_features: int, duration: Optional[float] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Fixed-width feature matrix + label vector for the classifier.

        Each trace contributes one whole-trace window to
        :func:`repro.core.features.resample_batch` — the same batched
        kernel the incremental streaming extractor uses, so batch and
        live features share one kernel path.  Unlabeled traces are
        rejected since the matrix is a supervised dataset.  With
        ``duration`` given, every trace is first cut to its opening
        ``duration`` seconds (:meth:`Trace.truncation_mask`); this is
        how Table III's 1 s / 2 s / ... columns are produced from the
        5 s full-length recordings.
        """
        if not self.traces:
            raise ValueError("empty trace set")
        values_list = []
        labels = []
        for trace in self.traces:
            if trace.label is None:
                raise ValueError("all traces must be labeled for to_matrix")
            values = trace.values
            if duration is not None:
                values = values[trace.truncation_mask(duration)]
            values_list.append(values)
            labels.append(trace.label)
        return (
            resample_batch(values_list, n_features),
            np.asarray(labels),
        )

    def summary(self) -> Dict[str, int]:
        """Trace count per label."""
        counts: Dict[str, int] = {}
        for trace in self.traces:
            key = trace.label if trace.label is not None else "<unlabeled>"
            counts[key] = counts.get(key, 0) + 1
        return counts
