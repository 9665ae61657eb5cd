"""Spectral analysis of side-channel traces.

A serving loop is periodic, so its current trace carries a line at the
inference rate (and harmonics).  Estimating that line gives the
attacker the victim's throughput *before* any classifier runs — a
useful fingerprint on its own (distinguishes model families by their
frame rate) and a sanity check that a trace actually contains a
periodic victim.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.traces import Trace
from repro.utils.validation import require_positive


@dataclass(frozen=True)
class SpectralPeak:
    """The dominant non-DC spectral line of a trace."""

    frequency_hz: float
    magnitude: float
    #: Ratio of the peak to the median non-DC magnitude ("prominence").
    prominence: float


def amplitude_spectrum(values: np.ndarray, sample_rate: float):
    """One-sided amplitude spectrum of a uniformly-sampled series.

    Returns ``(frequencies, magnitudes)`` with the DC bin removed and
    the mean subtracted first (hwmon readings have a large DC floor).
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1 or values.size < 4:
        raise ValueError("need a 1-D series of at least 4 samples")
    require_positive(sample_rate, "sample_rate")
    centered = values - values.mean()
    spectrum = np.abs(np.fft.rfft(centered))
    frequencies = np.fft.rfftfreq(values.size, d=1.0 / sample_rate)
    return frequencies[1:], spectrum[1:]


def estimate_serving_rate(
    trace: Trace, max_rate_hz: Optional[float] = None
) -> SpectralPeak:
    """Estimate a victim's inference (serving-loop) rate from a trace.

    The trace must be roughly uniformly sampled; the poll grid's mean
    spacing sets the sample rate.  Rates above ``max_rate_hz`` (or the
    Nyquist limit) cannot be resolved — a 35 ms sensor can only see
    loops slower than ~14 Hz directly; faster loops alias, which is
    itself a usable fingerprint but not a rate estimate.
    """
    if trace.n_samples < 8:
        raise ValueError("need at least 8 samples to estimate a rate")
    spacing = np.diff(trace.times)
    mean_spacing = float(spacing.mean())
    if mean_spacing <= 0:
        raise ValueError("trace timestamps must advance")
    sample_rate = 1.0 / mean_spacing
    frequencies, magnitudes = amplitude_spectrum(
        np.asarray(trace.values, dtype=np.float64), sample_rate
    )
    if max_rate_hz is not None:
        keep = frequencies <= max_rate_hz
        if not keep.any():
            raise ValueError("max_rate_hz excludes every resolvable bin")
        frequencies = frequencies[keep]
        magnitudes = magnitudes[keep]
    peak_index = int(np.argmax(magnitudes))
    median = float(np.median(magnitudes))
    return SpectralPeak(
        frequency_hz=float(frequencies[peak_index]),
        magnitude=float(magnitudes[peak_index]),
        prominence=float(
            magnitudes[peak_index] / median if median > 0 else np.inf
        ),
    )
