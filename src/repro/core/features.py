"""Feature extraction for side-channel traces.

The paper's fingerprinting uses "straightforward features" — the raw
hwmon readings over the collection window — fed to a random forest.
The only processing needed is bringing variable-length polling sessions
onto a fixed-width grid (resampling) so traces of different durations
and poll phases align column-wise.

Resampling has two entry points: :func:`resample_values` for one trace
(the online classification path) and :func:`resample_batch` for a
ragged list of traces (the dataset→matrix path).  The batch form
groups traces by length and interpolates each group in one vectorized
pass; it is bit-identical to stacking per-trace ``np.interp`` calls,
which ``tests/test_kernel_parity.py`` pins.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.utils.validation import require_int_in_range


def resample_values(values: np.ndarray, n_features: int) -> np.ndarray:
    """Resample a 1-D series to exactly ``n_features`` points.

    Linear interpolation over the normalized sample index: robust to
    small length differences between traces (poll jitter, truncation)
    while preserving the trace's shape.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1 or values.size == 0:
        raise ValueError("values must be a non-empty 1-D array")
    n_features = require_int_in_range(n_features, 1, 1_000_000, "n_features")
    if values.size == 1:
        return np.full(n_features, values[0])
    source = np.linspace(0.0, 1.0, values.size)
    target = np.linspace(0.0, 1.0, n_features)
    return np.interp(target, source, values)


def _interp_rows(
    target: np.ndarray, length: int, rows: np.ndarray
) -> np.ndarray:
    """``np.interp(target, linspace(0, 1, length), row)`` for every row.

    Mirrors NumPy's compiled interp arithmetic exactly — same interval
    lookup, same ``slope * (x - xp[j]) + fp[j]`` evaluation — so the
    vectorized result is bitwise equal to the per-row calls.  The
    endpoint patches reproduce interp's short-circuits: ``x`` at or
    past the last knot returns the last sample directly (the slope
    formula there is mathematically equal but not bitwise), and exact
    interior knot hits return the knot's sample.
    """
    source = np.linspace(0.0, 1.0, length)
    interval = np.searchsorted(source, target, side="right") - 1
    interval = np.clip(interval, 0, length - 2)
    x0 = source[interval]
    slope = (rows[:, interval + 1] - rows[:, interval]) / (
        source[interval + 1] - x0
    )
    result = slope * (target - x0) + rows[:, interval]
    exact = x0 == target
    if exact.any():
        result[:, exact] = rows[:, interval[exact]]
    result[:, target >= source[-1]] = rows[:, -1:]
    result[:, target <= source[0]] = rows[:, :1]
    return result


def resample_batch(
    values_list: Sequence[np.ndarray], n_features: int
) -> np.ndarray:
    """Resample a ragged batch of 1-D series into an ``(n_traces,
    n_features)`` matrix.

    Structure-of-arrays form of :func:`resample_values`: traces are
    grouped by length and every group is interpolated in one pass
    (traces of equal length share their knot grid and interval
    lookup).  Output rows are bit-identical to calling
    :func:`resample_values` per trace.
    """
    n_features = require_int_in_range(n_features, 1, 1_000_000, "n_features")
    arrays = [np.asarray(values, dtype=np.float64) for values in values_list]
    for values in arrays:
        if values.ndim != 1 or values.size == 0:
            raise ValueError("values must be a non-empty 1-D array")
    matrix = np.empty((len(arrays), n_features))
    lengths = np.array([values.size for values in arrays], dtype=np.int64)
    target = np.linspace(0.0, 1.0, n_features)
    for length in np.unique(lengths):
        members = np.nonzero(lengths == length)[0]
        group = np.stack([arrays[index] for index in members])
        if length == 1:
            matrix[members] = group  # constant rows broadcast across
        else:
            matrix[members] = _interp_rows(target, int(length), group)
    return matrix
