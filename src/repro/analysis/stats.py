"""Statistics used by the characterization experiments (Fig 2).

The paper quantifies each channel three ways: the Pearson correlation
between per-level mean readings and the activation level, the linear
fit of that relationship (whose slope, divided by the channel's LSB,
gives the "~40 LSBs per setting" resolution argument), and a relative
variation measure used for the headline "261x greater variations than
RO" comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.validation import as_1d_float_array


def pearson(x, y) -> float:
    """Pearson correlation coefficient between two equal-length series."""
    x = as_1d_float_array(x, "x")
    y = as_1d_float_array(y, "y")
    if x.size != y.size:
        raise ValueError("series must have equal length")
    if x.size < 2:
        raise ValueError("need at least two points")
    if np.ptp(x) == 0 or np.ptp(y) == 0:
        # A constant series has no linear relationship to quantify.
        return 0.0
    dx = x - x.mean()
    dy = y - y.mean()
    r = np.dot(dx / np.linalg.norm(dx), dy / np.linalg.norm(dy))
    return float(np.clip(r, -1.0, 1.0))


@dataclass(frozen=True)
class LinearFit:
    """Ordinary-least-squares line through (x, y).

    Attributes:
        slope / intercept: the fitted line.
        r: Pearson correlation of the fit.
    """

    slope: float
    intercept: float
    r: float

    def predict(self, x) -> np.ndarray:
        """Evaluate the fitted line."""
        return self.slope * np.asarray(x, dtype=np.float64) + self.intercept


def linear_fit(x, y) -> LinearFit:
    """Least-squares linear fit of y on x, from centred sums.

    A constant ``x`` has no fit and raises; a constant ``y`` fits a
    flat line through its mean with an undefined ``r`` (``nan``).
    """
    x = as_1d_float_array(x, "x")
    y = as_1d_float_array(y, "y")
    if x.size != y.size or x.size < 2:
        raise ValueError("need two equal-length series of >= 2 points")
    if np.ptp(x) == 0:
        raise ValueError("cannot fit a line when all x values are identical")
    x_mean = x.mean()
    y_mean = y.mean()
    if np.ptp(y) == 0:
        return LinearFit(slope=0.0, intercept=float(y_mean), r=float("nan"))
    dx = x - x_mean
    dy = y - y_mean
    sxx = np.dot(dx, dx)
    sxy = np.dot(dx, dy)
    slope = sxy / sxx
    r = sxy / np.sqrt(sxx * np.dot(dy, dy))
    return LinearFit(
        slope=float(slope),
        intercept=float(y_mean - slope * x_mean),
        r=float(np.clip(r, -1.0, 1.0)),
    )


def lsb_per_step(level_means, lsb: float) -> float:
    """Average reading change per activation level, in channel LSBs.

    Fig 2's resolution argument: current moves ~40 LSBs (1 mA each)
    per 1k-instance group, power 1-2 LSBs (25 mW each), voltage less
    than one LSB (1.25 mV) across the whole sweep.
    """
    level_means = as_1d_float_array(level_means, "level_means")
    if level_means.size < 2:
        raise ValueError("need at least two levels")
    if lsb <= 0:
        raise ValueError("lsb must be > 0")
    slope = linear_fit(np.arange(level_means.size), level_means).slope
    return float(abs(slope) / lsb)


def relative_variation(values) -> float:
    """Peak-to-peak variation normalized by the mean magnitude.

    The paper's "variation" comparison: over the same 161-level sweep,
    the current channel's relative variation is ~261x the RO channel's.
    """
    values = as_1d_float_array(values, "values")
    if values.size < 2:
        raise ValueError("need at least two values")
    mean = np.mean(np.abs(values))
    if mean == 0:
        raise ValueError("relative variation undefined for zero-mean data")
    return float(np.ptp(values) / mean)


def variation_ratio(values_a, values_b) -> float:
    """How much more channel A varies than channel B (the 261x figure)."""
    return relative_variation(values_a) / relative_variation(values_b)
