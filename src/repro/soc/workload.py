"""Activity timelines: power demand as a function of time.

Every victim workload in the simulator (power-virus arrays, the RSA
circuit, DPU inference) is reduced to one or more *activity timelines* —
piecewise-constant power-vs-time functions on a power rail.  Sensors do
not see instantaneous power; the INA226 integrates over its conversion
window, so the primitive operation a timeline must support is the exact
*energy* accumulated between two instants.  With piecewise-constant
segments both point evaluation and window energies are exact and fully
vectorized, which is what lets the Fig 2 sweep (1.61 M sensor reads) and
the RSA attack (100 k reads) run in seconds.

Timelines may be periodic (an RSA engine encrypting in a loop) or finite
(a 5 s DPU inference run).  A finite timeline holds its first segment's
power before its start and its last segment's power after its end.
That models a workload idling outside its active window only when those
held segments are 0 W: a finite timeline that begins with a non-zero
segment draws that power at every time before its start.

A composite skips every finite component whose held 0 W end covers a
whole batch of windows (:meth:`ActivityTimeline.silent_between`), so a
rail with many staggered victims integrates only the ones near the
batch, and the sum stays bit-identical to integrating them all.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from repro.utils.validation import (
    as_1d_float_array,
    require_positive,
    require_sorted,
)


class ActivityTimeline:
    """Abstract power-vs-time profile on a single rail.

    Subclasses implement :meth:`power_at` and :meth:`energy_between`;
    everything else (window means, composition, scaling) is shared.
    """

    def power_at(self, t: np.ndarray) -> np.ndarray:
        """Instantaneous power in watts at each time in ``t`` (seconds)."""
        raise NotImplementedError

    def energy_between(self, t0: np.ndarray, t1: np.ndarray) -> np.ndarray:
        """Exact energy in joules accumulated over each window [t0, t1]."""
        raise NotImplementedError

    def silent_between(self, lo: float, hi: float) -> bool:
        """True if every window inside [lo, hi] has exactly +/-0.0 energy.

        A composite skips such components; the base class never claims it.
        """
        return False

    def window_mean(self, t0: np.ndarray, t1: np.ndarray) -> np.ndarray:
        """Mean power over each window [t0, t1] (t1 > t0, elementwise)."""
        t0 = np.asarray(t0, dtype=np.float64)
        t1 = np.asarray(t1, dtype=np.float64)
        widths = t1 - t0
        if np.any(widths <= 0):
            raise ValueError("window_mean requires t1 > t0 elementwise")
        return self.energy_between(t0, t1) / widths

    def scaled(self, factor: float) -> "ActivityTimeline":
        """Return this timeline with power multiplied by ``factor``."""
        return _ScaledActivity(self, factor)

    def __add__(self, other: "ActivityTimeline") -> "ActivityTimeline":
        if not isinstance(other, ActivityTimeline):
            return NotImplemented
        return CompositeActivity([self, other])


class ConstantActivity(ActivityTimeline):
    """A constant power draw (e.g. static leakage, board idle)."""

    def __init__(self, power_watts: float):
        if power_watts < 0:
            raise ValueError(f"power must be >= 0, got {power_watts}")
        self.power_watts = float(power_watts)

    def power_at(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=np.float64)
        return np.full_like(t, self.power_watts)

    def energy_between(self, t0: np.ndarray, t1: np.ndarray) -> np.ndarray:
        t0 = np.asarray(t0, dtype=np.float64)
        t1 = np.asarray(t1, dtype=np.float64)
        return self.power_watts * (t1 - t0)

    def __repr__(self) -> str:
        return f"ConstantActivity({self.power_watts:.6g} W)"


class PiecewiseActivity(ActivityTimeline):
    """Piecewise-constant power profile, optionally periodic.

    Args:
        edges: segment boundaries, length ``n + 1``, non-decreasing.
            ``edges[0]`` is the profile start time.
        powers: per-segment power in watts, length ``n``.
        period: if given, the profile repeats with this period.  The
            period must cover the edge span (``edges[-1] - edges[0]``);
            any gap between the last edge and the period end draws the
            first segment's power again only if explicitly encoded — by
            default the gap is zero-filled, so encode idle gaps as
            explicit zero-power segments for clarity.
    """

    def __init__(
        self,
        edges: Sequence[float],
        powers: Sequence[float],
        period: float = None,
    ):
        self.edges = require_sorted(as_1d_float_array(edges, "edges"), "edges")
        self.powers = as_1d_float_array(powers, "powers")
        if self.edges.size != self.powers.size + 1:
            raise ValueError(
                f"edges ({self.edges.size}) must be one longer than "
                f"powers ({self.powers.size})"
            )
        if self.powers.size == 0:
            raise ValueError("need at least one segment")
        if np.any(self.powers < 0):
            raise ValueError("segment powers must be >= 0")
        self.start = float(self.edges[0])
        self.span = float(self.edges[-1] - self.edges[0])
        if period is not None:
            require_positive(period, "period")
            if period < self.span - 1e-12:
                raise ValueError(
                    f"period {period} shorter than profile span {self.span}"
                )
        self.period = None if period is None else float(period)
        # Cumulative energy at each edge, relative to the profile start.
        durations = np.diff(self.edges)
        self._cum_energy = np.concatenate(
            ([0.0], np.cumsum(durations * self.powers))
        )
        self._cycle_energy = float(self._cum_energy[-1])
        # Exact-zero sentinel: held end powers are configured, not computed.
        held_zero = self.powers[[0, -1]] == 0.0  # repro: ignore[API002]
        exact = self.period is None and math.isfinite(self._cycle_energy)
        self._silent_before = bool(exact and held_zero[0])
        self._silent_after = bool(exact and held_zero[1])

    @classmethod
    def from_segments(
        cls,
        segments: Iterable[Tuple[float, float]],
        start: float = 0.0,
        period: float = None,
    ) -> "PiecewiseActivity":
        """Build from ``(duration_seconds, power_watts)`` pairs."""
        durations: List[float] = []
        powers: List[float] = []
        for duration, power in segments:
            if duration <= 0:
                raise ValueError(f"segment duration must be > 0, got {duration}")
            durations.append(float(duration))
            powers.append(float(power))
        edges = start + np.concatenate(([0.0], np.cumsum(durations)))
        return cls(edges, powers, period=period)

    @property
    def mean_power(self) -> float:
        """Mean power over one cycle (periodic) or the profile span."""
        denominator = self.period if self.period is not None else self.span
        return self._cycle_energy / denominator

    def _fold(self, t: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Map absolute times to (whole cycles, offset into the pattern)."""
        rel = t - self.start
        if self.period is None:
            return np.zeros_like(rel), rel
        cycles = np.floor(rel / self.period)
        return cycles, rel - cycles * self.period

    def power_at(self, t: np.ndarray) -> np.ndarray:
        t = np.atleast_1d(np.asarray(t, dtype=np.float64))
        _, offset = self._fold(t)
        if self.period is None:
            # Hold first/last segment value outside the span.
            offset = np.clip(offset, 0.0, np.nextafter(self.span, 0.0))
        rel_edges = self.edges - self.start
        index = np.searchsorted(rel_edges, offset, side="right") - 1
        index = np.clip(index, 0, self.powers.size - 1)
        result = self.powers[index]
        if self.period is not None:
            # Zero-fill any gap between the pattern end and the period.
            result = np.where(offset >= self.span, 0.0, result)
        return result

    def _energy_from_start(self, t: np.ndarray) -> np.ndarray:
        """Energy accumulated from the profile start to each time."""
        cycles, offset = self._fold(t)
        if self.period is None:
            # Before the start: extrapolate with the first segment's
            # power; after the end: extrapolate with the last segment's.
            below = offset < 0
            above = offset > self.span
            clipped = np.clip(offset, 0.0, self.span)
            rel_edges = self.edges - self.start
            index = np.searchsorted(rel_edges, clipped, side="right") - 1
            index = np.clip(index, 0, self.powers.size - 1)
            energy = self._cum_energy[index] + self.powers[index] * (
                clipped - rel_edges[index]
            )
            energy = energy + np.where(below, offset * self.powers[0], 0.0)
            energy = energy + np.where(
                above, (offset - self.span) * self.powers[-1], 0.0
            )
            return energy
        offset = np.clip(offset, 0.0, self.period)
        in_pattern = np.minimum(offset, self.span)
        rel_edges = self.edges - self.start
        index = np.searchsorted(rel_edges, in_pattern, side="right") - 1
        index = np.clip(index, 0, self.powers.size - 1)
        partial = self._cum_energy[index] + self.powers[index] * (
            in_pattern - rel_edges[index]
        )
        # Past the pattern span the gap contributes no energy.
        partial = np.where(offset >= self.span, self._cycle_energy, partial)
        return cycles * self._cycle_energy + partial

    def energy_between(self, t0: np.ndarray, t1: np.ndarray) -> np.ndarray:
        t0 = np.atleast_1d(np.asarray(t0, dtype=np.float64))
        t1 = np.atleast_1d(np.asarray(t1, dtype=np.float64))
        return self._energy_from_start(t1) - self._energy_from_start(t0)

    def silent_between(self, lo: float, hi: float) -> bool:
        """True if a held 0 W end of this finite profile covers [lo, hi].

        Every time on that side clips to the same offset (0 or ``span``),
        so :meth:`_energy_from_start` gives one value at both ends of each
        window; that value is finite, so their difference is exactly +0.0.
        The comparisons round ``t - start`` as :meth:`_fold` does.
        """
        return (self._silent_before and hi - self.start <= 0.0) or (
            self._silent_after and lo - self.start >= self.span
        )

    def __repr__(self) -> str:
        kind = f"period={self.period:.6g}s" if self.period else "finite"
        return (
            f"PiecewiseActivity({self.powers.size} segments, "
            f"span={self.span:.6g}s, {kind})"
        )


class CompositeActivity(ActivityTimeline):
    """Sum of timelines (e.g. static leakage + several active circuits)."""

    def __init__(self, components: Sequence[ActivityTimeline]):
        flattened: List[ActivityTimeline] = []
        for component in components:
            if isinstance(component, CompositeActivity):
                flattened.extend(component.components)
            else:
                flattened.append(component)
        if not flattened:
            raise ValueError("CompositeActivity needs at least one component")
        self.components: Tuple[ActivityTimeline, ...] = tuple(flattened)

    def power_at(self, t: np.ndarray) -> np.ndarray:
        t = np.atleast_1d(np.asarray(t, dtype=np.float64))
        total = np.zeros_like(t)
        for component in self.components:
            total = total + component.power_at(t)
        return total

    def energy_between(self, t0: np.ndarray, t1: np.ndarray) -> np.ndarray:
        """Sum of the component energies, skipping silent components.

        ``total`` starts at +0.0 and so is never -0.0, which makes adding
        a silent component's +/-0.0 the identity: skipping it is exact.
        Batches with non-finite (or no) bounds skip nothing.
        """
        t0 = np.atleast_1d(np.asarray(t0, dtype=np.float64))
        t1 = np.atleast_1d(np.asarray(t1, dtype=np.float64))
        total = np.zeros(np.broadcast_shapes(t0.shape, t1.shape))
        lo = hi = np.nan
        if total.size:
            lo = min(t0.min(), t1.min())
            hi = max(t0.max(), t1.max())
        prune = math.isfinite(hi - lo)
        for component in self.components:
            if prune and component.silent_between(lo, hi):
                continue
            total = total + component.energy_between(t0, t1)
        return total

    def __repr__(self) -> str:
        return f"CompositeActivity({len(self.components)} components)"


class _ScaledActivity(ActivityTimeline):
    """A timeline multiplied by a non-negative scalar."""

    def __init__(self, base: ActivityTimeline, factor: float):
        if factor < 0:
            raise ValueError(f"scale factor must be >= 0, got {factor}")
        self.base = base
        self.factor = float(factor)

    def power_at(self, t: np.ndarray) -> np.ndarray:
        return self.base.power_at(t) * self.factor

    def energy_between(self, t0: np.ndarray, t1: np.ndarray) -> np.ndarray:
        return self.base.energy_between(t0, t1) * self.factor

    def silent_between(self, lo: float, hi: float) -> bool:
        # +/-0.0 times a finite factor stays +/-0.0; inf or NaN would not.
        return math.isfinite(self.factor) and self.base.silent_between(lo, hi)

    def __repr__(self) -> str:
        return f"{self.base!r} * {self.factor:.6g}"
