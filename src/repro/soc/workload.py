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
whole batch of windows (:meth:`ActivityTimeline.quiet_bounds`), so a
rail with many staggered victims integrates only the ones near the
batch, and the sum stays bit-identical to integrating them all.  It
compares each batch against its components' bounds, stored on its
first batch, instead of calling each component on every batch.

A jittered serving run repeats one short cycle thousands of times, so
:class:`CycleRun` stores it in O(cycles) memory: the cycle's segments,
each cycle's scale and stall, and checkpoints every
:data:`CHECKPOINT_CYCLES` cycles.  Its per-rail
:class:`CycleRunActivity` rebuilds the segments a query touches from the
nearest checkpoint and answers with the bits a :class:`PiecewiseActivity`
over the full arrays would give.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

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

        The exact test that :meth:`quiet_bounds` is held to; the base
        class never claims it.
        """
        return False

    def quiet_bounds(self) -> Tuple[float, float]:
        """Bounds of the batches this timeline is silent over.

        ``(until, after)``: every window inside [lo, hi] has exactly
        +/-0.0 energy if ``hi <= until`` or ``lo >= after``.  A composite
        skips the components these bounds call silent for a batch.  They
        may claim less than :meth:`silent_between`, never more; the base
        class claims nothing.
        """
        return -math.inf, math.inf

    def window_mean(self, t0: np.ndarray, t1: np.ndarray) -> np.ndarray:
        """Mean power over each window [t0, t1] (t1 > t0, elementwise)."""
        t0 = np.asarray(t0, dtype=np.float64)
        t1 = np.asarray(t1, dtype=np.float64)
        widths = t1 - t0
        if np.any(widths <= 0):
            raise ValueError("window_mean requires t1 > t0 elementwise")
        return self.energy_between(t0, t1) / widths

    def __add__(self, other: "ActivityTimeline") -> "ActivityTimeline":
        if not isinstance(other, ActivityTimeline):
            return NotImplemented
        return CompositeActivity([self, other])


def _held_zero_bounds(
    start: float, span: float, before: bool, after: bool
) -> Tuple[float, float]:
    """``quiet_bounds`` of a profile over ``[start, start + span]``.

    ``before``/``after`` say whether a held 0 W end is silent on that
    side.  ``hi <= start`` makes ``hi - start <= 0.0``.  The float above
    ``start + span`` is at least the exact sum, so any ``lo`` at or past
    it has an exact ``lo - start`` of at least ``span``, and rounding
    keeps ``lo - start >= span``.
    """
    return (
        start if before else -math.inf,
        math.nextafter(start + span, math.inf) if after else math.inf,
    )


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

    def quiet_bounds(self) -> Tuple[float, float]:
        return _held_zero_bounds(
            self.start, self.span, self._silent_before, self._silent_after
        )

    def __repr__(self) -> str:
        kind = f"period={self.period:.6g}s" if self.period else "finite"
        return (
            f"PiecewiseActivity({self.powers.size} segments, "
            f"span={self.span:.6g}s, {kind})"
        )


#: Cycles between two stored checkpoints of a :class:`CycleRun`.
CHECKPOINT_CYCLES = 8

#: Most slots a :class:`CycleRunActivity` keeps rebuilt between queries.
MEMO_SLOTS = 4096


class CycleRun:
    """A finite run of one repeating cycle, stored in O(cycles) memory.

    Cycle ``c`` is the segments ``scales[c] * durations`` followed by a
    stall slot of ``stalls[c]`` seconds that draws 0 W on every rail.
    Laid out flat, cycle ``c`` owns slots ``c * width`` to
    ``c * width + width - 1`` (``width = durations.size + 1``), and
    zero-length slots stay in place.  The run keeps only those per-cycle
    values, the per-rail slot powers, and, every
    :data:`CHECKPOINT_CYCLES` cycles, a checkpoint of the slot-edge
    cumsum and of each rail's cumulative energy.  The constructor takes
    every rail's checkpoints and total from one diff of the run's edges
    and one reused energy buffer, with :meth:`_energy`'s bits for each
    rail.  :meth:`block_arrays` rebuilds any range of blocks from its
    checkpoint, the edges once for all rails.

    The rebuilt arrays hold the bits of a :class:`PiecewiseActivity` over
    the whole run with its zero-length segments dropped:

    * ``np.cumsum`` accumulates strictly in sequence, so continuing from
      a checkpoint repeats the whole cumsum's additions one for one;
    * a zero-length slot adds +0.0 to both cumsums, which changes no
      value, and ``searchsorted(side="right")`` steps past its repeated
      edge onto the next real segment;
    * the run ends on its last real slot (later zero-length slots are
      cut off), and it holds the powers of its first and last real
      slots outside its span.

    Args:
        start: time of the first edge, seconds.
        durations: the cycle's segment durations, seconds.
        powers: per-rail segment powers in watts, one entry per duration.
        scales: per-cycle duration scale.
        stalls: per-cycle stall appended after the cycle, seconds.
    """

    def __init__(
        self,
        start: float,
        durations: Sequence[float],
        powers: Mapping[str, Sequence[float]],
        scales: Sequence[float],
        stalls: Sequence[float],
    ):
        # start + 0.0 is the first edge the full arrays would hold.
        self.start = float(start) + 0.0
        self.durations = as_1d_float_array(durations, "durations")
        self.scales = as_1d_float_array(scales, "scales")
        self.stalls = as_1d_float_array(stalls, "stalls")
        if self.scales.size != self.stalls.size:
            raise ValueError("scales and stalls need one entry per cycle")
        for name in ("durations", "scales", "stalls"):
            if np.any(getattr(self, name) < 0):
                raise ValueError(f"{name} must be >= 0")
        self.width = self.durations.size + 1
        self.block_slots = CHECKPOINT_CYCLES * self.width
        #: Blocks a rail keeps rebuilt between queries (about MEMO_SLOTS slots).
        self.blocks_per_memo = max(1, MEMO_SLOTS // self.block_slots)
        # Slot powers per rail: the cycle's segments, then the 0 W stall.
        self.powers: Dict[str, np.ndarray] = {}
        for rail, rail_powers in powers.items():
            rail_powers = as_1d_float_array(rail_powers, f"powers[{rail!r}]")
            if rail_powers.size != self.durations.size:
                raise ValueError(f"powers[{rail!r}] needs one entry per duration")
            if np.any(rail_powers < 0):
                raise ValueError("segment powers must be >= 0")
            self.powers[rail] = np.append(rail_powers, 0.0)

        flat = self._slot_durations(0, self.scales.size, 0.0)
        real = flat[1:] > 0.0
        if not real.any():
            raise ValueError("need at least one segment")
        self.first_slot = int(np.argmax(real))
        self.n_slots = real.size - int(np.argmax(real[::-1]))
        cum = np.cumsum(flat)
        edges = self.start + cum
        block_starts = slice(0, self.n_slots, self.block_slots)
        self._edge_checkpoints = cum[block_starts].copy()
        self.block_offsets = edges[block_starts] - self.start
        self.span = float(edges[self.n_slots] - self.start)
        # (first block, last block, edges, rel_edges) of the last shared range.
        self._edge_memo = None
        # Every rail's cumulative energy from one diff of the edges and
        # one reused buffer: each pass holds what ``_energy(rail, 0.0,
        # edges)`` builds (the same products, added in sequence).
        steps = np.diff(edges).reshape(self.scales.size, self.width)
        energy = np.empty(edges.size)
        energy[0] = 0.0
        self._energy_checkpoints: Dict[str, np.ndarray] = {}
        self.energy: Dict[str, float] = {}
        for rail, rail_powers in self.powers.items():
            np.multiply(steps, rail_powers, out=energy[1:].reshape(steps.shape))
            np.cumsum(energy, out=energy)
            self._energy_checkpoints[rail] = energy[block_starts].copy()
            self.energy[rail] = float(energy[self.n_slots])

    @property
    def n_blocks(self) -> int:
        """Number of checkpointed blocks."""
        return self.block_offsets.size

    def _slot_durations(
        self, first_cycle: int, end_cycle: int, head: float
    ) -> np.ndarray:
        """``head``, then the slot durations of cycles ``[first_cycle, end_cycle)``."""
        flat = np.empty(1 + (end_cycle - first_cycle) * self.width)
        flat[0] = head
        slots = flat[1:].reshape(end_cycle - first_cycle, self.width)
        np.multiply(
            self.scales[first_cycle:end_cycle, np.newaxis],
            self.durations,
            out=slots[:, :-1],
        )
        slots[:, -1] = self.stalls[first_cycle:end_cycle]
        return flat

    def _energy(self, rail: str, head: float, edges: np.ndarray) -> np.ndarray:
        """Cumulative energy at each edge, continuing from ``head``.

        ``edges`` covers whole cycles from a cycle start.
        """
        energy = np.empty(edges.size)
        energy[0] = head
        np.multiply(
            np.diff(edges).reshape(-1, self.width),
            self.powers[rail],
            out=energy[1:].reshape(-1, self.width),
        )
        return np.cumsum(energy, out=energy)

    def block_arrays(
        self, rail: str, first: int, last: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Rebuild blocks ``first`` to ``last`` for one rail.

        Returns the edges relative to :attr:`start` of the slots the
        blocks cover, and the cumulative energy at each edge.  Slot ``k``
        of the result is slot ``k % width`` of its cycle.  The edges of
        the last range longer than a rail keeps (:attr:`blocks_per_memo`)
        are kept and shared by every rail that asks for the same range;
        only the energy cumsum is per rail.
        """
        memo = self._edge_memo
        if memo is None or memo[:2] != (first, last):
            first_cycle = first * CHECKPOINT_CYCLES
            end_cycle = min((last + 1) * CHECKPOINT_CYCLES, self.scales.size)
            edges = self.start + np.cumsum(
                self._slot_durations(
                    first_cycle, end_cycle, self._edge_checkpoints[first]
                )
            )
            size = min(end_cycle * self.width, self.n_slots) - first_cycle * self.width
            memo = (first, last, edges, edges[: size + 1] - self.start)
            # A range a rail keeps for itself is rebuilt once per rail
            # anyway; sharing a longer one spares the other rails' rebuilds.
            self._edge_memo = memo if last - first >= self.blocks_per_memo else None
        edges, rel_edges = memo[2:]
        energy = self._energy(
            rail, self._energy_checkpoints[rail][first], edges
        )
        return rel_edges, energy[: rel_edges.size]

    def full_arrays(self, rail: str) -> Tuple[np.ndarray, np.ndarray]:
        """The whole run's ``(edges, powers)`` with zero-length segments dropped."""
        flat = self._slot_durations(0, self.scales.size, 0.0)[1 : self.n_slots + 1]
        keep = flat > 0.0
        edges = self.start + np.concatenate(([0.0], np.cumsum(flat[keep])))
        powers = np.tile(self.powers[rail], self.scales.size)[: self.n_slots]
        return edges, powers[keep]

    def timelines(self) -> Dict[str, "CycleRunActivity"]:
        """One timeline per rail, all sharing this run."""
        return {rail: CycleRunActivity(self, rail) for rail in self.powers}


class CycleRunActivity(ActivityTimeline):
    """One rail of a :class:`CycleRun`: a finite piecewise-constant profile.

    It answers every query with the bits :class:`PiecewiseActivity` gives
    over the whole run's arrays (:attr:`edges`, :attr:`powers`), holding
    its first and last segment's power outside the run, but stores only
    the shared run.  A query rebuilds the blocks its times touch, filled
    forward to about :data:`MEMO_SLOTS` slots, and keeps them for the
    next query, so forward-moving conversion batches rebuild about once
    per filled range.
    """

    def __init__(self, run: CycleRun, rail: str):
        self.run = run
        self.rail = rail
        self.start = run.start
        self.span = run.span
        self._powers = run.powers[rail]
        ends = self._powers[[run.first_slot % run.width, (run.n_slots - 1) % run.width]]
        self._first_power, self._last_power = ends
        # (first block, last block, rel_edges, cum_energy) of the last rebuild.
        self._memo = None
        # Exact-zero sentinel: held end powers are configured, not computed.
        held_zero = ends == 0.0  # repro: ignore[API002]
        exact = math.isfinite(run.energy[rail])
        self._silent_before = bool(exact and held_zero[0])
        self._silent_after = bool(exact and held_zero[1])

    @property
    def edges(self) -> np.ndarray:
        """Segment boundaries of the whole run, built on every access."""
        return self.run.full_arrays(self.rail)[0]

    @property
    def powers(self) -> np.ndarray:
        """Per-segment powers of the whole run, built on every access."""
        return self.run.full_arrays(self.rail)[1]

    @property
    def mean_power(self) -> float:
        """Mean power over the run's span."""
        return self.run.energy[self.rail] / self.span

    def _segments(self, offsets: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(rel_edges, cum_energy)`` over blocks covering ``offsets``.

        Each offset (``t - start``, clipped to the span) lies in the block
        whose first edge is the last one at or below it, so the slot
        :class:`PiecewiseActivity` would pick for it is in the range.
        """
        first = last = 0
        if offsets.size:
            blocks = np.searchsorted(self.run.block_offsets, offsets, side="right")
            first, last = int(blocks.min()) - 1, int(blocks.max()) - 1
        memo = self._memo
        if memo is None or not (memo[0] <= first and last <= memo[1]):
            end = min(
                max(last, first + self.run.blocks_per_memo - 1),
                self.run.n_blocks - 1,
            )
            memo = (first, end) + self.run.block_arrays(self.rail, first, end)
            if last - first < self.run.blocks_per_memo:
                self._memo = memo
        return memo[2], memo[3]

    @staticmethod
    def _slot_index(rel_edges: np.ndarray, offsets: np.ndarray) -> np.ndarray:
        index = np.searchsorted(rel_edges, offsets, side="right") - 1
        return np.clip(index, 0, rel_edges.size - 2)

    def power_at(self, t: np.ndarray) -> np.ndarray:
        t = np.atleast_1d(np.asarray(t, dtype=np.float64))
        # Hold first/last segment value outside the span.
        offset = np.clip(t - self.start, 0.0, np.nextafter(self.span, 0.0))
        rel_edges, _ = self._segments(offset)
        index = self._slot_index(rel_edges, offset)
        return self._powers[index % self.run.width]

    def _energy_from_start(self, offset: np.ndarray) -> np.ndarray:
        """Energy from the run start to each offset (``t - start``)."""
        clipped = np.clip(offset, 0.0, self.span)
        rel_edges, cum_energy = self._segments(clipped)
        index = self._slot_index(rel_edges, clipped)
        power = self._powers[index % self.run.width]
        energy = cum_energy[index] + power * (clipped - rel_edges[index])
        # Before the start: extrapolate with the first segment's power;
        # after the end: extrapolate with the last segment's.
        energy = energy + np.where(offset < 0, offset * self._first_power, 0.0)
        return energy + np.where(
            offset > self.span, (offset - self.span) * self._last_power, 0.0
        )

    def energy_between(self, t0: np.ndarray, t1: np.ndarray) -> np.ndarray:
        """Exact window energies; both ends go through one rebuilt range."""
        t0 = np.atleast_1d(np.asarray(t0, dtype=np.float64))
        t1 = np.atleast_1d(np.asarray(t1, dtype=np.float64))
        if t0.shape != t1.shape:
            t0, t1 = np.broadcast_arrays(t0, t1)
        # Elementwise, so one pass over both ends gives each end's bits.
        energy = self._energy_from_start(
            np.concatenate((t1.reshape(-1), t0.reshape(-1))) - self.start
        )
        return (energy[: t1.size] - energy[t1.size :]).reshape(t1.shape)

    def silent_between(self, lo: float, hi: float) -> bool:
        """True if a held 0 W end of the run covers [lo, hi].

        The same test as :meth:`PiecewiseActivity.silent_between`.
        """
        return (self._silent_before and hi - self.start <= 0.0) or (
            self._silent_after and lo - self.start >= self.span
        )

    def quiet_bounds(self) -> Tuple[float, float]:
        return _held_zero_bounds(
            self.start, self.span, self._silent_before, self._silent_after
        )

    def __repr__(self) -> str:
        return (
            f"CycleRunActivity({self.rail!r}, {self.run.scales.size} cycles, "
            f"span={self.span:.6g}s)"
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
        # (component, until, after) per component, from its quiet_bounds,
        # built on the first batch: a rail recomposed per deploy never
        # pays for it.
        self._quiet = None

    def _live(self, lo: float, hi: float) -> List[ActivityTimeline]:
        """The components, in order, that a batch inside [lo, hi] integrates."""
        if self._quiet is None:
            self._quiet = [
                (component, *component.quiet_bounds())
                for component in self.components
            ]
        return [
            component
            for component, until, after in self._quiet
            if until < hi and after > lo
        ]

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
        Only components whose :meth:`~ActivityTimeline.quiet_bounds` call
        them silent over the batch are skipped, and the rest are summed
        in their original order.  Batches with non-finite (or no) bounds
        skip nothing.
        """
        t0 = np.atleast_1d(np.asarray(t0, dtype=np.float64))
        t1 = np.atleast_1d(np.asarray(t1, dtype=np.float64))
        total = np.zeros(np.broadcast_shapes(t0.shape, t1.shape))
        components = self.components
        if total.size:
            lo = float(min(t0.min(), t1.min()))
            hi = float(max(t0.max(), t1.max()))
            if math.isfinite(hi - lo):
                components = self._live(lo, hi)
        for component in components:
            total = total + component.energy_between(t0, t1)
        return total

    def __repr__(self) -> str:
        return f"CompositeActivity({len(self.components)} components)"
