"""Seed-deterministic fault schedules for the hwmon read boundary.

A real AmpereBleed attacker polls world-readable sysfs files for hours,
and real sysfs reads fail: transient ``EAGAIN``/``EIO``, sensors
vanishing on driver rebind (``ENOENT``), root flipping
``update_interval`` mid-run, I2C hangs that latch one stale conversion
for several periods, and torn reads that return garbage.  A
:class:`FaultPlan` schedules all of those as *pure functions* of
``(plan seed, device, poll time or latch index)`` using the same
counter-based hashing as :mod:`repro.utils.hashrand` — so the fault
schedule is bit-identical across runs, chunk sizes, and worker counts,
and a retried read at a shifted time draws a fresh, equally
deterministic outcome.

A plan whose every rate is zero (``FaultPlan(seed=...)``, or
:meth:`FaultPlan.at_rate` of 0) is armed but disabled: the hwmon layer
treats it as "no plan", so traces stay bit-identical to an unarmed run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.utils.hashrand import hashed_uniform
from repro.utils.rng import derive_seed

#: Noise stream tags for the fault schedule (disjoint from the hwmon
#: sensor streams, which use 0-4).
_STREAM_TRANSIENT = 16
_STREAM_TORN = 17
_STREAM_TORN_MAGNITUDE = 18
_STREAM_STALE = 19
_STREAM_HOTPLUG = 20
_STREAM_INTERVAL = 21

#: Torn reads land far outside any physical hwmon range (mA / mV / uW
#: magnitudes on these boards stay below a few million), so a
#: plausibility gate can spot them.
TORN_MAGNITUDE = 1 << 26


def _time_counters(times: np.ndarray) -> np.ndarray:
    """A uint64 hash counter per poll: the raw bits of the timestamp.

    Two polls at the same simulated instant draw the same fault — the
    kernel would serve them the same failure — while a retry shifted by
    any backoff draws an independent one.
    """
    return np.ascontiguousarray(
        np.atleast_1d(np.asarray(times, dtype=np.float64))
    ).view(np.uint64)


@dataclass(frozen=True)
class FaultPlan:
    """One deterministic fault schedule, shared by every armed device.

    Attributes:
        seed: keys the schedule; combined with each device's name so
            devices fail independently.
        transient_rate: per-poll probability of a transient read error
            (``EAGAIN``/``EIO``) — the read fails, an immediate retry
            may succeed.
        torn_rate: per-poll probability of a torn/out-of-range value —
            the read "succeeds" but returns garbage far outside the
            physical range.
        stale_rate: per-block probability that the sensor latches one
            conversion for a whole run of ``stale_run_latches`` update
            periods (an I2C hang that recovers).
        stale_run_latches: length of one stale run, in update periods.
        hotplug_rate: per-slot probability that the device disappears
            (driver rebind); reads inside the window raise ``ENOENT``.
        hotplug_duration_s: how long a hotplug window lasts.
        interval_change_rate: per-slot probability that root has
            changed ``update_interval`` for that slot; conversions
            refresh ``interval_change_factor`` times slower there.
        interval_change_factor: slow-down factor during an interval
            change window.
        slot_s: scheduling grid for hotplug/interval windows (seconds).
    """

    seed: int = 0
    transient_rate: float = 0.0
    torn_rate: float = 0.0
    stale_rate: float = 0.0
    stale_run_latches: int = 4
    hotplug_rate: float = 0.0
    hotplug_duration_s: float = 0.05
    interval_change_rate: float = 0.0
    interval_change_factor: int = 4
    slot_s: float = 1.0

    def __post_init__(self):
        for name in (
            "transient_rate",
            "torn_rate",
            "stale_rate",
            "hotplug_rate",
            "interval_change_rate",
        ):
            value = getattr(self, name)
            if not (0.0 <= value <= 1.0):
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.stale_run_latches < 1:
            raise ValueError("stale_run_latches must be >= 1")
        if self.interval_change_factor < 1:
            raise ValueError("interval_change_factor must be >= 1")
        if self.hotplug_duration_s <= 0:
            raise ValueError("hotplug_duration_s must be > 0")
        if self.slot_s <= 0:
            raise ValueError("slot_s must be > 0")

    # ------------------------------------------------------ constructors

    @classmethod
    def at_rate(cls, rate: float, seed: int = 0) -> "FaultPlan":
        """One-knob plan: ``rate`` scales every fault family.

        Transient errors dominate (they do on real sysfs); torn reads,
        stale runs, hotplug windows and interval flips ride along at
        fractions of the knob.  ``rate=0`` is the no-op plan, exactly
        ``FaultPlan(seed=seed)``.
        """
        if not (0.0 <= rate <= 1.0):
            raise ValueError(f"fault rate must be in [0, 1], got {rate}")
        return cls(
            seed=seed,
            transient_rate=rate,
            torn_rate=rate / 4.0,
            stale_rate=rate / 4.0,
            hotplug_rate=min(1.0, rate / 2.0),
            interval_change_rate=rate / 8.0,
        )

    # -------------------------------------------------------- evaluation

    @property
    def is_noop(self) -> bool:
        """True when no fault family can ever fire."""
        # Exact-zero sentinels: a rate is configured, never computed,
        # and 0.0 is its documented "class disabled" value.
        return (
            self.transient_rate == 0.0  # repro: ignore[API002] sentinel
            and self.torn_rate == 0.0  # repro: ignore[API002] sentinel
            and self.stale_rate == 0.0  # repro: ignore[API002] sentinel
            and self.hotplug_rate == 0.0  # repro: ignore[API002] sentinel
            and self.interval_change_rate == 0.0  # repro: ignore[API002] sentinel
        )

    def device_key(self, device_name: str) -> int:
        """The per-device hash key (devices fail independently)."""
        return derive_seed(self.seed, f"faultplan:{device_name}")

    def transient_mask(self, key: int, times: np.ndarray) -> np.ndarray:
        """Which polls fail with a transient error (EAGAIN/EIO)."""
        if self.transient_rate == 0.0:  # repro: ignore[API002] 0.0 disables the class
            return np.zeros(np.shape(np.atleast_1d(times)), dtype=bool)
        draws = hashed_uniform(
            key, _time_counters(times), stream=_STREAM_TRANSIENT
        )
        return draws < self.transient_rate

    def torn_mask(self, key: int, times: np.ndarray) -> np.ndarray:
        """Which polls return a torn, out-of-range value."""
        if self.torn_rate == 0.0:  # repro: ignore[API002] 0.0 disables the class
            return np.zeros(np.shape(np.atleast_1d(times)), dtype=bool)
        draws = hashed_uniform(key, _time_counters(times), stream=_STREAM_TORN)
        return draws < self.torn_rate

    def torn_values(
        self, key: int, values: np.ndarray, times: np.ndarray, mask: np.ndarray
    ) -> np.ndarray:
        """Corrupt the masked readings far outside the physical range."""
        if not mask.any():
            return values
        scale = 1 + (
            hashed_uniform(
                key,
                _time_counters(times)[mask],
                stream=_STREAM_TORN_MAGNITUDE,
            )
            * 7.0
        ).astype(np.int64)
        corrupted = values.copy()
        corrupted[mask] = corrupted[mask] + scale * TORN_MAGNITUDE
        return corrupted

    def hotplug_mask(self, key: int, times: np.ndarray) -> np.ndarray:
        """Which polls land inside a sensor-disappeared window (ENOENT)."""
        times = np.atleast_1d(np.asarray(times, dtype=np.float64))
        if self.hotplug_rate == 0.0:  # repro: ignore[API002] 0.0 disables the class
            return np.zeros(times.shape, dtype=bool)
        slots = np.floor(times / self.slot_s)
        armed = (
            hashed_uniform(
                key, slots.astype(np.int64).astype(np.uint64),
                stream=_STREAM_HOTPLUG,
            )
            < self.hotplug_rate
        )
        in_window = (times - slots * self.slot_s) < self.hotplug_duration_s
        return armed & in_window

    def shape_latches(
        self, key: int, latches: np.ndarray, times: np.ndarray
    ) -> np.ndarray:
        """Apply the value-shaping faults to a latch-index array.

        Interval changes quantize the conversion grid (the sensor
        refreshes ``interval_change_factor`` times slower inside an
        armed slot); stale runs then clamp whole blocks of latches to
        the block's first conversion (an I2C hang serving one register
        for several periods).
        """
        latches = np.asarray(latches)
        if self.interval_change_rate > 0.0:
            times = np.atleast_1d(np.asarray(times, dtype=np.float64))
            slots = np.floor(times / self.slot_s)
            changed = (
                hashed_uniform(
                    key, slots.astype(np.int64).astype(np.uint64),
                    stream=_STREAM_INTERVAL,
                )
                < self.interval_change_rate
            )
            factor = np.int64(self.interval_change_factor)
            quantized = (
                np.floor_divide(latches, factor) * factor
            )
            latches = np.where(changed, quantized, latches)
        if self.stale_rate > 0.0:
            run = np.int64(self.stale_run_latches)
            blocks = np.floor_divide(latches, run)
            stale = (
                hashed_uniform(
                    key, blocks.astype(np.uint64), stream=_STREAM_STALE
                )
                < self.stale_rate
            )
            latches = np.where(stale, blocks * run, latches)
        return latches

    def __repr__(self) -> str:
        if self.is_noop:
            return f"FaultPlan(seed={self.seed}, no faults)"
        return (
            f"FaultPlan(seed={self.seed}, "
            f"transient={self.transient_rate:g}, torn={self.torn_rate:g}, "
            f"stale={self.stale_rate:g}, hotplug={self.hotplug_rate:g}, "
            f"interval={self.interval_change_rate:g})"
        )


def resolve_fault_plan(
    faults, seed: int = 0
) -> Optional["FaultPlan"]:
    """The one spelling-resolution shim for ``faults=`` arguments.

    ``None`` means no plan; a float builds :meth:`FaultPlan.at_rate`;
    a plan passes through.  Returns ``None`` when the resolved plan is
    a no-op, so callers can arm nothing and keep the fast path.
    """
    if faults is None:
        return None
    if isinstance(faults, FaultPlan):
        plan = faults
    elif isinstance(faults, (int, float)) and not isinstance(faults, bool):
        plan = FaultPlan.at_rate(float(faults), seed=seed)
    else:
        raise TypeError(
            f"faults must be a FaultPlan, a rate in [0, 1], or None; "
            f"got {faults!r}"
        )
    return None if plan.is_noop else plan
