"""Simulated Linux hwmon sysfs tree over INA226 devices.

The attack's entire privilege story lives here: the kernel's ina226
driver exposes each sensor as ``/sys/class/hwmon/hwmonN`` with
world-readable attribute files —

* ``curr1_input``  — current in integer milliamps (1 mA steps),
* ``in0_input``    — shunt voltage in integer millivolts,
* ``in1_input``    — bus voltage in integer millivolts (1.25 mV LSB),
* ``power1_input`` — power in integer microwatts (25 mW steps here),
* ``update_interval`` — milliseconds between register refreshes;
  *readable* by anyone, *writable only by root* (the paper's attacker
  therefore lives with the 35 ms default).

Reads are served from the most recently latched conversion: polling
faster than the update interval returns runs of identical values.
Every conversion's noise is a pure function of its latch index
(counter-based hashing), so re-reading any historical instant gives
the same bytes the kernel would have served — across calls and runs.

Every read goes through one batched pass (``HwmonDevice._read``): the
union of the requests' latch indices is converted once, each requested
attribute is extracted from that pass and gathered back onto its
polls, and each request comes back fault-annotated.  The three public
reads differ only in what they do with a failed poll:
:meth:`HwmonDevice.read_series_faulted` returns the masks, while
:meth:`HwmonDevice.read_series` and :meth:`HwmonDevice.read_series_batch`
raise as a naive poll loop would.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.sensors.ina226 import Ina226, Ina226Config, Ina226Reading
from repro.soc.rails import PowerRail
from repro.utils.hashrand import hashed_normals, hashed_uniform
from repro.utils.rng import derive_seed

#: Noise stream tags (see utils.hashrand): one per physical source.
_STREAM_PHASE = 0
_STREAM_SHUNT = 1
_STREAM_BUS = 2
_STREAM_POWER = 3
_STREAM_RIPPLE = 4
#: The normal streams of one conversion, drawn in one kernel call.
_CONVERSION_STREAMS = (_STREAM_POWER, _STREAM_RIPPLE, _STREAM_SHUNT, _STREAM_BUS)

#: The update-interval range the paper reports for these boards (ms).
MIN_UPDATE_INTERVAL_MS = 2
MAX_UPDATE_INTERVAL_MS = 35


def _sorted_runs(latches: np.ndarray) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """``np.unique(latches, return_inverse=True)`` for non-decreasing latches.

    A sorted array's unique values are its runs, so each run's first
    latch is kept and each poll maps to its run's number.  The latches
    are non-decreasing exactly when those run values strictly increase,
    which is checked on the (much shorter) run values.  Returns ``None``
    when they are not.
    """
    size = latches.size
    if size == 0:
        return latches, np.zeros(0, dtype=np.intp)
    # Plain ufuncs and methods: a read of a few polls is as common as
    # one of 35 000, and numpy's Python-level helpers (diff, flatnonzero)
    # would cost more than ``np.unique`` on the short ones.
    starts = np.empty(size, dtype=bool)
    starts[0] = True
    np.not_equal(latches[1:], latches[:-1], out=starts[1:])
    firsts = starts.nonzero()[0]
    unique = latches[firsts]
    if not np.greater(unique[1:], unique[:-1]).all():
        return None
    lengths = np.empty_like(firsts)
    np.subtract(firsts[1:], firsts[:-1], out=lengths[:-1])
    lengths[-1] = size - firsts[-1]
    return unique, np.arange(unique.size).repeat(lengths)


def _unique_latches(latches: List[np.ndarray]) -> Tuple[np.ndarray, np.ndarray]:
    """``np.unique(np.concatenate(latches), return_inverse=True)``.

    Poll clocks are monotonic, so without value-shaping faults every
    request's latches are sorted and no sort is needed: requests that
    carry equal latches are deduped once and the inverse tiled, and
    requests on different clocks are each deduped, their (small) unique
    sets joined, and each mapped back with ``searchsorted``.  Any
    request whose latches step backwards sends the whole read to
    ``np.unique``.  Every path gives ``np.unique``'s integers.
    """
    first = latches[0]
    same = all(np.array_equal(other, first) for other in latches[1:])
    every_runs = []
    for request in latches[:1] if same else latches:
        runs = _sorted_runs(request)
        if runs is None:
            return np.unique(np.concatenate(latches), return_inverse=True)
        every_runs.append(runs)
    if same:
        unique, inverse = every_runs[0]
        if len(latches) > 1:
            inverse = np.tile(inverse, len(latches))
        return unique, inverse
    unique = np.unique(np.concatenate([runs[0] for runs in every_runs]))
    inverse = np.concatenate(
        [np.searchsorted(unique, runs[0])[runs[1]] for runs in every_runs]
    )
    return unique, inverse


class HwmonError(RuntimeError):
    """Base class for hwmon access failures."""


class HwmonPermissionError(HwmonError):
    """Raised when an unprivileged access hits a root-only attribute."""


class HwmonLookupError(HwmonError):
    """Raised for unknown devices or attributes (ENOENT)."""


class HwmonValueError(HwmonError, ValueError):
    """Raised when a write carries an invalid or out-of-range value.

    Subclasses :class:`ValueError` too, so callers validating inputs
    generically keep working.
    """


class HwmonTransientError(HwmonError):
    """A transient read failure (EAGAIN/EIO) — retrying may succeed.

    Raised by the raising reads (:meth:`HwmonDevice.read_series`,
    :meth:`HwmonDevice.read_series_batch`) only while a
    :class:`repro.faults.FaultPlan` is armed.  The same polls come back
    from :meth:`HwmonDevice.read_series_faulted` as a ``transient``
    mask instead, which the resilient sampler retries sample by sample.
    """


class HwmonDevice:
    """One ``hwmonN`` directory backed by an INA226 on a power rail.

    Args:
        index: the N in ``hwmonN``.
        name: the device name file contents (e.g. ``"ina226_u79"``).
        sensor: the INA226 model instance.
        rail: the power rail the shunt sits on.
        seed: experiment seed; combined with ``name`` to key the
            device's noise streams and conversion phase.
    """

    READABLE_ATTRS = (
        "name",
        "curr1_input",
        "in0_input",
        "in1_input",
        "power1_input",
        "update_interval",
    )

    def __init__(
        self,
        index: int,
        name: str,
        sensor: Ina226,
        rail: PowerRail,
        seed: Optional[int] = 0,
    ):
        self.index = int(index)
        self.name = str(name)
        self.sensor = sensor
        self.rail = rail
        self._key = derive_seed(seed, f"hwmon:{name}")
        # Devices power up unsynchronized: a random fraction of one
        # update period offsets this device's conversion grid.
        self._phase_fraction = float(
            hashed_uniform(self._key, np.array([0]), stream=_STREAM_PHASE)[0]
        )
        # Failure injection (tests/robustness): None, or
        # ("stale", t_hang) — conversions stop at t_hang (I2C hang);
        # ("unbind", t_gone) — reads fail after t_gone (driver unbind).
        self._failure: Optional[Tuple[str, float]] = None
        # Scheduled fault injection: a repro.faults.FaultPlan armed at
        # this read boundary.  A None/no-op plan costs one attribute
        # check per read — the no-fault path stays bit-identical.
        self._fault_plan = None
        self._fault_key = 0

    @property
    def path(self) -> str:
        """The sysfs directory of this device."""
        return f"/sys/class/hwmon/hwmon{self.index}"

    @property
    def update_period(self) -> float:
        """Seconds between register refreshes."""
        return self.sensor.update_period

    @property
    def phase(self) -> float:
        """Offset of this device's conversion grid within one period."""
        return self._phase_fraction * self.update_period

    def inject_failure(self, mode: str, at_time: float) -> None:
        """Arm a failure mode for robustness testing.

        ``"stale"`` models an I2C hang: the device keeps serving the
        conversion latched before ``at_time`` forever.  ``"unbind"``
        models a driver unbind/hot-remove: reads at or after
        ``at_time`` raise :class:`HwmonLookupError` (ENOENT), as a
        poll loop holding a stale fd would observe.
        """
        if mode not in ("stale", "unbind"):
            raise ValueError(f"unknown failure mode {mode!r}")
        self._failure = (mode, float(at_time))

    def clear_failure(self) -> None:
        """Disarm any injected failure."""
        self._failure = None

    def arm_faults(self, plan) -> None:
        """Arm (or with ``None`` disarm) a scheduled fault plan.

        ``plan`` is a :class:`repro.faults.FaultPlan`; a no-op plan
        (every rate zero) is stored but never evaluated, so every
        read stays bit-identical to an unarmed device.
        """
        self._fault_plan = plan
        self._fault_key = 0 if plan is None else plan.device_key(self.name)

    @property
    def faults_active(self) -> bool:
        """True when an armed plan can actually perturb reads."""
        return self._fault_plan is not None and not self._fault_plan.is_noop

    def latch_index(self, times: np.ndarray) -> np.ndarray:
        """Index of the conversion whose result is visible at each time."""
        times = np.atleast_1d(np.asarray(times, dtype=np.float64))
        if self._failure is not None and self._failure[0] == "stale":
            times = np.minimum(times, self._failure[1])
        latches = np.floor(
            (times - self.phase) / self.update_period
        ).astype(np.int64)
        if self.faults_active:
            # Value-shaping faults: update_interval flips and
            # stale-latch runs move which conversion a poll observes.
            latches = self._fault_plan.shape_latches(
                self._fault_key, latches, times
            )
        return latches

    def _convert_latches(self, latches: np.ndarray) -> Ina226Reading:
        """Run conversions for an array of latch indices (may repeat)."""
        period = self.update_period
        t_done = self.phase + latches * period
        t_start = t_done - period
        power, ripple, shunt_noise, bus_noise = hashed_normals(
            self._key, latches.astype(np.uint64), _CONVERSION_STREAMS
        )
        current, voltage = self.rail.window_state(
            t_start,
            t_done,
            power_noise=power * self.rail.noise_power_sigma,
            ripple=ripple * self.rail.ripple_sigma,
        )
        return self.sensor.convert(
            current, voltage, shunt_noise=shunt_noise, bus_noise=bus_noise
        )

    def _attribute_values(
        self, attribute: str, reading: Ina226Reading
    ) -> np.ndarray:
        """Extract one numeric sysfs attribute's integers from conversions."""
        if attribute == "curr1_input":
            return np.rint(reading.current_amps * 1e3).astype(np.int64)
        if attribute == "in0_input":
            shunt_volts = reading.shunt_register * 2.5e-6
            return np.rint(shunt_volts * 1e3).astype(np.int64)
        if attribute == "in1_input":
            return np.rint(reading.bus_volts * 1e3).astype(np.int64)
        return np.rint(reading.power_watts * 1e6).astype(np.int64)

    def _read(
        self, requests
    ) -> List[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """The one read path: serve ``(attribute, times)`` polls together.

        Converts the union of every request's latch indices once,
        extracts each requested attribute from that pass, gathers it
        back onto each request's polls, and returns ``(values,
        transient, gone)`` per request.  The union is deduped without a
        sort while every request's latches are sorted (any fault-free
        poll clock) and with ``np.unique`` otherwise
        (:func:`_unique_latches`).  Never raises for a scheduled fault
        or an injected unbind; the public reads decide that.
        """
        prepared = []
        for attribute, times in requests:
            if attribute not in self.READABLE_ATTRS or attribute == "name":
                raise HwmonLookupError(
                    f"{self.path}/{attribute}: not a readable numeric "
                    f"attribute"
                )
            times = np.atleast_1d(np.asarray(times, dtype=np.float64))
            prepared.append((attribute, times))
        latches = [
            self.latch_index(times)
            for attribute, times in prepared
            if attribute != "update_interval"
        ]
        if latches:
            unique, inverse = _unique_latches(latches)
            reading = self._convert_latches(unique)
        results = []
        cursor = 0
        for attribute, times in prepared:
            if attribute == "update_interval":
                values = np.full(
                    times.shape, round(self.update_period * 1e3), dtype=np.int64
                )
            else:
                column = self._attribute_values(attribute, reading)
                values = column[inverse[cursor:cursor + times.size]]
                cursor += times.size
            results.append(self._annotate_faults(values, times))
        return results

    def _annotate_faults(
        self, values: np.ndarray, times: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Apply the armed faults to one request's polls."""
        gone = np.zeros(times.shape, dtype=bool)
        if self._failure is not None and self._failure[0] == "unbind":
            gone = times >= self._failure[1]
        if not self.faults_active:
            return values, np.zeros(times.shape, dtype=bool), gone
        plan = self._fault_plan
        key = self._fault_key
        gone = gone | plan.hotplug_mask(key, times)
        transient = plan.transient_mask(key, times) & ~gone
        torn = plan.torn_mask(key, times) & ~gone & ~transient
        values = plan.torn_values(key, values, times, torn)
        return values, transient, gone

    def read_series(self, attribute: str, times: np.ndarray) -> np.ndarray:
        """Integer attribute values at each poll time (the sysfs ABI).

        ``curr1_input`` in mA, ``in0_input``/``in1_input`` in mV,
        ``power1_input`` in uW, ``update_interval`` in ms.

        This is the *naive* poll loop's view: an injected driver unbind
        raises :class:`HwmonLookupError`; with an active fault plan,
        torn values arrive silently corrupted, while the first hotplug
        window raises :class:`HwmonLookupError` and the first transient
        error raises :class:`HwmonTransientError` — the resilient
        sampler uses :meth:`read_series_faulted` instead.
        """
        return self.read_series_batch([(attribute, times)])[0]

    def read_series_faulted(
        self, attribute: str, times: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One poll series with per-sample fault annotations.

        Returns ``(values, transient, gone)``: the attribute values
        (torn polls already corrupted in place, value-shaping faults
        applied), a boolean mask of transient EAGAIN/EIO failures, and
        a boolean mask of ENOENT polls (hotplug windows and injected
        driver unbinds).  Values under a raised mask are what the
        kernel *would* have served; a caller honoring the sysfs ABI
        must treat them as unread.  Never raises for scheduled faults,
        so a resilient poll loop can retry sample by sample.
        """
        return self._read([(attribute, times)])[0]

    def read_series_batch(self, requests) -> List[np.ndarray]:
        """Serve several ``(attribute, times)`` polls in one pass.

        The conversions behind every request are computed once over the
        union of latch indices, then each request's values are gathered
        from that shared pass.  Because a conversion is a pure function
        of its latch index and every fault mask a function of poll
        time, the results are bit-identical to one :meth:`read_series`
        per request; a failed poll raises exactly as the first failing
        :meth:`read_series` would.
        """
        requests = list(requests)
        results = self._read(requests)
        cause = (
            "sensor hotplug window" if self.faults_active else "driver unbound"
        )
        for (attribute, _), (_, transient, gone) in zip(requests, results):
            if gone.any():
                raise HwmonLookupError(
                    f"{self.path}/{attribute}: no such device ({cause})"
                )
            if transient.any():
                raise HwmonTransientError(
                    f"{self.path}/{attribute}: resource temporarily "
                    f"unavailable (EAGAIN)"
                )
        return [values for values, _, _ in results]

    def read(self, attribute: str, time: float = 0.0) -> str:
        """Read one attribute file, returning its string contents."""
        if attribute == "name":
            return self.name
        value = self.read_series(attribute, np.array([time]))[0]
        return str(int(value))

    def write(self, attribute: str, value: str, privileged: bool = False) -> None:
        """Write an attribute file.

        Only ``update_interval`` is writable, and only by root — the
        unprivileged AmpereBleed attacker cannot speed the sensor up.
        """
        if attribute != "update_interval":
            raise HwmonLookupError(
                f"{self.path}/{attribute}: not a writable attribute"
            )
        if not privileged:
            raise HwmonPermissionError(
                f"{self.path}/update_interval: permission denied "
                f"(root required)"
            )
        try:
            interval_ms = int(value)
        except (TypeError, ValueError):
            raise HwmonValueError(
                f"{self.path}/update_interval: invalid value {value!r} "
                f"(expected an integer millisecond count)"
            ) from None
        if not (
            MIN_UPDATE_INTERVAL_MS <= interval_ms <= MAX_UPDATE_INTERVAL_MS
        ):
            raise HwmonValueError(
                f"{self.path}/update_interval: {interval_ms} ms is outside "
                f"the supported range [{MIN_UPDATE_INTERVAL_MS}, "
                f"{MAX_UPDATE_INTERVAL_MS}] ms for this INA226"
            )
        self.sensor.config = Ina226Config.for_update_period(interval_ms / 1e3)

    def __repr__(self) -> str:
        return f"HwmonDevice({self.path}, {self.name}, rail={self.rail.name})"


class HwmonTree:
    """The ``/sys/class/hwmon`` directory of one simulated system."""

    def __init__(self):
        self._devices: List[HwmonDevice] = []

    def register(self, device: HwmonDevice) -> None:
        """Add a device; its index must match its registration order."""
        if device.index != len(self._devices):
            raise ValueError(
                f"device index {device.index} out of order; expected "
                f"{len(self._devices)}"
            )
        if any(known.name == device.name for known in self._devices):
            raise ValueError(f"duplicate device name {device.name!r}")
        self._devices.append(device)

    def devices(self) -> List[HwmonDevice]:
        """All registered devices in hwmonN order."""
        return list(self._devices)

    def device(self, index: int) -> HwmonDevice:
        """Look up by hwmon index."""
        if not (0 <= index < len(self._devices)):
            raise HwmonLookupError(f"/sys/class/hwmon/hwmon{index}: no such device")
        return self._devices[index]

    def _resolve(self, path: str) -> Tuple[HwmonDevice, str]:
        prefix = "/sys/class/hwmon/hwmon"
        if not path.startswith(prefix):
            raise HwmonLookupError(f"{path}: not under /sys/class/hwmon")
        remainder = path[len(prefix):]
        try:
            index_text, attribute = remainder.split("/", 1)
            index = int(index_text)
        except ValueError:
            raise HwmonLookupError(f"{path}: malformed hwmon path") from None
        return self.device(index), attribute

    def write(self, path: str, value: str, privileged: bool = False) -> None:
        """Write a full sysfs path (root-only attributes enforce it)."""
        device, attribute = self._resolve(path)
        device.write(attribute, value, privileged=privileged)
