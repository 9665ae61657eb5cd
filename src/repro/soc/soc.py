"""The simulated ARM-FPGA SoC: board + rails + sensors + workloads.

:class:`Soc` assembles the full evaluation platform of the paper:

* one :class:`~repro.soc.rails.PowerRail` per monitored supply, with a
  point-of-load regulator, idle draw, and ambient noise;
* one INA226 + hwmon device per board sensor (18 on the ZCU102), so
  the simulated ``/sys/class/hwmon`` tree enumerates like the real one;
* an FPGA :class:`~repro.fpga.fabric.Fabric` for circuit deployment;
* convenience wiring for the paper's victims (power-virus array, RSA
  engine, DPU inference runs attach their timelines to rails here).

An unprivileged attacker interacts with the SoC *only* through
:attr:`Soc.hwmon` (or the higher-level :class:`repro.core.sampler`
machinery): that is the entire attack surface AmpereBleed needs.

The SoC's three reads share one gate and one export step: each
channel's quantity is validated and its poll times pass the hardening
policy's access check and rate limit, and the values it serves pass
the policy's dither/quantization.  :meth:`Soc.sample` is
:meth:`Soc.sample_many` of one channel; :meth:`Soc.sample_faulted` is
its fault-annotated, never-raising counterpart.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.boards.catalog import BoardSpec, get_board
from repro.boards.zcu102 import (
    SENSITIVE_SENSOR_MAP,
    SensorSpec,
    sensor_map_for,
)
from repro.fpga.fabric import Fabric
from repro.fpga.pdn import VoltageRegulator
from repro.sensors.hwmon import HwmonDevice, HwmonTree
from repro.sensors.ina226 import Ina226
from repro.soc.rails import PowerRail
from repro.soc.workload import ActivityTimeline
from repro.utils.validation import require_one_of

#: hwmon attribute per measured quantity.
QUANTITY_ATTRS: Dict[str, str] = {
    "current": "curr1_input",
    "voltage": "in1_input",
    "power": "power1_input",
}


@dataclass(frozen=True)
class RailNoiseProfile:
    """Ambient noise parameters of one rail domain.

    Attributes:
        power_sigma: RMS ambient power noise per conversion window (W).
        ripple_sigma: RMS regulator ripple per conversion window (V).
    """

    power_sigma: float
    ripple_sigma: float


#: Per-domain ambient noise.  CPU rails are noisy (OS scheduling,
#: interrupts); the FPGA rail is comparatively quiet; DDR sits between.
DEFAULT_NOISE_PROFILES: Dict[str, RailNoiseProfile] = {
    "fpga": RailNoiseProfile(power_sigma=8e-3, ripple_sigma=0.20e-3),
    "fpd": RailNoiseProfile(power_sigma=30e-3, ripple_sigma=0.30e-3),
    "lpd": RailNoiseProfile(power_sigma=5.5e-3, ripple_sigma=0.30e-3),
    "ddr": RailNoiseProfile(power_sigma=4e-3, ripple_sigma=0.30e-3),
    "aux": RailNoiseProfile(power_sigma=2e-3, ripple_sigma=0.30e-3),
}


def _regulator_for(spec: SensorSpec, board: BoardSpec) -> VoltageRegulator:
    """Build the rail regulator for one sensor's supply."""
    if spec.domain in ("fpga", "fpd", "lpd"):
        low, high = board.fpga_voltage_range
        return VoltageRegulator(
            v_set=(low + high) / 2.0, band=(low, high)
        )
    # Non-core rails regulate their nominal voltage within +-5%.
    nominal = spec.nominal_voltage
    return VoltageRegulator(
        v_set=nominal,
        band=(nominal * 0.95, nominal * 1.05),
        r_loadline=1.0e-3,
        k_quadratic=0.0,
    )


class Soc:
    """A simulated ARM-FPGA SoC evaluation board.

    Args:
        board: board name or :class:`BoardSpec` (default ZCU102 — the
            paper's experimental machine).
        seed: experiment seed; keys all sensor noise streams.
        noise_profiles: per-domain ambient noise overrides.
        hardening: optional :class:`repro.core.countermeasures.
            SensorHardening` policy applied to every exported reading
            (used by the mitigation benches).

    The sensors are the ZCU102's 18 INA226 devices (the VCK190's own
    map on that board); other boards reuse the ZCU102 map scaled to
    their sensor count, since per-board BOMs are not public.
    """

    def __init__(
        self,
        board="ZCU102",
        seed: Optional[int] = 0,
        noise_profiles: Dict[str, RailNoiseProfile] = None,
        hardening=None,
    ):
        if isinstance(board, str):
            board = get_board(board)
        self.board = board
        self.seed = seed
        self.hardening = hardening
        profiles = dict(DEFAULT_NOISE_PROFILES)
        if noise_profiles:
            profiles.update(noise_profiles)

        if board.name == "VCK190":
            from repro.boards.versal import VCK190_SENSORS

            sensors = sensor_map_for(board.ina226_count, base=VCK190_SENSORS)
        else:
            sensors = sensor_map_for(board.ina226_count)
        self.sensor_specs: List[SensorSpec] = list(sensors)

        self.fabric = Fabric(board)
        self.rails: Dict[str, PowerRail] = {}
        self.hwmon = HwmonTree()
        self._device_by_designator: Dict[str, HwmonDevice] = {}

        for index, spec in enumerate(self.sensor_specs):
            profile = profiles.get(spec.domain, profiles["aux"])
            regulator = _regulator_for(spec, board)
            rail = PowerRail(
                spec.rail,
                regulator=regulator,
                idle_power=spec.idle_current * regulator.v_set,
                noise_power_sigma=profile.power_sigma,
                ripple_sigma=profile.ripple_sigma,
            )
            # One rail per sensor: on these boards every monitored rail
            # has exactly one INA226 (UG1182's PMBus chain).
            self.rails[spec.designator] = rail
            sensor = Ina226(shunt_ohms=spec.shunt_ohms, current_lsb=1e-3)
            device = HwmonDevice(
                index=index,
                name=f"ina226_{spec.designator}",
                sensor=sensor,
                rail=rail,
                seed=seed,
            )
            self.hwmon.register(device)
            self._device_by_designator[spec.designator] = device

    # ----------------------------------------------------------- rails

    def rail(self, key: str) -> PowerRail:
        """Look up a rail by designator (``"u79"``) or domain (``"fpga"``).

        Domain keys resolve through the board's sensitive-sensor map
        (Table II); designators address any of the 18 rails directly.
        """
        designator = SENSITIVE_SENSOR_MAP.get(key, key)
        try:
            return self.rails[designator]
        except KeyError:
            available = sorted(self.rails) + sorted(SENSITIVE_SENSOR_MAP)
            raise KeyError(
                f"unknown rail {key!r}; available: {', '.join(available)}"
            ) from None

    def device(self, key: str) -> HwmonDevice:
        """Look up an hwmon device by designator or domain key."""
        designator = SENSITIVE_SENSOR_MAP.get(key, key)
        try:
            return self._device_by_designator[designator]
        except KeyError:
            available = sorted(self._device_by_designator)
            raise KeyError(
                f"unknown sensor {key!r}; available: {', '.join(available)}"
            ) from None

    def attach_workload(
        self, domain: str, name: str, timeline: ActivityTimeline
    ) -> None:
        """Attach a named workload timeline to a domain's rail."""
        self.rail(domain).attach(name, timeline)

    def detach_workload(self, domain: str, name: str) -> None:
        """Detach a workload from a domain's rail."""
        self.rail(domain).detach(name)

    def replace_workload(
        self, domain: str, name: str, timeline: ActivityTimeline
    ) -> None:
        """Attach a workload, replacing any previous one of that name."""
        self.rail(domain).replace(name, timeline)

    # ---------------------------------------------------------- faults

    def arm_faults(self, plan) -> None:
        """Arm one :class:`repro.faults.FaultPlan` on every hwmon device.

        Each device derives its own fault key from the plan seed and
        its name, so devices fail independently but deterministically.
        ``None`` (or a no-op plan) disarms/changes nothing observable.
        """
        for device in self.hwmon.devices():
            device.arm_faults(plan)

    # -------------------------------------------------------- sampling

    def _gate(self, quantity: str, times, privileged: bool) -> np.ndarray:
        """Validate a quantity and gate its polls through any hardening.

        Returns the poll times the device serves (folded onto the
        policy's rate-limited grid, if it has one).
        """
        require_one_of(quantity, QUANTITY_ATTRS, "quantity")
        times = np.asarray(times, dtype=np.float64)
        if self.hardening is not None:
            self.hardening.check_access(privileged)
            times = self.hardening.effective_times(times)
        return times

    def _export(
        self, channel: Tuple[str, str], values: np.ndarray, times: np.ndarray
    ) -> np.ndarray:
        """The values the hardening policy lets through for one channel."""
        if self.hardening is None:
            return values
        domain, quantity = channel
        return self.hardening.transform(values, times, f"{domain}-{quantity}")

    def sample(
        self,
        domain: str,
        quantity: str,
        times: np.ndarray,
        privileged: bool = False,
    ) -> np.ndarray:
        """Poll one sensor channel at each time (integer hwmon units).

        ``quantity`` is one of ``"current"`` (mA), ``"voltage"`` (mV),
        ``"power"`` (uW) — exactly what a read of the corresponding
        sysfs file returns.  When a hardening policy is attached, it
        gates access by ``privileged`` and filters the exported values.
        This is :meth:`sample_many` of one channel.
        """
        channel = (domain, quantity)
        return self.sample_many([channel], times, privileged)[channel]

    def sample_faulted(
        self,
        domain: str,
        quantity: str,
        times: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Poll one channel with per-sample fault annotations.

        The resilient counterpart of :meth:`sample`, as an unprivileged
        reader: returns ``(values, transient, gone)`` from
        :meth:`repro.sensors.hwmon.HwmonDevice.read_series_faulted`
        with any hardening policy applied to the values, never raising
        for scheduled faults.
        """
        times = self._gate(quantity, times, privileged=False)
        values, transient, gone = self.device(domain).read_series_faulted(
            QUANTITY_ATTRS[quantity], times
        )
        return self._export((domain, quantity), values, times), transient, gone

    def sample_many(
        self,
        channels: Iterable[Tuple[str, str]],
        times,
        privileged: bool = False,
    ) -> Dict[Tuple[str, str], np.ndarray]:
        """Poll several channels, converting each sensor only once.

        ``channels`` is an iterable of ``(domain, quantity)`` pairs;
        ``times`` is either one timestamp array shared by every channel
        or a mapping from channel to its own poll times (concurrent
        polling threads each have their own jittered clock).  Channels
        that share a physical sensor — e.g. the FPGA rail's current,
        voltage and power — are served from a single conversion pass
        over the union of their latch windows, so one victim run's rail
        activity is evaluated once rather than per channel.  A failed
        poll raises as the naive loop's first failing read would.
        """
        channels = [tuple(channel) for channel in channels]
        if len(set(channels)) != len(channels):
            raise ValueError("duplicate channels in sample_many")
        polls = {
            channel: self._gate(
                channel[1],
                times[channel] if isinstance(times, dict) else times,
                privileged,
            )
            for channel in channels
        }
        # Group channels by physical device; one batched read each.
        by_device: Dict[HwmonDevice, List[Tuple[str, str]]] = {}
        for channel in channels:
            by_device.setdefault(self.device(channel[0]), []).append(channel)
        values: Dict[Tuple[str, str], np.ndarray] = {}
        for device, device_channels in by_device.items():
            requests = [
                (QUANTITY_ATTRS[quantity], polls[(domain, quantity)])
                for domain, quantity in device_channels
            ]
            series = device.read_series_batch(requests)
            for channel, channel_values in zip(device_channels, series):
                values[channel] = self._export(
                    channel, channel_values, polls[channel]
                )
        return values

    def sysfs_path(self, domain: str, quantity: str) -> str:
        """The sysfs file an attacker would poll for this channel."""
        require_one_of(quantity, QUANTITY_ATTRS, "quantity")
        device = self.device(domain)
        return f"{device.path}/{QUANTITY_ATTRS[quantity]}"

    def sensitive_channels(self) -> List[Tuple[str, str]]:
        """The paper's Table II channels: (domain, designator) pairs."""
        return [
            (domain, designator)
            for domain, designator in SENSITIVE_SENSOR_MAP.items()
            if designator in self._device_by_designator
        ]

    def __repr__(self) -> str:
        return (
            f"Soc({self.board.name}, {len(self.sensor_specs)} INA226 "
            f"sensors, seed={self.seed})"
        )
