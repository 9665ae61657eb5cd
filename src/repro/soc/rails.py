"""Power rails: regulated supplies that workloads draw from.

A :class:`PowerRail` aggregates the activity timelines attached to it
(victim circuits, accelerator phases, idle draw), and converts window-
averaged *power* into the *current* and *voltage* an INA226 on that
rail would see:

* the regulator pins the voltage to its band, leaving only load-line
  droop (plus switching ripple);
* the current follows ``I = P / V`` — since V is nearly constant, the
  rail current tracks workload power essentially one-for-one.  This is
  the physical core of AmpereBleed.

Rails also carry a broadband *ambient power noise* term: unmodeled
background activity (clock tree, adjacent logic, temperature drift)
that every conversion window integrates.
"""

from __future__ import annotations

from typing import Dict, Tuple, Union

import numpy as np

from repro.fpga.pdn import VoltageRegulator
from repro.soc.workload import ActivityTimeline, CompositeActivity, ConstantActivity
from repro.utils.validation import require_non_negative


class PowerRail:
    """One monitored supply rail of the SoC.

    Args:
        name: rail name (e.g. ``"VCCINT"``).
        regulator: the point-of-load regulator holding this rail.
        idle_power: constant board/SoC draw on this rail in watts
            (clock trees, configuration logic, OS background on CPU
            rails) — present even with no workload attached.
        noise_power_sigma: RMS of the ambient power noise integrated by
            one conversion window, in watts.
        ripple_sigma: RMS regulator switching ripple seen by one
            conversion window, in volts.
    """

    def __init__(
        self,
        name: str,
        regulator: VoltageRegulator = None,
        idle_power: float = 0.0,
        noise_power_sigma: float = 0.0,
        ripple_sigma: float = 0.0,
    ):
        self.name = str(name)
        self.regulator = regulator if regulator is not None else VoltageRegulator()
        self._idle_power = require_non_negative(idle_power, "idle_power")
        self.noise_power_sigma = require_non_negative(
            noise_power_sigma, "noise_power_sigma"
        )
        self.ripple_sigma = require_non_negative(ripple_sigma, "ripple_sigma")
        self._workloads: Dict[str, ActivityTimeline] = {}
        self._compose()

    @property
    def idle_power(self) -> float:
        """Constant draw with no workload attached, watts."""
        return self._idle_power

    def _compose(self) -> None:
        """Rebuild the cached total timeline after the workloads change."""
        components = [ConstantActivity(self._idle_power)]
        components.extend(self._workloads.values())
        self._timeline = (
            components[0] if len(components) == 1 else CompositeActivity(components)
        )

    def attach(self, name: str, timeline: ActivityTimeline) -> None:
        """Attach a named workload timeline to this rail."""
        if name in self._workloads:
            raise ValueError(f"workload {name!r} already attached to {self.name}")
        if not isinstance(timeline, ActivityTimeline):
            raise TypeError("timeline must be an ActivityTimeline")
        self._workloads[name] = timeline
        self._compose()

    def detach(self, name: str) -> None:
        """Remove a previously attached workload."""
        if name not in self._workloads:
            raise KeyError(f"workload {name!r} not attached to {self.name}")
        del self._workloads[name]
        self._compose()

    def replace(self, name: str, timeline: ActivityTimeline) -> None:
        """Attach, replacing any existing workload of the same name."""
        if not isinstance(timeline, ActivityTimeline):
            raise TypeError("timeline must be an ActivityTimeline")
        self._workloads.pop(name, None)
        self.attach(name, timeline)

    def timeline(self) -> ActivityTimeline:
        """The rail's total power timeline (idle + all workloads).

        Built once per change of the attached workloads, so conversion
        batches reuse one composite instead of flattening it each time.
        """
        return self._timeline

    def mean_power(self, t0: np.ndarray, t1: np.ndarray) -> np.ndarray:
        """True mean power over each window [t0, t1], noise-free."""
        return self.timeline().window_mean(t0, t1)

    def window_state(
        self,
        t0: np.ndarray,
        t1: np.ndarray,
        power_noise: Union[np.ndarray, float] = 0.0,
        ripple: Union[np.ndarray, float] = 0.0,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Rail (current, voltage) averaged over each window.

        ``power_noise`` and ``ripple`` are pre-drawn noise values (in
        watts and volts respectively); the caller owns the noise
        streams so readings can be made a pure function of the
        conversion index (see :mod:`repro.utils.hashrand`).

        The operating point solves ``V = reg(I)`` with ``I = P / V`` by
        fixed-point iteration; two rounds are ample since droop is
        three orders of magnitude below the setpoint.
        """
        power = self.mean_power(t0, t1) + np.asarray(power_noise, dtype=np.float64)
        power = np.maximum(power, 0.0)
        voltage = np.full_like(power, self.regulator.v_set)
        for _ in range(2):
            current = power / voltage
            voltage = self.regulator.voltage(current, ripple=0.0)
        voltage = self.regulator.voltage(current, ripple=ripple)
        current = power / voltage
        return current, voltage

    def __repr__(self) -> str:
        return (
            f"PowerRail({self.name!r}, idle={self.idle_power:.3g} W, "
            f"{len(self._workloads)} workloads)"
        )
