"""Power-virus array: the variable-load victim of the Fig 2 sweep.

The paper deploys 160 k power-virus instances (in the style of Gnad et
al., FPL'17 — LUT/FF toggle cells with deliberately long, high-fanout
routing) across the whole ZCU102 fabric, split into 160 groups of 1 k
evenly-distributed instances.  Activating 0..160 groups from the ARM
side steps the FPGA's power draw through 161 distinct levels.

Two second-order effects from the paper are modeled explicitly:

* **Static floor** — "current measurements do not start from 0 ... due
  to the static workloads caused by inactivated but deployed power
  virus instances" (§IV-A).  Every deployed instance leaks.
* **Group heterogeneity** — each group's instances land on different
  routing, so per-group dynamic power varies by a few percent.  The
  cumulative activation curve therefore deviates slightly from a
  perfect line, which is why the measured Pearson correlation is 0.999
  rather than 1.0.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.fpga.fabric import CircuitSpec
from repro.soc.workload import ActivityTimeline, ConstantActivity
from repro.utils.rng import RngLike, spawn
from repro.utils.validation import (
    require_int_in_range,
    require_non_negative,
    require_positive,
)


class PowerVirusArray:
    """A bank of power-virus instances activatable group by group.

    Args:
        n_groups: number of independently activatable groups, each of
            :data:`INSTANCES_PER_GROUP` virus instances.
        dynamic_power_per_instance: watts drawn by one *active* instance.
            The default 35 uW reflects a Gnad-style routing-heavy toggle
            cell at 300 MHz / 0.85 V and reproduces the ~40 mA-per-group
            current step of Fig 2.
        static_power_per_instance: leakage watts of one *deployed*
            instance (active or not); sets the Fig 2 current floor.
        group_power_spread: relative standard deviation of per-group
            dynamic power (placement/routing heterogeneity).
        seed: RNG seed for the per-group heterogeneity draw.
    """

    #: Virus instances per group (paper: 1000).
    INSTANCES_PER_GROUP = 1000

    def __init__(
        self,
        n_groups: int = 160,
        dynamic_power_per_instance: float = 35e-6,
        static_power_per_instance: float = 3.4e-6,
        group_power_spread: float = 0.03,
        seed: RngLike = None,
    ):
        self.n_groups = require_int_in_range(n_groups, 1, 100_000, "n_groups")
        self.dynamic_power_per_instance = require_positive(
            dynamic_power_per_instance, "dynamic_power_per_instance"
        )
        self.static_power_per_instance = require_non_negative(
            static_power_per_instance, "static_power_per_instance"
        )
        require_non_negative(group_power_spread, "group_power_spread")
        rng = spawn(seed, "power-virus-groups")
        nominal = self.INSTANCES_PER_GROUP * self.dynamic_power_per_instance
        # Per-group dynamic power with placement heterogeneity; clipped
        # so a pathological draw can never go non-positive.
        factors = 1.0 + group_power_spread * rng.standard_normal(self.n_groups)
        self.group_dynamic_power = nominal * np.clip(factors, 0.1, None)
        self._active_groups = 0

    @property
    def n_instances(self) -> int:
        """Total deployed instances (paper: 160 000)."""
        return self.n_groups * self.INSTANCES_PER_GROUP

    @property
    def static_power(self) -> float:
        """Leakage of the whole deployed array in watts."""
        return self.n_instances * self.static_power_per_instance

    def set_active_groups(self, count: int) -> None:
        """Activate the first ``count`` groups (the paper's sweep order)."""
        self._active_groups = require_int_in_range(
            count, 0, self.n_groups, "count"
        )

    def dynamic_power_at_level(self, level: Optional[int] = None) -> float:
        """Dynamic power in watts with ``level`` groups active.

        Defaults to the currently set activation level.
        """
        if level is None:
            level = self._active_groups
        level = require_int_in_range(level, 0, self.n_groups, "level")
        return float(np.sum(self.group_dynamic_power[:level]))

    def total_power_at_level(self, level: Optional[int] = None) -> float:
        """Static + dynamic power in watts at an activation level."""
        return self.static_power + self.dynamic_power_at_level(level)

    def timeline(self, level: Optional[int] = None) -> ActivityTimeline:
        """Constant-power activity timeline at an activation level.

        The virus toggles at the fabric clock (300 MHz), ~7 orders of
        magnitude faster than the INA226's conversion window, so its
        power is constant at the sensor's time scale.
        """
        return ConstantActivity(self.total_power_at_level(level))

    def circuit_spec(self) -> CircuitSpec:
        """Fabric deployment spec: one LUT/FF toggle cell per instance."""
        return CircuitSpec(
            name="power-virus-array",
            utilization={"lut": self.n_instances, "ff": self.n_instances},
            activity={"lut": 1.0, "ff": 1.0},
        )

    def sweep_levels(self) -> np.ndarray:
        """All activation levels 0..n_groups (161 levels in the paper)."""
        return np.arange(self.n_groups + 1)
