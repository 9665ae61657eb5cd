"""Characterization sweep: Fig 2 of the paper.

The experiment: deploy 160 k power-virus instances (160 groups), then
activate 0..160 groups in turn.  At each of the 161 levels, record
``samples_per_level`` readings of the FPGA rail's current, voltage and
power through hwmon, and the same number of RO-counter samples from a
crafted-circuit baseline on the same rail.  Per-level means are then
correlated against the activation level.

Expected shape (paper): current and power correlate at ~0.999 with
~40 current-LSBs per level but only 1-2 power-LSBs; voltage correlates
at ~0.958 with sub-LSB movement; RO counts correlate at ~-0.996; and
the current channel's relative variation is ~261x the RO channel's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.analysis.stats import (
    linear_fit,
    lsb_per_step,
    pearson,
    variation_ratio,
)
from repro.fpga.power_virus import PowerVirusArray
from repro.fpga.ring_osc import RoSensorBank
from repro.soc.workload import ConstantActivity
from repro.utils.rng import RngLike, spawn
from repro.utils.validation import require_int_in_range

#: hwmon channel LSBs in reported units (mA, mV, uW) plus RO counts.
CHANNEL_LSBS: Dict[str, float] = {
    "current": 1.0,  # 1 mA
    "voltage": 1.25,  # 1.25 mV reported on a 1 mV integer grid
    "power": 25_000.0,  # 25 mW in uW
    "ro": 1.0,  # one counter increment
}


@dataclass(frozen=True)
class ChannelSweep:
    """Per-level mean readings of one channel over the sweep."""

    name: str
    lsb: float
    means: np.ndarray

    @property
    def pearson(self) -> float:
        """Correlation of per-level means with the activation level."""
        return pearson(np.arange(self.means.size), self.means)

    @property
    def lsb_step(self) -> float:
        """Mean reading change per level, in channel LSBs."""
        return lsb_per_step(self.means, self.lsb)

    @property
    def slope(self) -> float:
        """Fitted reading change per level, in channel units."""
        return linear_fit(np.arange(self.means.size), self.means).slope


@dataclass(frozen=True)
class CharacterizationResult:
    """Everything Fig 2 plots, plus the §I variation-ratio headline."""

    levels: np.ndarray
    current: ChannelSweep
    voltage: ChannelSweep
    power: ChannelSweep
    ro: ChannelSweep

    @property
    def current_vs_ro_variation(self) -> float:
        """The paper's 261x figure: current variation over RO variation."""
        return variation_ratio(self.current.means, self.ro.means)

    def summary(self) -> Dict[str, Tuple[float, float]]:
        """(pearson, lsb_step) per channel — the Fig 2 table."""
        return {
            sweep.name: (sweep.pearson, sweep.lsb_step)
            for sweep in (self.current, self.voltage, self.power, self.ro)
        }


def characterize(
    session=None,
    virus: Optional[PowerVirusArray] = None,
    samples_per_level: int = 10_000,
    levels: Optional[np.ndarray] = None,
    seed: RngLike = 0,
) -> CharacterizationResult:
    """Run the Fig 2 sweep and aggregate per-level statistics.

    The crafted-circuit baseline is the default distributed Zhao & Suh
    :class:`~repro.fpga.ring_osc.RoSensorBank`.

    Args:
        session: the attacker's foothold; its SoC is the platform under
            test and its seed keys the hwmon noise (default: a fresh
            :meth:`~repro.session.AttackSession.create`).
        virus: the activatable victim array (default: the paper's
            160 groups x 1 k instances).
        samples_per_level: hwmon/RO samples averaged per level
            (paper: 10 000; reduce for quick runs — the means converge
            long before that).
        levels: activation levels to visit (default 0..n_groups).
        seed: keys the power-virus and RO jitter streams.
    """
    samples_per_level = require_int_in_range(
        samples_per_level, 2, 10_000_000, "samples_per_level"
    )
    if session is None:
        from repro.session import AttackSession

        session = AttackSession.create()
    soc = session.soc
    if virus is None:
        virus = PowerVirusArray(seed=seed)
    ro_bank = RoSensorBank()
    if levels is None:
        levels = virus.sweep_levels()
    levels = np.asarray(levels, dtype=np.int64)

    # Both circuits co-reside on the fabric: the paper's exact setup.
    for spec in (virus.circuit_spec(), ro_bank.circuit_spec()):
        try:
            soc.fabric.deploy(spec)
        except Exception:
            pass  # already deployed by a previous sweep on this SoC

    rail = soc.rail("fpga")
    device = soc.device("fpga")
    period = device.update_period
    session = (samples_per_level + 8) * period
    ro_rng = spawn(seed, "characterize-ro")
    ro_window = ro_bank.sample_window

    means = {name: np.empty(levels.size) for name in CHANNEL_LSBS}
    channels = [("fpga", quantity) for quantity in ("current", "voltage", "power")]

    # The RO bank itself burns constant power on the rail (its loops
    # toggle continuously); it shifts the floor but not the slopes.
    soc.replace_workload(
        "fpga", "ro-bank", ConstantActivity(0.05)
    )

    for position, level in enumerate(levels):
        virus.set_active_groups(int(level))
        start = position * session + period
        soc.replace_workload("fpga", "power-virus", virus.timeline())

        # One INA226 latch serves all three sysfs files: one pass.
        poll_times = start + np.arange(samples_per_level) * period
        polled = soc.sample_many(channels, poll_times)
        for (_, quantity), values in polled.items():
            means[quantity][position] = values.mean()

        # The RO samples its counter at 2 MHz from the same rail; the
        # rail voltage it sees carries the regulator droop + ripple.
        ro_times = start + np.arange(samples_per_level) * ro_window
        _, rail_volts = rail.window_state(
            ro_times,
            ro_times + ro_window,
            ripple=rail.ripple_sigma
            * ro_rng.standard_normal(samples_per_level),
        )
        means["ro"][position] = ro_bank.counts(rail_volts, rng=ro_rng).mean()

    soc.detach_workload("fpga", "power-virus")
    soc.detach_workload("fpga", "ro-bank")

    return CharacterizationResult(
        levels=levels,
        **{
            name: ChannelSweep(name, lsb, means[name])
            for name, lsb in CHANNEL_LSBS.items()
        },
    )
