"""Ring-oscillator voltage sensor: the crafted-circuit baseline.

Prior remote power side-channel attacks (Zhao & Suh, S&P'18) instantiate
ring oscillators on the victim FPGA: a combinational loop whose
oscillation frequency tracks the supply voltage (gate delay falls as
overdrive rises), feeding a counter that is sampled at a fixed interval.
Victim switching activity drops the shared-PDN voltage, which shows up
as *fewer counts per window* — hence the strongly negative correlation
with victim activity (-0.996 in Fig 2).

On a stabilized rail, the only voltage signal the RO can see is the
regulator's millivolt-scale load line, so its relative variation is
tiny; AmpereBleed's current readings vary ~261x more over the same
sweep.  This module provides the RO model used for that comparison.
"""

from __future__ import annotations

import numpy as np

from repro.fpga.fabric import CircuitSpec
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import (
    require_int_in_range,
    require_non_negative,
    require_positive,
)


class RingOscillator:
    """A single RO: frequency as a (linearized) function of voltage.

    Around the operating point ``v_ref`` the oscillation frequency is::

        f(V) = f_nominal * (1 + sensitivity * (V - v_ref) / v_ref)

    Args:
        f_nominal: oscillation frequency at ``v_ref`` in hertz.  A
            5-stage LUT loop on UltraScale+ runs in the hundreds of MHz.
        v_ref: reference voltage in volts.
        sensitivity: dimensionless voltage-to-frequency gain.  CMOS gate
            delay near nominal voltage gives a gain of roughly 1-2; the
            default is calibrated so the Fig 2 sweep lands at the
            paper's ~261x current-vs-RO variation ratio.
        n_stages: inverter stages (odd), kept for realism/reporting.
    """

    def __init__(
        self,
        f_nominal: float = 380e6,
        v_ref: float = 0.8505,
        sensitivity: float = 1.41,
        n_stages: int = 5,
    ):
        self.f_nominal = require_positive(f_nominal, "f_nominal")
        self.v_ref = require_positive(v_ref, "v_ref")
        self.sensitivity = require_non_negative(sensitivity, "sensitivity")
        self.n_stages = require_int_in_range(n_stages, 1, 1001, "n_stages")
        if self.n_stages % 2 == 0:
            raise ValueError("a ring oscillator needs an odd stage count")

    def frequency(self, voltage: np.ndarray) -> np.ndarray:
        """Oscillation frequency in hertz at each supply voltage."""
        voltage = np.asarray(voltage, dtype=np.float64)
        if np.any(voltage <= 0):
            raise ValueError("supply voltage must be > 0")
        delta = (voltage - self.v_ref) / self.v_ref
        return self.f_nominal * (1.0 + self.sensitivity * delta)


class RoSensorBank:
    """Distributed RO sensors with counter sampling (Zhao & Suh style).

    The attacker increments a counter from the RO output and samples it
    at a fixed interval; the per-window increment is the observation.

    Args:
        oscillator: the RO cell model (shared by all instances).
        n_instances: ROs spread across the fabric; their counts are
            averaged, mirroring the paper's spatially-distributed
            deployment.
        sample_window: counter sampling interval in seconds.  Zhao &
            Suh sample at 2 MHz, i.e. a 0.5 us window.
        jitter_counts: RMS phase/sampling jitter in counts per window.
    """

    def __init__(
        self,
        oscillator: RingOscillator = None,
        n_instances: int = 32,
        sample_window: float = 0.5e-6,
        jitter_counts: float = 0.7,
    ):
        self.oscillator = oscillator if oscillator is not None else RingOscillator()
        self.n_instances = require_int_in_range(
            n_instances, 1, 100_000, "n_instances"
        )
        self.sample_window = require_positive(sample_window, "sample_window")
        self.jitter_counts = require_non_negative(jitter_counts, "jitter_counts")

    def counts(self, voltage: np.ndarray, rng: RngLike = None) -> np.ndarray:
        """Sampled counter increments for each supply-voltage value.

        Each reading is the bank average of ``n_instances`` ROs, each
        with independent phase jitter, floored to the counter's integer
        grid (the average of integers is reported at 1/n resolution,
        matching how the attack software post-processes the bank).
        """
        generator = ensure_rng(rng)
        voltage = np.atleast_1d(np.asarray(voltage, dtype=np.float64))
        expected = self.oscillator.frequency(voltage) * self.sample_window
        # One array, updated in place: IEEE add and multiply commute, so
        # this equals floor(expected + noise * jitter) bit for bit.
        per_ro = generator.standard_normal((self.n_instances,) + expected.shape)
        per_ro *= self.jitter_counts
        per_ro += expected
        np.floor(per_ro, out=per_ro)
        return per_ro.mean(axis=0)

    def circuit_spec(self) -> CircuitSpec:
        """Fabric deployment spec: loop LUTs plus a 32-bit counter each.

        The RO itself burns power (it toggles continuously at f_nominal)
        — one reason cloud providers ban them — but its draw is constant
        and victim-independent, so it contributes only to the static
        floor in the sweep.
        """
        luts_per_ro = self.oscillator.n_stages + 8  # loop + sampling logic
        ffs_per_ro = 32  # the counter
        return CircuitSpec(
            name="ro-sensor-bank",
            utilization={
                "lut": self.n_instances * luts_per_ro,
                "ff": self.n_instances * ffs_per_ro,
            },
            activity={"lut": 1.0, "ff": 0.5},
        )
