"""Time-to-digital converter (TDC) voltage sensor: second baseline.

Besides ring oscillators, prior remote power-analysis work builds
delay-line sensors: a signal edge races down a carry chain each clock
cycle and the number of taps it traverses before the capture flop
fires encodes the instantaneous supply voltage (higher voltage ->
faster gates -> more taps).  The paper's related work cites several
such designs (RDS routing-delay sensors, 1LUTSensor, PPWM); this
module provides a representative TDC so the Fig 2-style comparison can
cover the whole crafted-sensor family, not just ROs.

On a stabilized rail the TDC suffers the same blindness as the RO —
millivolts of droop move the tap point by a fraction of a tap — while
its *single-cycle* sampling makes it the strongest crafted baseline
for transient detection.  That contrast (fine in time, coarse in
amplitude) is what the crafted-sensor ablation bench quantifies.
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


class TdcSensor:
    """A carry-chain delay-line voltage sensor.

    The tap count observed each sample is::

        taps(V) = taps_nominal * (1 + sensitivity * (V - v_ref) / v_ref)

    floored to the integer tap grid, plus per-sample jitter from clock
    and routing noise.

    Args:
        n_taps: physical taps in the delay line (carry-chain length).
        taps_nominal: taps traversed at the reference voltage; leaving
            headroom below ``n_taps`` keeps the line from clipping.
        v_ref: calibration voltage.
        sensitivity: dimensionless voltage-to-delay gain (CMOS gate
            delay near nominal gives ~1-2, like the RO's).
        jitter_taps: RMS sampling jitter in taps.
    """

    #: Sampling clock in hertz — one reading per cycle, which is what
    #: makes TDCs the high-bandwidth crafted sensor.
    CLOCK_HZ = 300e6

    def __init__(
        self,
        n_taps: int = 64,
        taps_nominal: float = 32.0,
        v_ref: float = 0.8505,
        sensitivity: float = 1.45,
        jitter_taps: float = 0.6,
    ):
        self.n_taps = require_int_in_range(n_taps, 2, 4096, "n_taps")
        self.taps_nominal = require_positive(taps_nominal, "taps_nominal")
        if taps_nominal >= n_taps:
            raise ValueError("taps_nominal must leave headroom below n_taps")
        self.v_ref = require_positive(v_ref, "v_ref")
        self.sensitivity = require_non_negative(sensitivity, "sensitivity")
        self.jitter_taps = require_non_negative(jitter_taps, "jitter_taps")

    def expected_taps(self, voltage: np.ndarray) -> np.ndarray:
        """Noise-free tap position for each supply voltage."""
        voltage = np.asarray(voltage, dtype=np.float64)
        if np.any(voltage <= 0):
            raise ValueError("supply voltage must be > 0")
        delta = (voltage - self.v_ref) / self.v_ref
        return self.taps_nominal * (1.0 + self.sensitivity * delta)

    def counts(self, voltage: np.ndarray, rng: RngLike = None) -> np.ndarray:
        """Sampled integer tap counts, clipped to the physical line."""
        generator = ensure_rng(rng)
        expected = self.expected_taps(np.atleast_1d(voltage))
        noisy = expected + self.jitter_taps * generator.standard_normal(
            expected.shape
        )
        return np.clip(np.floor(noisy), 0, self.n_taps - 1)

    def circuit_spec(self) -> CircuitSpec:
        """Fabric deployment spec: the carry chain + capture flops.

        Carry chains map to dedicated CARRY8 resources, modeled here as
        one LUT per tap plus a capture flip-flop per tap.
        """
        return CircuitSpec(
            name="tdc-sensor",
            utilization={"lut": self.n_taps, "ff": self.n_taps + 32},
            activity={"lut": 1.0, "ff": 0.5},
        )

    def __repr__(self) -> str:
        return (
            f"TdcSensor({self.n_taps} taps, nominal={self.taps_nominal}, "
            f"clock={self.CLOCK_HZ / 1e6:.0f} MHz)"
        )
