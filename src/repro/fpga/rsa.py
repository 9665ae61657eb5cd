"""RSA-1024 victim circuit: square-and-multiply engine at 100 MHz.

Follows the paper's victim (§IV-C, after Zhao & Suh): two dedicated
modular-multiplication modules and a state machine that iterates over
each bit of the 1024-bit exponent, LSB first.  Every iteration activates
the *square* module; iterations whose exponent bit is 1 additionally
activate the *multiply* module, doubling the switching activity for
that iteration.  Both multipliers finish within the same (fixed) cycle
count, so the iteration cadence is data-independent — only the *power*
per iteration leaks the bit.

The secret exponent is embedded in the (encrypted) bitstream: once
deployed it cannot be read back even by privileged software, which is
why recovering its Hamming weight from the current trace matters.

The circuit exposes a periodic power :class:`ActivityTimeline` for
the sensor substrate: one iteration per exponent bit, LSB first, with
the multiply module active on the set bits.
"""

from __future__ import annotations

import numpy as np

from repro.crypto.rsa_math import RSA_BITS, exponent_bits_lsb_first
from repro.fpga.fabric import CircuitSpec
from repro.soc.workload import ActivityTimeline, PiecewiseActivity
from repro.utils.validation import (
    require_int_in_range,
    require_positive,
)


class RsaCircuit:
    """The FPGA RSA-1024 engine as a power-producing victim.

    Args:
        exponent: the secret exponent (1 <= e < 2^width).  The
            modulus is not modelled: the leak depends only on the
            exponent's bit pattern.
        width: exponent register width in bits (1024 in the paper).
        clock_hz: circuit clock (the paper runs it at 100 MHz, 5x the
            20 MHz of Zhao & Suh's victim).
        cycles_per_iteration: cycles each square/multiply iteration
            takes; both modules are synchronized to this latency.
    """

    #: Dynamic power in watts while the square module runs (every
    #: iteration).
    P_SQUARE = 0.110
    #: Additional dynamic power while the multiply module runs
    #: (iterations with exponent bit 1).  It sets the
    #: per-64-Hamming-weight current step of Fig 4 (~7 mA at 0.85 V —
    #: every key distinguishable in current, ~5 groups in 25 mW-LSB
    #: power).
    P_MULTIPLY = 0.100
    #: Static + control-logic power of the deployed circuit.
    P_IDLE = 0.020

    def __init__(
        self,
        exponent: int,
        width: int = RSA_BITS,
        clock_hz: float = 100e6,
        cycles_per_iteration: int = 1056,
    ):
        if exponent <= 0:
            raise ValueError("the circuit does not support a zero exponent")
        self.width = require_int_in_range(width, 8, 65536, "width")
        if exponent.bit_length() > self.width:
            raise ValueError(
                f"exponent needs {exponent.bit_length()} bits, "
                f"register is {self.width}"
            )
        self.exponent = int(exponent)
        self.clock_hz = require_positive(clock_hz, "clock_hz")
        self.cycles_per_iteration = require_int_in_range(
            cycles_per_iteration, 1, 1_000_000, "cycles_per_iteration"
        )
        self._bits = exponent_bits_lsb_first(self.exponent, self.width)

    @property
    def iteration_seconds(self) -> float:
        """Wall time of one square(-and-multiply) iteration."""
        return self.cycles_per_iteration / self.clock_hz

    @property
    def exponentiation_seconds(self) -> float:
        """Wall time of one full modular exponentiation."""
        return self.width * self.iteration_seconds

    @property
    def hamming_weight(self) -> int:
        """Set bits in the exponent — the leaked quantity."""
        return sum(self._bits)

    @property
    def mean_power(self) -> float:
        """Long-run average power in watts while looping encryptions.

        ``P_IDLE + P_SQUARE + (HW/width) * P_MULTIPLY`` — linear in the
        Hamming weight, which is why window-averaged current separates
        the 17 keys in Fig 4.
        """
        duty = self.hamming_weight / self.width
        return self.P_IDLE + self.P_SQUARE + duty * self.P_MULTIPLY

    def timeline(self, start: float = 0.0) -> ActivityTimeline:
        """Periodic power profile of back-to-back exponentiations.

        One period spans ``width`` iterations; iteration ``i`` draws
        ``P_IDLE + P_SQUARE`` plus ``P_MULTIPLY`` when exponent bit ``i``
        (LSB-first) is set.  The plaintext value does not enter the
        profile: the multipliers are constant-latency, so data only
        modulates power at a level far below the modeled module-grained
        switching (absorbed by sensor noise downstream).
        """
        iteration = self.iteration_seconds
        edges = start + iteration * np.arange(self.width + 1)
        powers = np.array(
            [
                self.P_IDLE + self.P_SQUARE + bit * self.P_MULTIPLY
                for bit in self._bits
            ],
            dtype=np.float64,
        )
        return PiecewiseActivity(
            edges, powers, period=self.exponentiation_seconds
        )

    def circuit_spec(self) -> CircuitSpec:
        """Fabric deployment spec for the engine.

        Two 1024-bit modular multipliers dominate: each is roughly 18 k
        LUTs / 20 k FFs / 32 DSP blocks on UltraScale+-class fabric,
        plus the state machine and exponent register.
        """
        return CircuitSpec(
            name="rsa-1024",
            utilization={
                "lut": 2 * 18_000 + 1_500,
                "ff": 2 * 20_000 + self.width,
                "dsp": 2 * 32,
                "bram": 8,
            },
            activity={"lut": 0.25, "ff": 0.25, "dsp": 0.6, "bram": 0.1},
        )

    def __repr__(self) -> str:
        return (
            f"RsaCircuit(width={self.width}, HW={self.hamming_weight}, "
            f"clock={self.clock_hz / 1e6:.0f} MHz)"
        )
