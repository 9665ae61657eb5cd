"""Register-level model of the TI INA226 current/voltage/power monitor.

The INA226 (TI datasheet SBOS547) measures the voltage across a shunt
resistor and the bus voltage, and derives current and power through a
user-programmed calibration register:

* shunt-voltage register: 2.5 uV LSB, 16-bit signed;
* bus-voltage register: 1.25 mV LSB, 15-bit unsigned;
* calibration: ``CAL = 0.00512 / (current_lsb * R_shunt)``;
* current register: ``(shunt_reg * CAL) / 2048``, value LSB =
  ``current_lsb`` (1 mA on the ZCU102, which is why hwmon's
  ``curr1_input`` moves in 1 mA steps);
* power register: ``(current_reg * bus_reg) / 20000``, value LSB =
  ``25 * current_lsb`` — the fixed 25x resolution ratio the paper
  exploits to explain why power readings truncate what current shows.

Each conversion integrates the inputs over a programmable conversion
time and averages a programmable number of conversions; the total
update period on the ZCU102's default configuration is ~35 ms, which
is also the fastest an unprivileged attacker can see fresh data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import (
    require_non_negative,
    require_positive,
)

#: Datasheet constants.
SHUNT_LSB_VOLTS = 2.5e-6
BUS_LSB_VOLTS = 1.25e-3
CALIBRATION_SCALE = 0.00512
POWER_LSB_RATIO = 25
SHUNT_REG_MIN, SHUNT_REG_MAX = -32768, 32767
BUS_REG_MIN, BUS_REG_MAX = 0, 32767

#: Valid conversion times in seconds (datasheet table 7-4).
CONVERSION_TIMES = (
    140e-6,
    204e-6,
    332e-6,
    588e-6,
    1.1e-3,
    2.116e-3,
    4.156e-3,
    8.244e-3,
)

#: Valid averaging counts (datasheet table 7-3).
AVERAGING_COUNTS = (1, 4, 16, 64, 128, 256, 512, 1024)


@dataclass(frozen=True)
class Ina226Config:
    """Conversion-time / averaging configuration.

    The defaults (1.1 ms per channel, 16 averages) give an update
    period of ``(1.1 + 1.1) ms * 16 = 35.2 ms`` — the ZCU102's stock
    hwmon ``update_interval`` of ~35 ms.
    """

    shunt_conversion_time: float = 1.1e-3
    bus_conversion_time: float = 1.1e-3
    averages: int = 16

    def __post_init__(self):
        if self.shunt_conversion_time not in CONVERSION_TIMES:
            raise ValueError(
                f"shunt conversion time {self.shunt_conversion_time} not in "
                f"{CONVERSION_TIMES}"
            )
        if self.bus_conversion_time not in CONVERSION_TIMES:
            raise ValueError(
                f"bus conversion time {self.bus_conversion_time} not in "
                f"{CONVERSION_TIMES}"
            )
        if self.averages not in AVERAGING_COUNTS:
            raise ValueError(
                f"averages {self.averages} not in {AVERAGING_COUNTS}"
            )

    @property
    def update_period(self) -> float:
        """Seconds between register updates (both channels, averaged)."""
        return (
            self.shunt_conversion_time + self.bus_conversion_time
        ) * self.averages

    @classmethod
    def for_update_period(cls, period_seconds: float) -> "Ina226Config":
        """Pick the config whose update period best matches a target.

        Mirrors what the Linux ina226 driver does when root writes
        ``update_interval``: it chooses the nearest supported averaging
        setting for the fixed default conversion time.
        """
        require_positive(period_seconds, "period_seconds")
        best = None
        best_error = float("inf")
        for conversion_time in CONVERSION_TIMES:
            for averages in AVERAGING_COUNTS:
                candidate = cls(
                    shunt_conversion_time=conversion_time,
                    bus_conversion_time=conversion_time,
                    averages=averages,
                )
                error = abs(candidate.update_period - period_seconds)
                if error < best_error:
                    best, best_error = candidate, error
        return best


@dataclass(frozen=True)
class Ina226Reading:
    """One conversion result, both as registers and engineering units."""

    shunt_register: np.ndarray
    bus_register: np.ndarray
    current_register: np.ndarray
    power_register: np.ndarray
    current_amps: np.ndarray
    bus_volts: np.ndarray
    power_watts: np.ndarray


class Ina226:
    """One INA226 instance wired to a shunt on a power rail.

    Args:
        shunt_ohms: shunt resistor value.
        current_lsb: desired current LSB in amps (1 mA on the ZCU102).
        config: conversion-time / averaging configuration.
        shunt_noise_volts: RMS input-referred noise of one shunt
            conversion (before averaging).  The datasheet's 10 uV p-p
            corresponds to ~2.5 uV RMS.
        bus_noise_volts: RMS input-referred noise of one bus conversion.
    """

    def __init__(
        self,
        shunt_ohms: float,
        current_lsb: float = 1e-3,
        config: Ina226Config = None,
        shunt_noise_volts: float = 2.5e-6,
        bus_noise_volts: float = 0.25e-3,
    ):
        self.shunt_ohms = require_positive(shunt_ohms, "shunt_ohms")
        self.current_lsb = require_positive(current_lsb, "current_lsb")
        self.config = config if config is not None else Ina226Config()
        self.shunt_noise_volts = require_non_negative(
            shunt_noise_volts, "shunt_noise_volts"
        )
        self.bus_noise_volts = require_non_negative(
            bus_noise_volts, "bus_noise_volts"
        )
        calibration = round(
            CALIBRATION_SCALE / (self.current_lsb * self.shunt_ohms)
        )
        if not (1 <= calibration <= 0x7FFF):
            raise ValueError(
                f"calibration {calibration} out of register range; "
                f"choose a different current_lsb/shunt combination"
            )
        self.calibration = int(calibration)

    @property
    def power_lsb(self) -> float:
        """Power register LSB in watts (fixed 25x the current LSB)."""
        return POWER_LSB_RATIO * self.current_lsb

    @property
    def update_period(self) -> float:
        """Seconds between fresh readings."""
        return self.config.update_period

    def convert(
        self,
        current_amps: np.ndarray,
        bus_volts: np.ndarray,
        rng: RngLike = None,
        shunt_noise: np.ndarray = None,
        bus_noise: np.ndarray = None,
    ) -> Ina226Reading:
        """Run conversions on true (window-averaged) rail conditions.

        ``current_amps`` / ``bus_volts`` are the physically true means
        over each conversion window; this method applies ADC noise
        (reduced by sqrt(averages)), register quantization, and the
        datasheet's current/power arithmetic.  Fully vectorized.

        ``shunt_noise`` / ``bus_noise`` optionally inject pre-drawn
        *standard-normal* noise (scaled internally by the configured
        sigmas); the hwmon layer uses this to make every conversion a
        pure function of its latch index.  When omitted, noise is drawn
        from ``rng``.
        """
        current_amps = np.atleast_1d(np.asarray(current_amps, dtype=np.float64))
        bus_volts = np.atleast_1d(np.asarray(bus_volts, dtype=np.float64))
        if current_amps.shape != bus_volts.shape:
            raise ValueError("current and bus arrays must have equal shapes")
        averaging_gain = np.sqrt(self.config.averages)
        shunt_sigma = self.shunt_noise_volts / averaging_gain
        bus_sigma = self.bus_noise_volts / averaging_gain
        if shunt_noise is None or bus_noise is None:
            generator = ensure_rng(rng)
            if shunt_noise is None:
                shunt_noise = generator.standard_normal(current_amps.shape)
            if bus_noise is None:
                bus_noise = generator.standard_normal(bus_volts.shape)

        shunt_volts = current_amps * self.shunt_ohms
        shunt_noisy = shunt_volts + shunt_sigma * np.asarray(
            shunt_noise, dtype=np.float64
        )
        shunt_register = np.clip(
            np.rint(shunt_noisy / SHUNT_LSB_VOLTS),
            SHUNT_REG_MIN,
            SHUNT_REG_MAX,
        ).astype(np.int64)

        bus_noisy = bus_volts + bus_sigma * np.asarray(bus_noise, dtype=np.float64)
        bus_register = np.clip(
            np.rint(bus_noisy / BUS_LSB_VOLTS), BUS_REG_MIN, BUS_REG_MAX
        ).astype(np.int64)

        # Datasheet equations 7-5 and 7-8 (integer register arithmetic).
        current_register = (shunt_register * self.calibration) // 2048
        power_register = (current_register * bus_register) // 20000

        return Ina226Reading(
            shunt_register=shunt_register,
            bus_register=bus_register,
            current_register=current_register,
            power_register=power_register,
            current_amps=current_register * self.current_lsb,
            bus_volts=bus_register * BUS_LSB_VOLTS,
            power_watts=power_register * self.power_lsb,
        )

    def __repr__(self) -> str:
        return (
            f"Ina226(shunt={self.shunt_ohms * 1e3:.3g} mOhm, "
            f"current_lsb={self.current_lsb * 1e3:.3g} mA, "
            f"update={self.update_period * 1e3:.3g} ms)"
        )
