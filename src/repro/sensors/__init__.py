"""Sensor substrate: register-level INA226 and the hwmon sysfs tree."""

from repro.sensors.hwmon import (
    MAX_UPDATE_INTERVAL_MS,
    MIN_UPDATE_INTERVAL_MS,
    HwmonDevice,
    HwmonError,
    HwmonLookupError,
    HwmonPermissionError,
    HwmonTransientError,
    HwmonTree,
    HwmonValueError,
)
from repro.sensors.ina226 import (
    AVERAGING_COUNTS,
    BUS_LSB_VOLTS,
    CONVERSION_TIMES,
    POWER_LSB_RATIO,
    SHUNT_LSB_VOLTS,
    Ina226,
    Ina226Config,
    Ina226Reading,
)

__all__ = [
    "MAX_UPDATE_INTERVAL_MS",
    "MIN_UPDATE_INTERVAL_MS",
    "HwmonDevice",
    "HwmonError",
    "HwmonLookupError",
    "HwmonPermissionError",
    "HwmonTransientError",
    "HwmonTree",
    "HwmonValueError",
    "AVERAGING_COUNTS",
    "BUS_LSB_VOLTS",
    "CONVERSION_TIMES",
    "POWER_LSB_RATIO",
    "SHUNT_LSB_VOLTS",
    "Ina226",
    "Ina226Config",
    "Ina226Reading",
]
