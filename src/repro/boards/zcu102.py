"""ZCU102 power-rail and INA226 sensor map.

The ZCU102 evaluation board (UG1182) instruments 18 power rails with
INA226 monitors on the PMBus/I2C power-management bus.  The Linux hwmon
subsystem exposes each of them as an ``ina226_uXX`` device with
unprivileged-readable ``curr1_input`` / ``in1_input`` / ``power1_input``
attributes.  Table II of the paper highlights the four sensors whose
readings leak victim activity:

========== =============================================================
ina226_u76 full-power domain (FPD) of the ARM processor cores
ina226_u77 low-power domain (LPD) of the ARM processor cores
ina226_u79 FPGA programmable logic (VCCINT)
ina226_u93 DDR memory
========== =============================================================

The remaining 14 rails are auxiliary/IO/transceiver supplies; they are
modeled too so that enumeration through the simulated hwmon tree looks
like the real board.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List


@dataclass(frozen=True)
class SensorSpec:
    """Static description of one INA226 instance on a board.

    Attributes:
        designator: schematic reference (e.g. ``"u76"``).
        rail: electrical rail name from the board user guide.
        domain: logical domain key used by the SoC simulator to route
            workload power onto this sensor (``"fpd"``, ``"lpd"``,
            ``"fpga"``, ``"ddr"`` or ``"aux"``).
        description: human-readable summary (Table II wording for the
            four sensitive sensors).
        shunt_ohms: shunt resistor value in ohms.
        nominal_voltage: rail nominal voltage in volts.
        max_current: design maximum load current in amperes (used to
            pick the INA226 calibration so current LSB = 1 mA).
        sensitive: True for the four sensors Table II calls out.
        idle_current: typical rail current in amperes with the board
            idling (gives hwmon readings a realistic floor).
    """

    designator: str
    rail: str
    domain: str
    description: str
    shunt_ohms: float
    nominal_voltage: float
    max_current: float
    sensitive: bool = False
    idle_current: float = 0.05


#: The four sensitive sensors of Table II, followed by the auxiliary
#: rails of UG1182 (shunt values follow the board's 2 mOhm / 5 mOhm
#: design practice).
ZCU102_SENSORS: List[SensorSpec] = [
    SensorSpec(
        designator="u76",
        rail="VCCPSINTFP",
        domain="fpd",
        description=(
            "current, voltage, and power for full-power domain of the "
            "ARM processor cores."
        ),
        shunt_ohms=0.005,
        nominal_voltage=0.85,
        max_current=8.0,
        sensitive=True,
        idle_current=0.35,
    ),
    SensorSpec(
        designator="u77",
        rail="VCCPSINTLP",
        domain="lpd",
        description=(
            "current, voltage, and power for low-power domain of the "
            "ARM processor cores."
        ),
        shunt_ohms=0.005,
        nominal_voltage=0.85,
        max_current=4.0,
        sensitive=True,
        idle_current=0.18,
    ),
    SensorSpec(
        designator="u79",
        rail="VCCINT",
        domain="fpga",
        description=(
            "current, voltage, and power for FPGA's logic and "
            "processing elements."
        ),
        shunt_ohms=0.002,
        nominal_voltage=0.85,
        max_current=16.0,
        sensitive=True,
        idle_current=0.55,
    ),
    SensorSpec(
        designator="u93",
        rail="VCCPSDDR",
        domain="ddr",
        description="current, voltage, and power for DDR memory.",
        shunt_ohms=0.005,
        nominal_voltage=1.2,
        max_current=6.0,
        sensitive=True,
        idle_current=0.25,
    ),
    SensorSpec(
        designator="u78",
        rail="VCCPSAUX",
        domain="aux",
        description="PS auxiliary supply.",
        shunt_ohms=0.005,
        nominal_voltage=1.8,
        max_current=2.0,
        idle_current=0.08,
    ),
    SensorSpec(
        designator="u80",
        rail="VCCPSPLL",
        domain="aux",
        description="PS PLL supply.",
        shunt_ohms=0.005,
        nominal_voltage=1.2,
        max_current=1.0,
        idle_current=0.03,
    ),
    SensorSpec(
        designator="u81",
        rail="MGTRAVCC",
        domain="aux",
        description="PS-GTR transceiver analog supply.",
        shunt_ohms=0.005,
        nominal_voltage=0.85,
        max_current=2.0,
        idle_current=0.05,
    ),
    SensorSpec(
        designator="u82",
        rail="MGTRAVTT",
        domain="aux",
        description="PS-GTR transceiver termination supply.",
        shunt_ohms=0.005,
        nominal_voltage=1.8,
        max_current=2.0,
        idle_current=0.04,
    ),
    SensorSpec(
        designator="u83",
        rail="VCCPSDDRPLL",
        domain="aux",
        description="PS DDR PLL supply.",
        shunt_ohms=0.005,
        nominal_voltage=1.8,
        max_current=0.5,
        idle_current=0.01,
    ),
    SensorSpec(
        designator="u84",
        rail="VCCO_PSDDR_504",
        domain="aux",
        description="PS DDR IO bank supply.",
        shunt_ohms=0.005,
        nominal_voltage=1.2,
        max_current=3.0,
        idle_current=0.12,
    ),
    SensorSpec(
        designator="u85",
        rail="VCCAUX",
        domain="aux",
        description="PL auxiliary supply.",
        shunt_ohms=0.005,
        nominal_voltage=1.8,
        max_current=3.0,
        idle_current=0.14,
    ),
    SensorSpec(
        designator="u86",
        rail="VCC1V2",
        domain="aux",
        description="1.2 V utility supply.",
        shunt_ohms=0.005,
        nominal_voltage=1.2,
        max_current=3.0,
        idle_current=0.10,
    ),
    SensorSpec(
        designator="u87",
        rail="VCC3V3",
        domain="aux",
        description="3.3 V utility supply.",
        shunt_ohms=0.005,
        nominal_voltage=3.3,
        max_current=3.0,
        idle_current=0.20,
    ),
    SensorSpec(
        designator="u88",
        rail="VADJ_FMC",
        domain="aux",
        description="FMC adjustable IO supply.",
        shunt_ohms=0.005,
        nominal_voltage=1.8,
        max_current=3.0,
        idle_current=0.02,
    ),
    SensorSpec(
        designator="u89",
        rail="MGTAVCC",
        domain="aux",
        description="GTH transceiver analog supply.",
        shunt_ohms=0.005,
        nominal_voltage=0.9,
        max_current=4.0,
        idle_current=0.15,
    ),
    SensorSpec(
        designator="u90",
        rail="MGTAVTT",
        domain="aux",
        description="GTH transceiver termination supply.",
        shunt_ohms=0.005,
        nominal_voltage=1.2,
        max_current=4.0,
        idle_current=0.12,
    ),
    SensorSpec(
        designator="u91",
        rail="MGTVCCAUX",
        domain="aux",
        description="GTH transceiver auxiliary supply.",
        shunt_ohms=0.005,
        nominal_voltage=1.8,
        max_current=1.0,
        idle_current=0.03,
    ),
    SensorSpec(
        designator="u92",
        rail="VCCBRAM",
        domain="aux",
        description="PL block-RAM supply.",
        shunt_ohms=0.005,
        nominal_voltage=0.85,
        max_current=4.0,
        idle_current=0.09,
    ),
]

#: Domain key -> designator for the four sensitive sensors (Table II).
SENSITIVE_SENSOR_MAP: Dict[str, str] = {
    sensor.domain: sensor.designator
    for sensor in ZCU102_SENSORS
    if sensor.sensitive
}


def sensitive_sensors() -> List[SensorSpec]:
    """Return the four Table II sensors in paper order."""
    return [sensor for sensor in ZCU102_SENSORS if sensor.sensitive]


def sensor_map_for(
    ina226_count: int, base: List[SensorSpec] = None
) -> List[SensorSpec]:
    """A sensor map sized for a board with ``ina226_count`` devices.

    ``base`` defaults to the ZCU102's map; boards with their own
    published map (e.g. the VCK190, :mod:`repro.boards.versal`) pass
    theirs.  Smaller counts truncate (the four sensitive sensors always
    survive — every board instruments its core, CPU and DRAM rails);
    larger counts pad with synthesized auxiliary rails.
    """
    if ina226_count < 4:
        raise ValueError("a board needs at least the four sensitive sensors")
    base = list(ZCU102_SENSORS) if base is None else list(base)
    if ina226_count <= len(base):
        return base[:ina226_count]
    padded = list(base)
    for index in range(ina226_count - len(base)):
        padded.append(
            SensorSpec(
                designator=f"u{100 + index}",
                rail=f"VCCAUX_EXT{index}",
                domain="aux",
                description="auxiliary supply (synthesized map entry).",
                shunt_ohms=0.005,
                nominal_voltage=1.8,
                max_current=2.0,
                idle_current=0.05,
            )
        )
    return padded
