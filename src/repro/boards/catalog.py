"""Catalog of ARM-FPGA SoC evaluation boards with INA226 sensors.

This is the data behind Table I of the paper: eight representative
AMD-Xilinx boards across two FPGA families (Zynq UltraScale+ and Versal),
each integrating INA226 current/voltage/power monitors on its power rails.
The catalog drives board-level parameterization of the simulator (supply
voltage band, CPU model, DRAM size, sensor count) and the Table I bench.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple


@dataclass(frozen=True)
class BoardSpec:
    """Static description of one evaluation board.

    Attributes mirror the columns of Table I in the paper.
    """

    name: str
    fpga_family: str
    #: Regulated FPGA core voltage band (min, max) in volts.
    fpga_voltage_range: Tuple[float, float]
    cpu_model: str
    #: Number of application CPU cores.
    cpu_cores: int
    #: CPU base frequency in Hz.
    cpu_frequency_hz: float
    #: DRAM capacity in bytes.
    dram_bytes: int
    #: Number of INA226 sensors integrated on the board.
    ina226_count: int
    #: List price in USD at the time of the paper.
    price_usd: float
    #: FPGA fabric clock in Hz (as configured in the paper where known).
    fabric_frequency_hz: float = 300e6
    #: Fabric resource counts (LUTs, flip-flops, DSP blocks).
    luts: int = 0
    flip_flops: int = 0
    dsp_blocks: int = 0

    @property
    def dram_gib(self) -> int:
        """DRAM capacity in GiB (as marketed)."""
        return int(self.dram_bytes // (1024**3))


GIB = 1024**3

#: Zynq UltraScale+ boards regulate VCCINT to 0.825-0.876 V; Versal boards
#: regulate to 0.775-0.825 V (Table I).
ZYNQ_US_PLUS_BAND = (0.825, 0.876)
VERSAL_BAND = (0.775, 0.825)

_BOARDS: List[BoardSpec] = [
    BoardSpec(
        name="ZCU102",
        fpga_family="Zynq UltraScale+",
        fpga_voltage_range=ZYNQ_US_PLUS_BAND,
        cpu_model="Cortex-A53",
        cpu_cores=4,
        cpu_frequency_hz=1200e6,
        dram_bytes=4 * GIB,
        ina226_count=18,
        price_usd=3234.0,
        fabric_frequency_hz=300e6,
        luts=274_080,
        flip_flops=548_160,
        dsp_blocks=2_520,
    ),
    BoardSpec(
        name="ZCU111",
        fpga_family="Zynq UltraScale+",
        fpga_voltage_range=ZYNQ_US_PLUS_BAND,
        cpu_model="Cortex-A53",
        cpu_cores=4,
        cpu_frequency_hz=1200e6,
        dram_bytes=4 * GIB,
        ina226_count=14,
        price_usd=14995.0,
        luts=425_280,
        flip_flops=850_560,
        dsp_blocks=4_272,
    ),
    BoardSpec(
        name="ZCU216",
        fpga_family="Zynq UltraScale+",
        fpga_voltage_range=ZYNQ_US_PLUS_BAND,
        cpu_model="Cortex-A53",
        cpu_cores=4,
        cpu_frequency_hz=1200e6,
        dram_bytes=4 * GIB,
        ina226_count=14,
        price_usd=16995.0,
        luts=425_280,
        flip_flops=850_560,
        dsp_blocks=4_272,
    ),
    BoardSpec(
        name="ZCU1285",
        fpga_family="Zynq UltraScale+",
        fpga_voltage_range=ZYNQ_US_PLUS_BAND,
        cpu_model="Cortex-A53",
        cpu_cores=4,
        cpu_frequency_hz=1200e6,
        dram_bytes=8 * GIB,
        ina226_count=21,
        price_usd=32394.0,
        luts=537_600,
        flip_flops=1_075_200,
        dsp_blocks=5_520,
    ),
    BoardSpec(
        name="VEK280",
        fpga_family="Versal",
        fpga_voltage_range=VERSAL_BAND,
        cpu_model="Cortex-A72",
        cpu_cores=2,
        cpu_frequency_hz=1700e6,
        dram_bytes=12 * GIB,
        ina226_count=20,
        price_usd=6995.0,
        luts=417_792,
        flip_flops=835_584,
        dsp_blocks=1_312,
    ),
    BoardSpec(
        name="VCK190",
        fpga_family="Versal",
        fpga_voltage_range=VERSAL_BAND,
        cpu_model="Cortex-A72",
        cpu_cores=2,
        cpu_frequency_hz=1700e6,
        dram_bytes=8 * GIB,
        ina226_count=17,
        price_usd=13195.0,
        luts=899_840,
        flip_flops=1_799_680,
        dsp_blocks=1_968,
    ),
    BoardSpec(
        name="VHK158",
        fpga_family="Versal",
        fpga_voltage_range=VERSAL_BAND,
        cpu_model="Cortex-A72",
        cpu_cores=2,
        cpu_frequency_hz=1700e6,
        dram_bytes=32 * GIB,
        ina226_count=22,
        price_usd=14995.0,
        luts=894_432,
        flip_flops=1_788_864,
        dsp_blocks=0,
    ),
    BoardSpec(
        name="VPK180",
        fpga_family="Versal",
        fpga_voltage_range=VERSAL_BAND,
        cpu_model="Cortex-A72",
        cpu_cores=2,
        cpu_frequency_hz=1700e6,
        dram_bytes=12 * GIB,
        ina226_count=19,
        price_usd=17995.0,
        luts=1_139_712,
        flip_flops=2_279_424,
        dsp_blocks=1_904,
    ),
]

BOARD_CATALOG: Dict[str, BoardSpec] = {board.name: board for board in _BOARDS}


def list_boards() -> List[BoardSpec]:
    """Return all cataloged boards in Table I order."""
    return list(_BOARDS)


def get_board(name: str) -> BoardSpec:
    """Look up a board by name (case-insensitive).

    Raises :class:`KeyError` with the available names on a miss.
    """
    key = name.upper()
    if key not in BOARD_CATALOG:
        available = ", ".join(sorted(BOARD_CATALOG))
        raise KeyError(f"unknown board {name!r}; available: {available}")
    return BOARD_CATALOG[key]


def boards_by_family(family: str) -> List[BoardSpec]:
    """Return all boards of one FPGA family (e.g. ``"Versal"``)."""
    return [board for board in _BOARDS if board.fpga_family == family]
