"""Board catalog (Table I) and per-board sensor maps (Table II)."""

from repro.boards.catalog import (
    BOARD_CATALOG,
    VERSAL_BAND,
    ZYNQ_US_PLUS_BAND,
    BoardSpec,
    boards_by_family,
    get_board,
    list_boards,
)
from repro.boards.versal import VCK190_SENSORS
from repro.boards.zcu102 import (
    SENSITIVE_SENSOR_MAP,
    ZCU102_SENSORS,
    SensorSpec,
    sensitive_sensors,
    sensor_map_for,
)

__all__ = [
    "BOARD_CATALOG",
    "VERSAL_BAND",
    "ZYNQ_US_PLUS_BAND",
    "BoardSpec",
    "boards_by_family",
    "get_board",
    "list_boards",
    "SENSITIVE_SENSOR_MAP",
    "ZCU102_SENSORS",
    "SensorSpec",
    "sensitive_sensors",
    "sensor_map_for",
    "VCK190_SENSORS",
]
