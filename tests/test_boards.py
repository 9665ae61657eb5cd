"""Tests for the board catalog (Table I) and ZCU102 sensor map (Table II)."""

import pytest

from repro.boards import (
    BOARD_CATALOG,
    SENSITIVE_SENSOR_MAP,
    ZCU102_SENSORS,
    boards_by_family,
    get_board,
    list_boards,
    sensitive_sensors,
)
from repro.soc import Soc

def _sensor(designator):
    return next(s for s in ZCU102_SENSORS if s.designator == designator)


# Table I of the paper, column by column.
TABLE1 = {
    "ZCU102": ("Zynq UltraScale+", "Cortex-A53", 4, 18, 3234),
    "ZCU111": ("Zynq UltraScale+", "Cortex-A53", 4, 14, 14995),
    "ZCU216": ("Zynq UltraScale+", "Cortex-A53", 4, 14, 16995),
    "ZCU1285": ("Zynq UltraScale+", "Cortex-A53", 8, 21, 32394),
    "VEK280": ("Versal", "Cortex-A72", 12, 20, 6995),
    "VCK190": ("Versal", "Cortex-A72", 8, 17, 13195),
    "VHK158": ("Versal", "Cortex-A72", 32, 22, 14995),
    "VPK180": ("Versal", "Cortex-A72", 12, 19, 17995),
}


class TestCatalog:
    def test_eight_boards(self):
        assert len(list_boards()) == 8

    @pytest.mark.parametrize("name", sorted(TABLE1))
    def test_table1_row(self, name):
        family, cpu, dram_gib, ina_count, price = TABLE1[name]
        board = get_board(name)
        assert board.fpga_family == family
        assert board.cpu_model == cpu
        assert board.dram_gib == dram_gib
        assert board.ina226_count == ina_count
        assert board.price_usd == pytest.approx(price)

    def test_zynq_voltage_band(self):
        for board in boards_by_family("Zynq UltraScale+"):
            assert board.fpga_voltage_range == (0.825, 0.876)

    def test_versal_voltage_band(self):
        for board in boards_by_family("Versal"):
            assert board.fpga_voltage_range == (0.775, 0.825)

    def test_voltage_helpers(self):
        # The FPGA rail regulates to mid-band of the board's range.
        regulator = Soc("ZCU102", seed=0).rail("fpga").regulator
        low, high = regulator.band
        assert regulator.v_set == pytest.approx(0.8505)
        assert high - low == pytest.approx(0.051)

    def test_case_insensitive_lookup(self):
        assert get_board("zcu102").name == "ZCU102"

    def test_unknown_board_raises(self):
        with pytest.raises(KeyError, match="available"):
            get_board("ZCU999")

    def test_zcu102_fabric_resources(self):
        board = get_board("ZCU102")
        assert board.luts == 274_080
        assert board.flip_flops == 548_160
        assert board.dsp_blocks == 2_520
        assert board.cpu_frequency_hz == pytest.approx(1200e6)
        assert board.fabric_frequency_hz == pytest.approx(300e6)

    def test_families_partition_catalog(self):
        zynq = boards_by_family("Zynq UltraScale+")
        versal = boards_by_family("Versal")
        assert len(zynq) + len(versal) == len(BOARD_CATALOG)


class TestZcu102Sensors:
    def test_eighteen_sensors(self):
        # Table I: ZCU102 integrates 18 INA226 sensors.
        assert len(ZCU102_SENSORS) == 18

    def test_four_sensitive_sensors(self):
        assert len(sensitive_sensors()) == 4

    def test_table2_designators(self):
        designators = {sensor.designator for sensor in sensitive_sensors()}
        assert designators == {"u76", "u77", "u79", "u93"}

    def test_table2_domains(self):
        assert SENSITIVE_SENSOR_MAP == {
            "fpd": "u76",
            "lpd": "u77",
            "fpga": "u79",
            "ddr": "u93",
        }

    def test_fpga_sensor_rail(self):
        assert _sensor("u79").rail == "VCCINT"

    def test_ddr_sensor_rail(self):
        assert _sensor("u93").rail == "VCCPSDDR"

    def test_unique_designators(self):
        designators = [sensor.designator for sensor in ZCU102_SENSORS]
        assert len(designators) == len(set(designators))

    def test_unknown_sensor_raises(self):
        with pytest.raises(KeyError):
            Soc("ZCU102", seed=0).device("u999")

    def test_shunts_positive(self):
        for sensor in ZCU102_SENSORS:
            assert sensor.shunt_ohms > 0
            assert sensor.max_current > 0
            assert sensor.nominal_voltage > 0

    def test_idle_below_max(self):
        for sensor in ZCU102_SENSORS:
            assert 0 <= sensor.idle_current < sensor.max_current
