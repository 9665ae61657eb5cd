"""Tests for the PDN regulator."""

import numpy as np
import pytest

from repro.fpga.pdn import VoltageRegulator
from repro.soc import Soc


class TestVoltageRegulator:
    def test_no_load_voltage_is_setpoint(self):
        regulator = VoltageRegulator()
        np.testing.assert_allclose(regulator.voltage(np.array([0.0])), 0.8505)

    def test_droop_is_monotonic(self):
        regulator = VoltageRegulator()
        currents = np.linspace(0, 8, 50)
        volts = regulator.voltage(currents)
        assert np.all(np.diff(volts) <= 0)

    def test_stays_in_band_under_extreme_load(self):
        regulator = VoltageRegulator()
        volts = regulator.voltage(np.array([1000.0]))
        low, high = regulator.band
        assert low <= volts[0] <= high

    def test_ripple_is_clamped_to_band(self):
        regulator = VoltageRegulator()
        volts = regulator.voltage(np.array([0.0]), ripple=np.array([1.0]))
        assert volts[0] == regulator.band[1]

    def test_droop_magnitude_matches_calibration(self):
        # ~3 mV over the Fig 2 sweep's ~6.4 A dynamic range: small
        # enough to stay deep inside the 51 mV stabilizer band, large
        # enough for the RO to see *something*.
        regulator = VoltageRegulator()
        droop = regulator.droop_at(7.6) - regulator.droop_at(1.2)
        assert 2e-3 < droop < 5e-3

    def test_quadratic_term_bends_the_load_line(self):
        regulator = VoltageRegulator(r_loadline=0.0, k_quadratic=1e-4)
        v1 = regulator.voltage(np.array([1.0]))[0]
        v2 = regulator.voltage(np.array([2.0]))[0]
        drop1 = regulator.v_set - v1
        drop2 = regulator.v_set - v2
        assert drop2 == pytest.approx(4 * drop1)

    def test_negative_current_rejected(self):
        with pytest.raises(ValueError):
            VoltageRegulator().voltage(np.array([-1.0]))

    def test_setpoint_outside_band_rejected(self):
        with pytest.raises(ValueError):
            VoltageRegulator(v_set=0.9, band=(0.825, 0.876))

    def test_invalid_band_rejected(self):
        with pytest.raises(ValueError):
            VoltageRegulator(v_set=0.85, band=(0.9, 0.8))

    def test_versal_band(self):
        regulator = Soc("VCK190", seed=0).rail("fpga").regulator
        assert regulator.band == (0.775, 0.825)
        np.testing.assert_allclose(regulator.voltage(np.array([0.0])), 0.80)

    def test_droop_at_scalar(self):
        regulator = VoltageRegulator(r_loadline=1e-3, k_quadratic=0.0)
        assert regulator.droop_at(2.0) == pytest.approx(2e-3)
