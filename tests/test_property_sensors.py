"""Property-based tests for the INA226 model and hash randomness."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sensors.ina226 import (
    AVERAGING_COUNTS,
    CONVERSION_TIMES,
    SHUNT_LSB_VOLTS,
    SHUNT_REG_MAX,
    Ina226,
    Ina226Config,
)
from repro.utils.hashrand import hashed_normal, hashed_uniform

currents = st.floats(min_value=0.0, max_value=20.0)
buses = st.floats(min_value=0.5, max_value=3.5)


def max_current(sensor):
    """Largest measurable current before the shunt register clips."""
    return SHUNT_REG_MAX * SHUNT_LSB_VOLTS / sensor.shunt_ohms


def noiseless(shunt=2e-3):
    return Ina226(
        shunt_ohms=shunt, shunt_noise_volts=0.0, bus_noise_volts=0.0
    )


class TestQuantizationProperties:
    @given(currents, buses)
    @settings(max_examples=100, deadline=None)
    def test_current_error_bounded(self, current, bus):
        sensor = noiseless()
        reading = sensor.convert(np.array([current]), np.array([bus]))
        if current < max_current(sensor):
            # Quantization error stays within ~1 current LSB plus the
            # shunt-register rounding contribution.
            error = abs(reading.current_amps[0] - current)
            shunt_lsb_in_amps = 2.5e-6 / sensor.shunt_ohms
            assert error <= sensor.current_lsb + shunt_lsb_in_amps

    @given(currents, currents, buses)
    @settings(max_examples=100, deadline=None)
    def test_current_monotone(self, a, b, bus):
        sensor = noiseless()
        reading = sensor.convert(
            np.array([min(a, b), max(a, b)]), np.array([bus, bus])
        )
        assert reading.current_register[0] <= reading.current_register[1]

    @given(currents, buses)
    @settings(max_examples=100, deadline=None)
    def test_power_register_arithmetic(self, current, bus):
        sensor = noiseless()
        reading = sensor.convert(np.array([current]), np.array([bus]))
        expected = (
            reading.current_register[0] * reading.bus_register[0]
        ) // 20000
        assert reading.power_register[0] == expected

    @given(currents, buses)
    @settings(max_examples=100, deadline=None)
    def test_power_truncates_vs_true_product(self, current, bus):
        sensor = noiseless()
        reading = sensor.convert(np.array([current]), np.array([bus]))
        true_power = current * bus
        if current < max_current(sensor):
            # One power LSB (25 mW) plus propagated quantization: the
            # current register carries both its own LSB and the shunt
            # register's rounding (2.5 uV / R = 1.25 mA here), and the
            # bus register contributes current * 1.25 mV.
            current_error = (
                sensor.current_lsb + 2.5e-6 / sensor.shunt_ohms
            )
            bound = (
                sensor.power_lsb
                + bus * current_error
                + current * 1.25e-3
                + 0.002
            )
            assert abs(reading.power_watts[0] - true_power) <= bound

    @given(buses)
    @settings(max_examples=50, deadline=None)
    def test_bus_quantized_to_lsb_grid(self, bus):
        sensor = noiseless()
        reading = sensor.convert(np.array([0.0]), np.array([bus]))
        remainder = reading.bus_volts[0] / 1.25e-3
        assert np.isclose(remainder, round(remainder), atol=1e-6)


class TestConfigProperties:
    @given(
        st.sampled_from(CONVERSION_TIMES),
        st.sampled_from(CONVERSION_TIMES),
        st.sampled_from(AVERAGING_COUNTS),
    )
    @settings(max_examples=64, deadline=None)
    def test_update_period_formula(self, sct, bct, avg):
        config = Ina226Config(
            shunt_conversion_time=sct, bus_conversion_time=bct, averages=avg
        )
        assert config.update_period == (sct + bct) * avg

    @given(st.floats(min_value=1e-3, max_value=20.0))
    @settings(max_examples=60, deadline=None)
    def test_for_update_period_is_nearest(self, target):
        config = Ina226Config.for_update_period(target)
        # No other symmetric configuration is strictly closer.
        best_error = abs(config.update_period - target)
        for ct in CONVERSION_TIMES:
            for avg in AVERAGING_COUNTS:
                candidate = (2 * ct) * avg
                assert best_error <= abs(candidate - target) + 1e-12


class TestHashRandProperties:
    @given(st.integers(min_value=0, max_value=2**63 - 1),
           st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=100, deadline=None)
    def test_uniform_in_range(self, key, counter):
        value = hashed_uniform(key, np.array([counter], dtype=np.uint64))[0]
        assert 0.0 <= value < 1.0

    @given(st.integers(min_value=0, max_value=2**63 - 1),
           st.integers(min_value=0, max_value=2**31),
           st.integers(min_value=0, max_value=7))
    @settings(max_examples=100, deadline=None)
    def test_pure_function(self, key, counter, stream):
        c = np.array([counter], dtype=np.uint64)
        assert (
            hashed_normal(key, c, stream=stream)[0]
            == hashed_normal(key, c, stream=stream)[0]
        )

    @given(st.integers(min_value=0, max_value=2**63 - 1),
           st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=100, deadline=None)
    def test_normal_is_finite(self, key, counter):
        value = hashed_normal(key, np.array([counter], dtype=np.uint64))[0]
        assert np.isfinite(value)
