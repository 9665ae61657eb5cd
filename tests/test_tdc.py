"""Tests for the TDC delay-line sensor baseline."""

import numpy as np
import pytest

from repro.fpga.tdc import TdcSensor


class TestExpectedTaps:
    def test_reference_point(self):
        sensor = TdcSensor(taps_nominal=32.0, v_ref=0.85)
        np.testing.assert_allclose(
            sensor.expected_taps(np.array([0.85])), 32.0
        )

    def test_taps_rise_with_voltage(self):
        sensor = TdcSensor()
        low = sensor.expected_taps(np.array([0.83]))[0]
        high = sensor.expected_taps(np.array([0.87]))[0]
        assert high > low

    def test_linear_gain(self):
        sensor = TdcSensor(taps_nominal=100.0, v_ref=1.0, sensitivity=2.0,
                           n_taps=256)
        np.testing.assert_allclose(
            sensor.expected_taps(np.array([1.01])), 102.0
        )

    def test_invalid_voltage(self):
        with pytest.raises(ValueError):
            TdcSensor().expected_taps(np.array([0.0]))


class TestCounts:
    def test_integer_grid(self):
        sensor = TdcSensor(jitter_taps=0.0)
        counts = sensor.counts(np.full(10, 0.85), rng=1)
        np.testing.assert_allclose(counts, np.floor(counts))

    def test_clipped_to_line(self):
        sensor = TdcSensor(n_taps=64, taps_nominal=60.0)
        counts = sensor.counts(np.full(10, 2.0), rng=1)  # absurd voltage
        assert np.all(counts <= 63)

    def test_deterministic_with_seed(self):
        sensor = TdcSensor()
        v = np.full(50, 0.85)
        np.testing.assert_array_equal(
            sensor.counts(v, rng=3), sensor.counts(v, rng=3)
        )

    def test_counts_track_voltage(self):
        sensor = TdcSensor(jitter_taps=0.0)
        low = sensor.counts(np.full(5, 0.84), rng=1).mean()
        high = sensor.counts(np.full(5, 0.86), rng=1).mean()
        assert high > low


def relative_variation(sensor, v_low, v_high):
    """Noise-free relative tap swing over a voltage excursion."""
    taps = sensor.expected_taps(np.array([v_low, v_high]))
    return float(abs(taps[1] - taps[0]) / taps.mean())


class TestStabilizedBlindness:
    def test_relative_variation_tiny_over_droop(self):
        # The same millivolt droop that blinds the RO blinds the TDC.
        sensor = TdcSensor()
        variation = relative_variation(sensor, 0.8505 - 3.3e-3, 0.8505)
        assert variation < 0.01

    def test_variation_grows_with_sensitivity(self):
        dull = TdcSensor(sensitivity=0.5)
        sharp = TdcSensor(sensitivity=2.0)
        droop = (0.8472, 0.8505)
        assert relative_variation(sharp, *droop) > (
            relative_variation(dull, *droop)
        )


class TestValidation:
    def test_nominal_must_fit_line(self):
        with pytest.raises(ValueError, match="headroom"):
            TdcSensor(n_taps=32, taps_nominal=32.0)

    def test_circuit_spec(self):
        spec = TdcSensor(n_taps=64).circuit_spec()
        assert spec.utilization["lut"] == 64
        assert spec.utilization["ff"] == 96

    def test_repr(self):
        assert "taps" in repr(TdcSensor())
