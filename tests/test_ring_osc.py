"""Tests for the ring-oscillator baseline sensor."""

import numpy as np
import pytest

from repro.fpga.ring_osc import RingOscillator, RoSensorBank


class TestRingOscillator:
    def test_frequency_at_reference(self):
        ro = RingOscillator(f_nominal=380e6, v_ref=0.85)
        np.testing.assert_allclose(ro.frequency(np.array([0.85])), 380e6)

    def test_frequency_rises_with_voltage(self):
        ro = RingOscillator()
        f_low = ro.frequency(np.array([0.83]))[0]
        f_high = ro.frequency(np.array([0.87]))[0]
        assert f_high > f_low

    def test_linear_sensitivity(self):
        ro = RingOscillator(f_nominal=100e6, v_ref=1.0, sensitivity=2.0)
        # +1% voltage -> +2% frequency.
        np.testing.assert_allclose(
            ro.frequency(np.array([1.01])), 102e6, rtol=1e-9
        )

    def test_even_stage_count_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            RingOscillator(n_stages=4)

    def test_nonpositive_voltage_rejected(self):
        with pytest.raises(ValueError):
            RingOscillator().frequency(np.array([0.0]))

    def test_zero_sensitivity_flat(self):
        ro = RingOscillator(sensitivity=0.0)
        freqs = ro.frequency(np.array([0.80, 0.85, 0.90]))
        assert np.ptp(freqs) == 0.0


class TestRoSensorBank:
    def test_nominal_count(self):
        bank = RoSensorBank(
            RingOscillator(f_nominal=380e6), sample_window=0.5e-6
        )
        # Without jitter a bank at the reference voltage counts
        # f_nominal * window per sample.
        bank.jitter_counts = 0.0
        counts = bank.counts(np.array([bank.oscillator.v_ref]), rng=0)
        assert counts[0] == pytest.approx(190.0, abs=1.0)

    def test_counts_shape_matches_voltage(self):
        bank = RoSensorBank()
        counts = bank.counts(np.full(100, 0.85), rng=1)
        assert counts.shape == (100,)

    def test_counts_reflect_voltage(self):
        bank = RoSensorBank(jitter_counts=0.0)
        low = bank.counts(np.full(10, 0.84), rng=1).mean()
        high = bank.counts(np.full(10, 0.86), rng=1).mean()
        assert high > low

    def test_counts_are_deterministic_with_seed(self):
        bank = RoSensorBank()
        v = np.full(50, 0.85)
        np.testing.assert_array_equal(bank.counts(v, rng=9), bank.counts(v, rng=9))

    def test_counts_near_expected_value(self):
        bank = RoSensorBank()
        counts = bank.counts(np.full(2000, 0.8505), rng=3)
        nominal = bank.oscillator.f_nominal * bank.sample_window
        assert counts.mean() == pytest.approx(nominal, rel=0.02)

    def test_bank_average_has_sub_count_resolution(self):
        # A 32-RO bank reports count averages on a 1/32 grid.
        bank = RoSensorBank(n_instances=32)
        counts = bank.counts(np.full(10, 0.85), rng=5)
        fractional = counts % 1.0
        grid = np.round(fractional * 32) / 32
        np.testing.assert_allclose(fractional, grid, atol=1e-9)

    def test_relative_variation_is_small_on_stabilized_rail(self):
        # The core claim: over the full regulated-droop range the RO's
        # relative variation is below 1%, while the current's relative
        # variation over the same sweep is >100% (ratio ~261x).
        bank = RoSensorBank(jitter_counts=0.0)
        v_unloaded = 0.8505
        v_loaded = 0.8505 - 3.3e-3  # full-sweep droop
        c0 = bank.counts(np.full(1, v_unloaded), rng=1)[0]
        c1 = bank.counts(np.full(1, v_loaded), rng=1)[0]
        relative = abs(c0 - c1) / ((c0 + c1) / 2)
        # The true frequency shift is ~0.57%; integer counter
        # quantization can round it up by at most one count.
        assert relative < 0.015

    def test_circuit_spec(self):
        bank = RoSensorBank(n_instances=8)
        spec = bank.circuit_spec()
        assert spec.utilization["ff"] == 8 * 32
        assert spec.utilization["lut"] > 0

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            RoSensorBank(n_instances=0)
        with pytest.raises(ValueError):
            RoSensorBank(sample_window=0.0)
        with pytest.raises(ValueError):
            RoSensorBank(jitter_counts=-1.0)
