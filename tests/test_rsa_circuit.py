"""Tests for the RSA-1024 victim circuit model."""

import numpy as np
import pytest

from repro.crypto import make_exponent_with_weight
from repro.fpga.rsa import RsaCircuit


def multiply_schedule(circuit):
    """Per-iteration multiply activations, read off the power timeline."""
    t = (np.arange(circuit.width) + 0.5) * circuit.iteration_seconds
    powers = circuit.timeline().power_at(t)
    return tuple(int(p > circuit.P_IDLE + circuit.P_SQUARE) for p in powers)


#: An odd 1024-bit modulus for the datapath check; the circuit itself
#: models no modulus, since its power depends only on the exponent.
MODULUS = (1 << 1023) | 0x9F2B51C377E10A65


class TestDatapath:
    def test_encrypt_matches_pow(self):
        # The power timeline's square-and-multiply schedule, run as
        # LSB-first modular exponentiation, computes pow.
        modulus = MODULUS
        exponent = make_exponent_with_weight(192, seed=11)
        circuit = RsaCircuit(exponent)
        plaintext = 0x1234567890ABCDEF
        result, square = 1, plaintext % modulus
        for multiply in multiply_schedule(circuit):
            if multiply:
                result = result * square % modulus
            square = square * square % modulus
        assert result == pow(plaintext, exponent, modulus)

    def test_small_width_circuit(self):
        circuit = RsaCircuit(0b1011, width=8)
        assert circuit.hamming_weight == 3
        assert circuit.exponentiation_seconds == pytest.approx(
            8 * circuit.iteration_seconds
        )

    def test_zero_exponent_rejected(self):
        with pytest.raises(ValueError, match="zero exponent"):
            RsaCircuit(0)

    def test_oversized_exponent_rejected(self):
        with pytest.raises(ValueError):
            RsaCircuit(1 << 16, width=16)


class TestTiming:
    def test_iteration_time(self):
        circuit = RsaCircuit(3, clock_hz=100e6, cycles_per_iteration=1056)
        assert circuit.iteration_seconds == pytest.approx(1056 / 100e6)

    def test_exponentiation_time_data_independent(self):
        light = RsaCircuit(make_exponent_with_weight(1, seed=1))
        heavy = RsaCircuit(make_exponent_with_weight(1024, seed=1))
        # Constant-latency iterations: timing leaks nothing, only power.
        assert light.exponentiation_seconds == heavy.exponentiation_seconds

    def test_paper_clock(self):
        circuit = RsaCircuit(3)
        assert circuit.clock_hz == pytest.approx(100e6)


class TestPowerModel:
    def test_hamming_weight_property(self):
        exponent = make_exponent_with_weight(320, seed=2)
        assert RsaCircuit(exponent).hamming_weight == 320

    def test_mean_power_linear_in_weight(self):
        weights = [1, 256, 512, 1024]
        powers = [
            RsaCircuit(make_exponent_with_weight(w, seed=3)).mean_power
            for w in weights
        ]
        steps = np.diff(powers) / np.diff(weights)
        np.testing.assert_allclose(steps, steps[0], rtol=1e-9)

    def test_mean_power_magnitude(self):
        # HW=1024 key: idle + square + full multiply ~= 0.23 W.
        circuit = RsaCircuit(make_exponent_with_weight(1024, seed=1))
        assert circuit.mean_power == pytest.approx(0.020 + 0.110 + 0.100)

    def test_timeline_mean_matches_mean_power(self):
        circuit = RsaCircuit(make_exponent_with_weight(640, seed=5))
        timeline = circuit.timeline()
        # Average over exactly one period.
        period = circuit.exponentiation_seconds
        mean = timeline.window_mean(np.array([0.0]), np.array([period]))[0]
        assert mean == pytest.approx(circuit.mean_power, rel=1e-9)

    def test_timeline_levels_are_two_valued(self):
        circuit = RsaCircuit(make_exponent_with_weight(512, seed=6))
        t = (np.arange(1024) + 0.5) * circuit.iteration_seconds
        powers = np.unique(np.round(circuit.timeline().power_at(t), 9))
        assert powers.size == 2  # square-only vs square+multiply

    def test_timeline_periodicity(self):
        circuit = RsaCircuit(make_exponent_with_weight(100, seed=7))
        timeline = circuit.timeline()
        period = circuit.exponentiation_seconds
        t = np.linspace(0, period * 0.999, 64)
        np.testing.assert_allclose(
            timeline.power_at(t), timeline.power_at(t + 3 * period)
        )

    def test_multiply_schedule_matches_bits(self):
        circuit = RsaCircuit(0b1101, width=8)
        assert multiply_schedule(circuit) == (1, 0, 1, 1, 0, 0, 0, 0)

    def test_circuit_spec_has_two_multipliers(self):
        spec = RsaCircuit(3).circuit_spec()
        assert spec.utilization["dsp"] == 64
        assert spec.utilization["lut"] > 30_000

    def test_repr(self):
        circuit = RsaCircuit(make_exponent_with_weight(64, seed=1))
        assert "HW=64" in repr(circuit)
