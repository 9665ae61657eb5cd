"""Integration tests for the RSA Hamming-weight attack (reduced size)."""

import numpy as np
import pytest

from repro.analysis.stats import linear_fit
from repro.core.rsa_attack import RsaHammingWeightAttack
from repro.crypto.rsa_math import PAPER_HAMMING_WEIGHTS

WEIGHT_SUBSET = (1, 256, 512, 768, 1024)


@pytest.fixture(scope="module")
def attack():
    return RsaHammingWeightAttack()


@pytest.fixture(scope="module")
def current_sweep(attack):
    return attack.sweep(weights=WEIGHT_SUBSET, n_samples=3000)


class TestProfiles:
    def test_profile_count(self, current_sweep):
        assert len(current_sweep.profiles) == len(WEIGHT_SUBSET)

    def test_weights_recorded(self, current_sweep):
        np.testing.assert_array_equal(current_sweep.weights, WEIGHT_SUBSET)

    def test_medians_increase_with_weight(self, current_sweep):
        medians = current_sweep.medians
        assert np.all(np.diff(medians) > 0)

    def test_current_separates_all_keys(self, current_sweep):
        assert current_sweep.distinguishable_groups() == len(WEIGHT_SUBSET)

    def test_calibration_is_linear(self, current_sweep):
        fit = current_sweep.calibration()
        assert fit.r > 0.999
        # ~7 mA per 64 Hamming-weight steps -> ~0.11 mA per unit weight.
        assert 0.05 < fit.slope < 0.2

    def test_profile_summary(self, current_sweep):
        summary = current_sweep.profiles[0].summary
        assert summary.n == 3000
        assert summary.q3 >= summary.q1


class TestPowerChannel:
    def test_power_collapses_groups(self, attack):
        power = attack.sweep(
            weights=PAPER_HAMMING_WEIGHTS, quantity="power", n_samples=1500
        )
        groups = power.distinguishable_groups()
        # Paper: "the power measurements could only categorize the 17
        # keys into 5 groups".
        assert 3 <= groups <= 7
        assert groups < 17


class TestInference:
    def test_infer_known_weight(self, attack, current_sweep):
        calibration = current_sweep.calibration()
        profile = attack.profile_key(
            attack.make_circuit(512), n_samples=3000
        )
        estimate = attack.infer_weight(profile.values, calibration)
        assert abs(estimate - 512) < 64  # within one weight step

    def test_end_to_end(self, attack, current_sweep):
        calibration = current_sweep.calibration()
        estimate = attack.end_to_end(768, calibration, n_samples=3000)
        assert abs(estimate - 768) < 64

    def test_infer_rejects_empty(self, attack, current_sweep):
        with pytest.raises(ValueError):
            attack.infer_weight(np.array([]), current_sweep.calibration())

    def test_infer_rejects_degenerate_calibration(self, attack):
        flat = linear_fit([0.0, 1.0], [5.0, 5.0])
        with pytest.raises(ValueError, match="zero slope"):
            attack.infer_weight(np.array([5.0]), flat)


class TestSetup:
    def test_circuit_uses_paper_clock(self, attack):
        circuit = attack.make_circuit(64)
        assert circuit.clock_hz == pytest.approx(100e6)
        assert circuit.hamming_weight == 64

    def test_sampling_default_1khz(self, attack):
        assert attack.sampling_hz == pytest.approx(1000.0)

    def test_oversampled_readings_repeat(self, attack):
        profile = attack.profile_key(attack.make_circuit(128), n_samples=500)
        # 500 polls at 1 kHz span 0.5 s = ~14 sensor updates.
        assert np.unique(profile.values).size < 30

    def test_rail_left_clean(self, attack):
        assert "rsa" not in attack.soc.rail("fpga")._workloads
