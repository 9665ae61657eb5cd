"""Integration tests for the Fig 2 characterization sweep.

These run the real pipeline with reduced sample counts; the bench
(`benchmarks/test_fig2_characterization.py`) runs the paper-size sweep.
"""

import numpy as np
import pytest

from repro.core.characterize import CHANNEL_LSBS, characterize
from repro.fpga.power_virus import PowerVirusArray
from repro.session import AttackSession


@pytest.fixture(scope="module")
def result():
    return characterize(samples_per_level=200, seed=0)


class TestSweepShape:
    def test_161_levels(self, result):
        assert result.levels.size == 161
        assert result.current.means.size == 161

    def test_current_strongly_positive(self, result):
        assert result.current.pearson > 0.995

    def test_power_strongly_positive(self, result):
        assert result.power.pearson > 0.995

    def test_voltage_weaker_than_current(self, result):
        # Paper: |r| = 0.958 for voltage vs 0.999 for current.
        assert abs(result.voltage.pearson) < result.current.pearson
        assert 0.80 < abs(result.voltage.pearson) < 0.995

    def test_ro_strongly_negative(self, result):
        assert result.ro.pearson < -0.98

    def test_current_steps_about_40_lsb(self, result):
        # Paper: "current measurements ... vary approximately 40 LSBs
        # per setting".
        assert 30 < result.current.lsb_step < 50

    def test_power_steps_1_to_2_lsb(self, result):
        # Paper: "the difference between consecutive settings is
        # limited to 1-2 LSBs" for power.
        assert 0.8 < result.power.lsb_step < 2.5

    def test_voltage_subresolution(self, result):
        # Voltage moves well under one 1.25 mV LSB per setting.
        assert result.voltage.lsb_step < 0.1

    def test_variation_ratio_hundreds(self, result):
        # The headline: ~261x more variation than the RO baseline.
        assert 150 < result.current_vs_ro_variation < 400

    def test_current_floor_nonzero(self, result):
        # "current measurements do not start from 0 ... due to the
        # static workloads caused by inactivated ... instances".
        assert result.current.means[0] > 500  # mA

    def test_current_monotonic(self, result):
        diffs = np.diff(result.current.means)
        assert np.mean(diffs > 0) > 0.95

    def test_summary_keys(self, result):
        assert set(result.summary()) == {"current", "voltage", "power", "ro"}


class TestSweepOptions:
    def test_custom_levels(self):
        result = characterize(
            samples_per_level=50, levels=np.array([0, 80, 160]), seed=0
        )
        assert result.levels.size == 3
        assert result.current.means[2] > result.current.means[0]

    def test_seeded_reproducibility(self):
        a = characterize(
            AttackSession.create(seed=3),
            samples_per_level=50,
            levels=np.array([0, 160]),
            seed=3,
        )
        b = characterize(
            AttackSession.create(seed=3),
            samples_per_level=50,
            levels=np.array([0, 160]),
            seed=3,
        )
        np.testing.assert_allclose(a.current.means, b.current.means)

    def test_small_virus_array(self):
        virus = PowerVirusArray(n_groups=10, seed=0)
        result = characterize(virus=virus, samples_per_level=50, seed=0)
        assert result.levels.size == 11

    def test_invalid_samples_rejected(self):
        with pytest.raises(ValueError):
            characterize(samples_per_level=1)

    def test_channel_lsbs(self):
        assert CHANNEL_LSBS["current"] == 1.0
        assert CHANNEL_LSBS["power"] == 25_000.0
