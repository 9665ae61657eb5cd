"""Tests for background interference and sensor failure injection."""

import numpy as np
import pytest

from repro.sensors.hwmon import HwmonLookupError
from repro.soc import Soc
from repro.soc.interference import (
    HEAVY_BACKGROUND,
    LIGHT_BACKGROUND,
    BackgroundLoad,
    BurstProfile,
    burst_timeline,
)


class TestBurstTimeline:
    def test_covers_duration(self):
        profile = BurstProfile(rate_hz=5.0, mean_duration=0.02,
                               mean_power=0.5)
        timeline = burst_timeline(profile, duration=2.0, seed=1)
        # Power defined and non-negative through the window.
        t = np.linspace(0, 2, 100)
        assert np.all(timeline.power_at(t) >= 0)

    def test_zero_rate_is_silent(self):
        profile = BurstProfile(rate_hz=0.0, mean_duration=0.02,
                               mean_power=0.5)
        timeline = burst_timeline(profile, duration=1.0, seed=1)
        np.testing.assert_allclose(
            timeline.power_at(np.linspace(0, 1, 20)), 0.0
        )

    def test_seeded_determinism(self):
        profile = LIGHT_BACKGROUND["fpd"]
        a = burst_timeline(profile, 2.0, seed=3)
        b = burst_timeline(profile, 2.0, seed=3)
        t = np.linspace(0, 2, 50)
        np.testing.assert_allclose(a.power_at(t), b.power_at(t))

    def test_heavier_profile_more_energy(self):
        window = (np.array([0.0]), np.array([10.0]))
        light = burst_timeline(
            LIGHT_BACKGROUND["ddr"], 10.0, seed=4
        ).energy_between(*window)[0]
        heavy = burst_timeline(
            HEAVY_BACKGROUND["ddr"], 10.0, seed=4
        ).energy_between(*window)[0]
        assert heavy > light

    def test_invalid_duration(self):
        with pytest.raises(ValueError):
            burst_timeline(LIGHT_BACKGROUND["fpd"], 0.0)


class TestBackgroundLoad:
    def test_attach_covers_rails(self):
        soc = Soc("ZCU102", seed=0)
        load = BackgroundLoad(seed=1)
        load.attach(soc, duration=5.0)
        for domain in ("fpd", "lpd", "ddr", "fpga"):
            assert "background" in soc.rail(domain)._workloads
        load.detach(soc)
        for domain in ("fpd", "lpd", "ddr", "fpga"):
            assert "background" not in soc.rail(domain)._workloads

    def test_background_raises_observed_variance(self):
        quiet = Soc("ZCU102", seed=2)
        busy = Soc("ZCU102", seed=2)
        BackgroundLoad(HEAVY_BACKGROUND, seed=1).attach(
            busy, duration=20.0
        )
        times = 0.5 + np.arange(400) * 0.0352
        quiet_std = quiet.sample("fpd", "current", times).std()
        busy_std = busy.sample("fpd", "current", times).std()
        assert busy_std > 2 * quiet_std


class TestFailureInjection:
    def test_stale_sensor_freezes_readings(self):
        soc = Soc("ZCU102", seed=3)
        device = soc.device("fpga")
        device.inject_failure("stale", at_time=5.0)
        times = 5.1 + np.arange(50) * 0.0352
        values = device.read_series("curr1_input", times)
        assert np.unique(values).size == 1

    def test_stale_sensor_normal_before_hang(self):
        soc = Soc("ZCU102", seed=3)
        device = soc.device("fpga")
        device.inject_failure("stale", at_time=50.0)
        times = 1.0 + np.arange(100) * 0.0352
        values = device.read_series("curr1_input", times)
        assert np.unique(values).size > 5

    def test_unbind_raises(self):
        soc = Soc("ZCU102", seed=3)
        device = soc.device("fpga")
        device.inject_failure("unbind", at_time=2.0)
        with pytest.raises(HwmonLookupError, match="unbound"):
            device.read_series("curr1_input", np.array([3.0]))

    def test_unbind_ok_before_removal(self):
        soc = Soc("ZCU102", seed=3)
        device = soc.device("fpga")
        device.inject_failure("unbind", at_time=10.0)
        values = device.read_series("curr1_input", np.array([1.0]))
        assert values[0] > 0

    def test_clear_failure(self):
        soc = Soc("ZCU102", seed=3)
        device = soc.device("fpga")
        device.inject_failure("unbind", at_time=0.0)
        device.clear_failure()
        assert device.read_series("curr1_input", np.array([1.0]))[0] > 0

    def test_unknown_mode_rejected(self):
        soc = Soc("ZCU102", seed=3)
        with pytest.raises(ValueError):
            soc.device("fpga").inject_failure("explode", at_time=0.0)

    def test_stale_sensor_hides_late_victim(self):
        # Failure downstream: a victim that deploys after the sensor
        # hangs never appears in the readings — the stakeout loop
        # watches a frozen idle conversion forever.
        from repro.core.detector import OnsetDetector
        from repro.core.sampler import HwmonSampler
        from repro.soc import PiecewiseActivity

        soc = Soc("ZCU102", seed=3)
        soc.device("fpga").inject_failure("stale", at_time=1.0)
        soc.attach_workload(
            "fpga", "victim",
            PiecewiseActivity([0.0, 5.0, 1e9], [0.0, 3.0]),
        )
        sampler = HwmonSampler(soc, seed=3)
        trace = sampler.collect("fpga", "current", start=0.05,
                                duration=10.0)
        found, _ = OnsetDetector(baseline_window=16).scan_for_onset([trace])
        assert not found


class TestCrossAttributeConsistency:
    def test_attributes_from_same_latch_are_coherent(self):
        # current (mA), voltage (mV) and power (uW) polled at the same
        # instant come from the same conversion: P ~= I*V within the
        # power register's 25 mW truncation.
        from repro.soc import ConstantActivity

        soc = Soc("ZCU102", seed=4)
        soc.attach_workload("fpga", "load", ConstantActivity(2.5))
        times = 1.0 + np.arange(100) * 0.0352
        current = soc.sample("fpga", "current", times).astype(float)
        voltage = soc.sample("fpga", "voltage", times).astype(float)
        power = soc.sample("fpga", "power", times).astype(float)
        predicted = current * voltage  # mA * mV = uW
        # Within one power LSB (25 mW = 25000 uW) plus rounding slack.
        assert np.all(np.abs(power - predicted) < 26_000)
