"""Tests for the simulated hwmon sysfs tree."""

import numpy as np
import pytest
from reference_kernels import read_sysfs

from repro.core.sampler import HwmonSampler
from repro.faults import FaultPlan
from repro.sensors.hwmon import (
    HwmonDevice,
    HwmonLookupError,
    HwmonPermissionError,
    HwmonTree,
    _sorted_runs,
    _unique_latches,
)
from repro.sensors.ina226 import Ina226
from repro.soc import Soc
from repro.soc.rails import PowerRail
from repro.soc.workload import PiecewiseActivity


def make_device(index=0, idle_power=1.0, noise_power_sigma=0.0, seed=0,
                name="ina226_u79"):
    rail = PowerRail(
        "VCCINT",
        idle_power=idle_power,
        noise_power_sigma=noise_power_sigma,
        ripple_sigma=0.0,
    )
    sensor = Ina226(shunt_ohms=2e-3, current_lsb=1e-3)
    return HwmonDevice(index, name, sensor, rail, seed=seed), rail


class TestLatchSemantics:
    def test_polls_within_one_period_return_identical_values(self):
        device, _ = make_device()
        base = device.phase + 10 * device.update_period + 1e-4
        times = base + np.linspace(0, device.update_period * 0.9, 20)
        values = device.read_series("curr1_input", times)
        assert np.unique(values).size == 1

    def test_values_refresh_across_periods(self):
        device, rail = make_device(noise_power_sigma=0.02)
        times = device.phase + device.update_period * (
            np.arange(200) + 1.5
        )
        values = device.read_series("curr1_input", times)
        assert np.unique(values).size > 1

    def test_cross_call_consistency(self):
        device, _ = make_device(noise_power_sigma=0.05)
        t = np.array([1.0, 2.0, 3.0])
        first = device.read_series("curr1_input", t)
        second = device.read_series("curr1_input", t)
        np.testing.assert_array_equal(first, second)

    def test_latch_index_monotonic(self):
        device, _ = make_device()
        times = np.linspace(0, 1, 500)
        latches = device.latch_index(times)
        assert np.all(np.diff(latches) >= 0)

    def test_devices_have_distinct_phases(self):
        a, _ = make_device(index=0, name="ina226_u76")
        b, _ = make_device(index=1, name="ina226_u79")
        assert a.phase != b.phase

    def test_window_reflects_workload_change(self):
        device, rail = make_device(idle_power=0.5)
        step_time = 50 * device.update_period
        rail.attach(
            "step",
            PiecewiseActivity([0.0, step_time, 1e9], [0.0, 4.0]),
        )
        before = device.read_series(
            "curr1_input", np.array([step_time - 5 * device.update_period])
        )[0]
        after = device.read_series(
            "curr1_input", np.array([step_time + 5 * device.update_period])
        )[0]
        assert after > before + 3000  # ~4 W / 0.85 V = ~4.7 A


class TestAttributes:
    def test_curr1_is_milliamps(self):
        device, _ = make_device(idle_power=0.8505)  # ~1 A at 0.8505 V
        value = device.read_series("curr1_input", np.array([1.0]))[0]
        assert 950 <= value <= 1050

    def test_in1_is_millivolts_in_band(self):
        device, _ = make_device()
        value = device.read_series("in1_input", np.array([1.0]))[0]
        assert 825 <= value <= 876

    def test_power1_is_microwatts(self):
        device, _ = make_device(idle_power=2.0)
        value = device.read_series("power1_input", np.array([1.0]))[0]
        assert 1.5e6 <= value <= 2.5e6

    def test_power_moves_in_25mw_steps(self):
        device, rail = make_device(idle_power=2.0)
        times = np.arange(100) * device.update_period * 1.5
        values = device.read_series("power1_input", times)
        steps = np.unique(values)
        assert np.all(steps % 25000 == 0)

    def test_in0_is_shunt_millivolts(self):
        device, _ = make_device(idle_power=2.0)  # ~2.35 A * 2 mOhm = ~4.7 mV
        value = device.read_series("in0_input", np.array([1.0]))[0]
        assert 3 <= value <= 7

    def test_update_interval_readable_unprivileged(self):
        device, _ = make_device()
        assert device.read("update_interval") == "35"

    def test_name_attribute(self):
        device, _ = make_device()
        assert device.read("name") == "ina226_u79"

    def test_read_returns_string(self):
        device, _ = make_device()
        assert isinstance(device.read("curr1_input", 1.0), str)

    def test_unknown_attribute_raises(self):
        device, _ = make_device()
        with pytest.raises(HwmonLookupError):
            device.read_series("temp1_input", np.array([0.0]))


class TestPermissions:
    def test_unprivileged_write_denied(self):
        device, _ = make_device()
        with pytest.raises(HwmonPermissionError, match="root"):
            device.write("update_interval", "2", privileged=False)

    def test_privileged_write_reconfigures(self):
        device, _ = make_device()
        device.write("update_interval", "2", privileged=True)
        assert device.update_period == pytest.approx(2e-3, rel=0.2)

    def test_interval_range_enforced(self):
        device, _ = make_device()
        with pytest.raises(ValueError):
            device.write("update_interval", "1", privileged=True)
        with pytest.raises(ValueError):
            device.write("update_interval", "100", privileged=True)

    def test_only_update_interval_writable(self):
        device, _ = make_device()
        with pytest.raises(HwmonLookupError):
            device.write("curr1_input", "0", privileged=True)


class TestTree:
    @pytest.fixture
    def tree(self):
        tree = HwmonTree()
        for index, name in enumerate(["ina226_u76", "ina226_u79"]):
            device, _ = make_device(index=index, name=name, seed=3)
            tree.register(device)
        return tree

    def test_path_read(self, tree):
        value = read_sysfs(tree, "/sys/class/hwmon/hwmon1/curr1_input", 1.0)
        assert int(value) > 0

    def test_read_series_by_path(self, tree):
        device, attribute = tree._resolve("/sys/class/hwmon/hwmon0/curr1_input")
        values = device.read_series(attribute, np.linspace(0, 1, 10))
        assert values.shape == (10,)

    def test_device_by_name(self, tree):
        assert tree.devices()[1].name == "ina226_u79"

    def test_unknown_index_raises(self, tree):
        with pytest.raises(HwmonLookupError):
            tree.device(7)

    def test_malformed_path_raises(self, tree):
        with pytest.raises(HwmonLookupError):
            read_sysfs(tree, "/sys/class/thermal/thermal_zone0/temp")
        with pytest.raises(HwmonLookupError):
            read_sysfs(tree, "/sys/class/hwmon/hwmonX/curr1_input")

    def test_out_of_order_registration_rejected(self):
        tree = HwmonTree()
        device, _ = make_device(index=5)
        with pytest.raises(ValueError, match="out of order"):
            tree.register(device)

    def test_duplicate_name_rejected(self, tree):
        device, _ = make_device(index=2, name="ina226_u76")
        with pytest.raises(ValueError, match="duplicate"):
            tree.register(device)

    def test_list_paths(self, tree):
        # What ``ls`` would enumerate is readable through the tree.
        for device in tree.devices():
            for attribute in HwmonDevice.READABLE_ATTRS:
                read_sysfs(tree, f"{device.path}/{attribute}", 1.0)

    def test_unprivileged_write_through_tree(self, tree):
        with pytest.raises(HwmonPermissionError):
            tree.write("/sys/class/hwmon/hwmon0/update_interval", "2")


class TestSortFreeDedupe:
    """``_unique_latches`` gives ``np.unique``'s integers on every path."""

    @staticmethod
    def _assert_matches_unique(latches):
        got = _unique_latches(latches)
        want = np.unique(np.concatenate(latches), return_inverse=True)
        for got_part, want_part in zip(got, want):
            assert got_part.dtype == want_part.dtype
            assert np.array_equal(got_part, want_part)

    @staticmethod
    def _fpga(plan=None):
        soc = Soc("ZCU102", seed=0)
        soc.arm_faults(plan)
        return soc.device("fpga")

    def test_one_sorted_request(self):
        device = self._fpga()
        self._assert_matches_unique(
            [device.latch_index(np.linspace(1.0, 3.0, 2000))]
        )

    def test_three_equal_requests(self):
        device = self._fpga()
        times = np.linspace(1.0, 3.0, 2000)
        self._assert_matches_unique(
            [device.latch_index(times) for _ in range(3)]
        )

    def test_three_different_sorted_requests(self):
        device = self._fpga()
        self._assert_matches_unique(
            [
                device.latch_index(np.linspace(0.5 + 0.3 * i, 2.0 + i, 700 + i))
                for i in range(3)
            ]
        )

    def test_fault_shaped_latches_fall_back(self):
        # At seed 0 an interval flip near 92 s steps the latches back.
        device = self._fpga(FaultPlan.at_rate(0.05))
        latches = [
            device.latch_index(np.linspace(90.0, 94.0, 4000 + i))
            for i in range(3)
        ]
        assert all((np.diff(request) < 0).any() for request in latches)
        assert _sorted_runs(latches[0]) is None
        self._assert_matches_unique(latches)
        self._assert_matches_unique(latches[:1])

    def test_stale_failure(self):
        device = self._fpga()
        device.inject_failure("stale", 2.0)
        times = np.linspace(1.0, 3.0, 2000)
        latches = device.latch_index(times)
        assert (latches[times >= 2.0] == latches[-1]).all()
        self._assert_matches_unique([latches])
        self._assert_matches_unique([latches, device.latch_index(times[::3])])

    def test_empty_and_constant_requests(self):
        empty = np.zeros(0, dtype=np.int64)
        constant = np.full(5, 7, dtype=np.int64)
        self._assert_matches_unique([empty])
        self._assert_matches_unique([constant, empty, constant])

    def test_fault_free_collect_never_sorts(self, hwmon_unique_calls):
        sampler = HwmonSampler(Soc("ZCU102", seed=0), seed=0)
        trace = sampler.collect("fpga", "current", start=1.0, duration=2.0)
        assert trace.values.size > 0
        assert hwmon_unique_calls.calls == 0
