"""Property-based tests for fabric allocation and hwmon latch logic."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_kernels import fabric_totals

from repro.fpga.fabric import CircuitSpec, Fabric, PlacementError
from repro.sensors.hwmon import HwmonDevice
from repro.sensors.ina226 import Ina226
from repro.soc.rails import PowerRail

utilizations = st.fixed_dictionaries(
    {},
    optional={
        "lut": st.integers(min_value=1, max_value=5000),
        "ff": st.integers(min_value=1, max_value=5000),
        "dsp": st.integers(min_value=1, max_value=50),
        "bram": st.integers(min_value=1, max_value=20),
    },
)


class TestFabricProperties:
    @given(st.lists(utilizations, min_size=1, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_deploy_undeploy_roundtrip(self, utilization_list):
        fabric = Fabric("ZCU102")
        deployed = []
        for index, utilization in enumerate(utilization_list):
            if not utilization:
                continue
            try:
                fabric.deploy(CircuitSpec(f"c{index}", utilization))
                deployed.append(f"c{index}")
            except PlacementError:
                pass
        for name in deployed:
            fabric.undeploy(name)
        # Everything released: usage is exactly zero everywhere.
        assert all(
            count == 0 for count in fabric_totals(fabric, "used").values()
        )

    @given(utilizations)
    @settings(max_examples=40, deadline=None)
    def test_usage_equals_deployed_totals(self, utilization):
        if not utilization:
            return
        fabric = Fabric("ZCU102")
        try:
            fabric.deploy(CircuitSpec("c", utilization))
        except PlacementError:
            return
        for resource, count in utilization.items():
            assert fabric_totals(fabric, "used")[resource] == count

    @given(utilizations)
    @settings(max_examples=40, deadline=None)
    def test_usage_never_exceeds_capacity(self, utilization):
        if not utilization:
            return
        fabric = Fabric("ZCU102")
        try:
            fabric.deploy(CircuitSpec("c", utilization))
        except PlacementError:
            return
        capacity = fabric_totals(fabric, "capacity")
        for resource, used in fabric_totals(fabric, "used").items():
            assert used <= capacity.get(resource, 0)


def make_device(seed=0):
    rail = PowerRail("VCCINT", idle_power=1.0, noise_power_sigma=0.01)
    sensor = Ina226(shunt_ohms=2e-3)
    return HwmonDevice(0, "ina226_u79", sensor, rail, seed=seed)


class TestHwmonLatchProperties:
    @given(
        st.floats(min_value=0.0, max_value=1000.0),
        st.floats(min_value=0.0, max_value=1000.0),
        st.integers(min_value=0, max_value=100),
    )
    @settings(max_examples=50, deadline=None)
    def test_latch_monotone(self, t_a, t_b, seed):
        device = make_device(seed)
        low, high = sorted((t_a, t_b))
        latches = device.latch_index(np.array([low, high]))
        assert latches[0] <= latches[1]

    @given(
        st.floats(min_value=1.0, max_value=1000.0),
        st.integers(min_value=0, max_value=100),
    )
    @settings(max_examples=50, deadline=None)
    def test_same_latch_same_value(self, t, seed):
        device = make_device(seed)
        period = device.update_period
        # Two polls inside the same period after the latch boundary.
        base = device.phase + np.floor(
            (t - device.phase) / period
        ) * period
        t0 = base + 0.1 * period
        t1 = base + 0.9 * period
        values = device.read_series("curr1_input", np.array([t0, t1]))
        assert values[0] == values[1]

    @given(
        st.floats(min_value=1.0, max_value=1000.0),
        st.integers(min_value=0, max_value=100),
    )
    @settings(max_examples=50, deadline=None)
    def test_reads_are_idempotent(self, t, seed):
        device = make_device(seed)
        first = device.read_series("curr1_input", np.array([t]))[0]
        second = device.read_series("curr1_input", np.array([t]))[0]
        assert first == second

    @given(st.integers(min_value=0, max_value=1000))
    @settings(max_examples=30, deadline=None)
    def test_readings_physical(self, seed):
        device = make_device(seed)
        times = np.linspace(1.0, 5.0, 40)
        current = device.read_series("curr1_input", times)
        voltage = device.read_series("in1_input", times)
        assert np.all(current >= 0)
        assert np.all((voltage >= 825) & (voltage <= 876))
