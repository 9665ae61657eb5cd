"""Tests for the assembled SoC simulator."""

import numpy as np
import pytest
from reference_kernels import read_sysfs

from repro.soc import ConstantActivity, CycleRunActivity, Soc
from repro.soc.soc import RailNoiseProfile


@pytest.fixture
def soc():
    return Soc("ZCU102", seed=1)


class TestConstruction:
    def test_default_board(self, soc):
        assert soc.board.name == "ZCU102"

    def test_eighteen_hwmon_devices(self, soc):
        assert len(soc.hwmon.devices()) == 18

    def test_device_names_match_designators(self, soc):
        names = {device.name for device in soc.hwmon.devices()}
        assert "ina226_u79" in names
        assert "ina226_u76" in names

    def test_sensitive_channels(self, soc):
        channels = dict(soc.sensitive_channels())
        assert channels == {
            "fpd": "u76", "lpd": "u77", "fpga": "u79", "ddr": "u93"
        }

    def test_rail_lookup_by_domain_and_designator(self, soc):
        assert soc.rail("fpga") is soc.rail("u79")

    def test_unknown_rail_raises(self, soc):
        with pytest.raises(KeyError, match="available"):
            soc.rail("gpu")

    def test_unknown_device_raises(self, soc):
        with pytest.raises(KeyError):
            soc.device("u999")

    def test_fabric_matches_board(self, soc):
        assert soc.fabric.board.name == "ZCU102"

    def test_other_board(self):
        soc = Soc("VCK190", seed=0)
        assert len(soc.hwmon.devices()) == 17
        low, high = soc.rail("fpga").regulator.band
        assert (low, high) == (0.775, 0.825)

    def test_noise_profile_override(self):
        soc = Soc(
            "ZCU102",
            noise_profiles={
                "fpga": RailNoiseProfile(power_sigma=0.0, ripple_sigma=0.0)
            },
        )
        assert soc.rail("fpga").noise_power_sigma == 0.0

    def test_repr(self, soc):
        assert "ZCU102" in repr(soc)


class TestWorkloads:
    def test_attach_detach(self, soc):
        soc.attach_workload("fpga", "virus", ConstantActivity(1.0))
        assert "virus" in soc.rail("fpga")._workloads
        soc.detach_workload("fpga", "virus")
        assert "virus" not in soc.rail("fpga")._workloads

    def test_replace(self, soc):
        soc.attach_workload("fpga", "virus", ConstantActivity(1.0))
        soc.replace_workload("fpga", "virus", ConstantActivity(2.0))
        assert len(soc.rail("fpga")._workloads) == 1



class TestSampling:
    def test_sample_current_units(self, soc):
        # Idle FPGA rail: ~0.55 A -> ~550 mA readings.
        values = soc.sample("fpga", "current", np.array([1.0]))
        assert 400 <= values[0] <= 700

    def test_sample_voltage_in_band(self, soc):
        values = soc.sample("fpga", "voltage", np.linspace(0, 1, 5))
        assert np.all(values >= 825)
        assert np.all(values <= 876)

    def test_sample_power_consistent_with_current(self, soc):
        t = np.array([2.0])
        current_ma = soc.sample("fpga", "current", t)[0]
        power_uw = soc.sample("fpga", "power", t)[0]
        # P ~= I * 0.85 V, within power-LSB truncation (25 mW).
        expected = current_ma * 0.85 * 1e3  # uW
        assert abs(power_uw - expected) < 30_000

    def test_workload_visible_in_current(self, soc):
        idle = soc.sample("fpga", "current", np.array([1.0]))[0]
        soc.attach_workload("fpga", "virus", ConstantActivity(3.0))
        loaded = soc.sample("fpga", "current", np.array([1.0]))[0]
        assert loaded > idle + 3000  # 3 W / 0.85 V ~= 3.5 A

    def test_workload_isolated_to_its_rail(self, soc):
        before = soc.sample("ddr", "current", np.array([1.0]))[0]
        soc.attach_workload("fpga", "virus", ConstantActivity(3.0))
        after = soc.sample("ddr", "current", np.array([1.0]))[0]
        assert before == after

    def test_invalid_quantity_rejected(self, soc):
        with pytest.raises(ValueError):
            soc.sample("fpga", "temperature", np.array([0.0]))

    def test_sysfs_path(self, soc):
        path = soc.sysfs_path("fpga", "current")
        assert path.startswith("/sys/class/hwmon/hwmon")
        assert path.endswith("/curr1_input")

    def test_sysfs_path_resolves_through_tree(self, soc):
        path = soc.sysfs_path("fpga", "current")
        value = read_sysfs(soc.hwmon, path, 1.0)
        assert int(value) > 0

    def test_seeded_reproducibility(self):
        a = Soc("ZCU102", seed=7)
        b = Soc("ZCU102", seed=7)
        t = np.linspace(0, 2, 50)
        np.testing.assert_array_equal(
            a.sample("fpga", "current", t), b.sample("fpga", "current", t)
        )

    def test_different_seeds_differ(self):
        a = Soc("ZCU102", seed=1)
        b = Soc("ZCU102", seed=2)
        t = np.linspace(0, 2, 50)
        assert not np.array_equal(
            a.sample("fpga", "current", t), b.sample("fpga", "current", t)
        )

    def test_ddr_rail_voltage_is_1v2(self, soc):
        values = soc.sample("ddr", "voltage", np.array([1.0]))
        assert 1140 <= values[0] <= 1260


class TestStaggeredVictims:
    """60 back-to-back 10 s DPU victims, as in a 600 s monitoring run."""

    def test_chunk_read_integrates_only_overlapping_victims(
        self, staggered_soc, monkeypatch
    ):
        victims = {
            id(component)
            for component in staggered_soc.rail("fpga").timeline().components
            if isinstance(component, CycleRunActivity)
        }
        assert len(victims) == 60
        evaluated = []
        energy_between = CycleRunActivity.energy_between

        def counting(self, t0, t1):
            if id(self) in victims:
                evaluated.append(id(self))
            return energy_between(self, t0, t1)

        monkeypatch.setattr(CycleRunActivity, "energy_between", counting)
        # A 0.5 s chunk across the hand-over from victim 9 to victim 10.
        times = np.linspace(99.75, 100.25, 500, endpoint=False)
        staggered_soc.device("fpga").read_series("curr1_input", times)
        assert 1 <= len(evaluated) <= 2

    @pytest.mark.xfail(
        strict=True,
        reason="finite DPU timelines hold their non-zero first FPD segment "
        "before they start, so victims that have not started yet draw "
        "power (EXPERIMENTS.md, known modelling gaps)",
    )
    def test_fpd_power_at_start_is_idle_plus_active_victim(self, staggered_soc):
        rail = staggered_soc.rail("fpd")
        # Components are the idle draw, then victims in deployment order.
        active = rail.timeline().components[1]
        t0, t1 = np.array([0.0]), np.array([0.5])
        np.testing.assert_allclose(
            rail.mean_power(t0, t1),
            rail.idle_power + active.window_mean(t0, t1),
            rtol=1e-9,
        )
