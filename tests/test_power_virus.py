"""Tests for the power-virus array (Fig 2 victim workload)."""

import numpy as np
import pytest

from repro.fpga.power_virus import PowerVirusArray


class TestConstruction:
    def test_paper_defaults(self):
        array = PowerVirusArray(seed=1)
        assert array.n_groups == 160
        assert array.INSTANCES_PER_GROUP == 1000
        assert array.n_instances == 160_000

    def test_sweep_levels_has_161_entries(self):
        array = PowerVirusArray(seed=1)
        assert array.sweep_levels().size == 161

    def test_group_heterogeneity_is_seeded(self):
        a = PowerVirusArray(seed=7).group_dynamic_power
        b = PowerVirusArray(seed=7).group_dynamic_power
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        a = PowerVirusArray(seed=1).group_dynamic_power
        b = PowerVirusArray(seed=2).group_dynamic_power
        assert not np.array_equal(a, b)

    def test_group_powers_near_nominal(self):
        array = PowerVirusArray(seed=3)
        nominal = 1000 * 35e-6
        np.testing.assert_allclose(
            array.group_dynamic_power.mean(), nominal, rtol=0.02
        )

    def test_zero_spread_gives_identical_groups(self):
        array = PowerVirusArray(group_power_spread=0.0, seed=1)
        assert np.ptp(array.group_dynamic_power) == 0.0

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            PowerVirusArray(n_groups=0)
        with pytest.raises(ValueError):
            PowerVirusArray(dynamic_power_per_instance=0.0)
        with pytest.raises(ValueError):
            PowerVirusArray(static_power_per_instance=-1e-6)


class TestActivation:
    @pytest.fixture
    def array(self):
        return PowerVirusArray(seed=42)

    def test_initially_inactive(self, array):
        assert array.dynamic_power_at_level() == 0.0

    def test_set_active_groups(self, array):
        array.set_active_groups(10)
        assert array.dynamic_power_at_level() == (
            array.dynamic_power_at_level(10)
        )
        assert array.dynamic_power_at_level() > 0.0

    def test_out_of_range_rejected(self, array):
        with pytest.raises(ValueError):
            array.set_active_groups(161)
        with pytest.raises(ValueError):
            array.set_active_groups(-1)

    def test_dynamic_power_monotonic_in_level(self, array):
        powers = [array.dynamic_power_at_level(k) for k in range(161)]
        assert all(b > a for a, b in zip(powers, powers[1:]))

    def test_dynamic_power_zero_at_level_zero(self, array):
        assert array.dynamic_power_at_level(0) == 0.0

    def test_full_activation_magnitude(self, array):
        # 160 k instances * ~35 uW ~= 5.6 W of dynamic power: the
        # amperes-scale swing Fig 2 shows on the 0.85 V rail.
        full = array.dynamic_power_at_level(160)
        assert 4.5 < full < 7.0

    def test_static_floor_nonzero(self, array):
        # Deployed-but-idle instances leak — Fig 2's non-zero start.
        assert array.static_power > 0.3

    def test_total_power_includes_static(self, array):
        assert array.total_power_at_level(0) == pytest.approx(array.static_power)

    def test_default_level_uses_current_activation(self, array):
        array.set_active_groups(5)
        assert array.dynamic_power_at_level() == pytest.approx(
            array.dynamic_power_at_level(5)
        )


class TestTimeline:
    def test_timeline_is_constant(self):
        array = PowerVirusArray(seed=1)
        array.set_active_groups(80)
        timeline = array.timeline()
        t = np.linspace(0, 1, 11)
        np.testing.assert_allclose(
            timeline.power_at(t), array.total_power_at_level(80)
        )

    def test_timeline_level_override(self):
        array = PowerVirusArray(seed=1)
        timeline = array.timeline(level=160)
        assert timeline.power_at(np.array([0.0]))[0] == pytest.approx(
            array.total_power_at_level(160)
        )

    def test_circuit_spec_resources(self):
        array = PowerVirusArray(seed=1)
        spec = array.circuit_spec()
        assert spec.utilization == {"lut": 160_000, "ff": 160_000}
        assert spec.activity["lut"] == 1.0
