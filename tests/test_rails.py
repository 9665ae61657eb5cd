"""Tests for power rails."""

import numpy as np
import pytest

from repro.fpga.pdn import VoltageRegulator
from repro.soc.rails import PowerRail
from repro.soc.workload import ConstantActivity, PiecewiseActivity


class TestAttachment:
    @pytest.fixture
    def rail(self):
        return PowerRail("VCCINT", idle_power=0.5)

    def test_attach_and_names(self, rail):
        rail.attach("virus", ConstantActivity(1.0))
        assert tuple(rail._workloads) == ("virus",)

    def test_duplicate_attach_rejected(self, rail):
        rail.attach("virus", ConstantActivity(1.0))
        with pytest.raises(ValueError, match="already attached"):
            rail.attach("virus", ConstantActivity(2.0))

    def test_replace(self, rail):
        rail.attach("virus", ConstantActivity(1.0))
        rail.replace("virus", ConstantActivity(2.0))
        assert rail.mean_power(np.array([0.0]), np.array([1.0]))[0] == (
            pytest.approx(2.5)
        )

    def test_detach(self, rail):
        rail.attach("virus", ConstantActivity(1.0))
        rail.detach("virus")
        assert tuple(rail._workloads) == ()

    def test_detach_missing_raises(self, rail):
        with pytest.raises(KeyError):
            rail.detach("ghost")

    def test_non_timeline_rejected(self, rail):
        with pytest.raises(TypeError):
            rail.attach("x", 3.0)

    def test_failed_replace_keeps_workload(self, rail):
        rail.attach("virus", ConstantActivity(1.0))
        with pytest.raises(TypeError):
            rail.replace("virus", 3.0)
        assert tuple(rail._workloads) == ("virus",)
        assert rail.mean_power(np.array([0.0]), np.array([1.0]))[0] == (
            pytest.approx(1.5)
        )


class TestCachedComposite:
    """The rail builds its composite once per change of its workloads."""

    @pytest.fixture
    def rail(self):
        return PowerRail("VCCINT", idle_power=0.5)

    def test_batches_reuse_one_composite(self, rail):
        rail.attach("a", ConstantActivity(1.0))
        timeline = rail.timeline()
        rail.window_state(np.array([0.0]), np.array([1.0]))
        assert rail.timeline() is timeline

    def test_every_change_rebuilds_it(self, rail):
        a, b = ConstantActivity(1.0), ConstantActivity(0.25)
        seen = [rail.timeline()]
        assert isinstance(seen[-1], ConstantActivity)
        rail.attach("a", a)
        seen.append(rail.timeline())
        assert seen[-1].components[1:] == (a,)
        rail.attach("b", b)
        seen.append(rail.timeline())
        assert seen[-1].components[1:] == (a, b)
        rail.replace("a", b)
        seen.append(rail.timeline())
        assert seen[-1].components[1:] == (b, b)
        rail.detach("b")
        seen.append(rail.timeline())
        assert seen[-1].components[1:] == (b,)
        rail.detach("a")
        seen.append(rail.timeline())
        assert isinstance(seen[-1], ConstantActivity)
        assert len({id(timeline) for timeline in seen}) == len(seen)
        np.testing.assert_allclose(
            rail.mean_power(np.array([0.0]), np.array([1.0])), [0.5]
        )

    def test_idle_power_is_read_only(self, rail):
        with pytest.raises(AttributeError):
            rail.idle_power = 1.0


class TestPowerAggregation:
    def test_idle_only(self):
        rail = PowerRail("VCCINT", idle_power=0.7)
        np.testing.assert_allclose(
            rail.mean_power(np.array([0.0]), np.array([1.0])), [0.7]
        )

    def test_idle_plus_workloads(self):
        rail = PowerRail("VCCINT", idle_power=0.5)
        rail.attach("a", ConstantActivity(1.0))
        rail.attach("b", ConstantActivity(0.25))
        np.testing.assert_allclose(
            rail.mean_power(np.array([0.0]), np.array([1.0])), [1.75]
        )

    def test_time_varying_workload(self):
        rail = PowerRail("VCCINT", idle_power=0.0)
        rail.attach(
            "wave", PiecewiseActivity([0.0, 1.0, 2.0], [2.0, 0.0], period=2.0)
        )
        np.testing.assert_allclose(
            rail.mean_power(np.array([0.0]), np.array([2.0])), [1.0]
        )


class TestWindowState:
    def test_current_equals_power_over_voltage(self):
        regulator = VoltageRegulator(r_loadline=0.0, k_quadratic=0.0)
        rail = PowerRail("VCCINT", regulator=regulator, idle_power=0.8505)
        current, voltage = rail.window_state(np.array([0.0]), np.array([1.0]))
        assert voltage[0] == pytest.approx(0.8505)
        assert current[0] == pytest.approx(1.0)

    def test_droop_feedback_converges(self):
        regulator = VoltageRegulator(r_loadline=1e-3, k_quadratic=0.0)
        rail = PowerRail("VCCINT", regulator=regulator, idle_power=4.0)
        current, voltage = rail.window_state(np.array([0.0]), np.array([1.0]))
        # Self-consistency: V = reg(I) and I = P/V.
        assert voltage[0] == pytest.approx(
            regulator.voltage(current)[0], rel=1e-6
        )
        assert current[0] * voltage[0] == pytest.approx(4.0, rel=1e-4)

    def test_power_noise_shifts_current(self):
        rail = PowerRail("VCCINT", idle_power=1.0)
        base, _ = rail.window_state(np.array([0.0]), np.array([1.0]))
        bumped, _ = rail.window_state(
            np.array([0.0]), np.array([1.0]), power_noise=np.array([0.085])
        )
        assert bumped[0] > base[0]

    def test_negative_noise_cannot_go_below_zero_power(self):
        rail = PowerRail("VCCINT", idle_power=0.01)
        current, _ = rail.window_state(
            np.array([0.0]), np.array([1.0]), power_noise=np.array([-1.0])
        )
        assert current[0] == 0.0

    def test_ripple_moves_voltage_not_power(self):
        rail = PowerRail("VCCINT", idle_power=1.0)
        _, quiet = rail.window_state(np.array([0.0]), np.array([1.0]))
        _, rippled = rail.window_state(
            np.array([0.0]), np.array([1.0]), ripple=np.array([0.002])
        )
        assert rippled[0] == pytest.approx(quiet[0] + 0.002, abs=1e-6)

    def test_vectorized_windows(self):
        rail = PowerRail("VCCINT", idle_power=1.0)
        t0 = np.linspace(0, 1, 100)
        current, voltage = rail.window_state(t0, t0 + 0.035)
        assert current.shape == (100,)
        assert voltage.shape == (100,)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            PowerRail("x", noise_power_sigma=-1.0)

    def test_repr(self):
        assert "VCCINT" in repr(PowerRail("VCCINT"))
