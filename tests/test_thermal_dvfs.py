"""Tests for the DVFS governor and the CPU cluster model."""

import numpy as np
import pytest

from repro.soc.dvfs import (
    ZYNQMP_A53_OPPS,
    CpuClusterModel,
    OndemandGovernor,
    )


class TestGovernor:
    def test_boots_at_lowest_opp(self):
        governor = OndemandGovernor()
        assert governor.current.frequency_hz == pytest.approx(300e6)

    def test_high_load_jumps_to_max(self):
        governor = OndemandGovernor()
        opp = governor.step(0.95)
        assert opp.frequency_hz == pytest.approx(1200e6)

    def test_low_load_steps_down_gradually(self):
        governor = OndemandGovernor()
        governor.step(1.0)  # -> 1200 MHz
        first = governor.step(0.05)
        second = governor.step(0.05)
        assert first.frequency_hz == pytest.approx(600e6)
        assert second.frequency_hz == pytest.approx(300e6)

    def test_mid_load_holds(self):
        governor = OndemandGovernor()
        governor.step(1.0)
        held = governor.step(0.5)  # between thresholds
        assert held.frequency_hz == pytest.approx(1200e6)

    def test_reset(self):
        governor = OndemandGovernor()
        governor.step(1.0)
        governor.reset()
        assert governor.current.frequency_hz == pytest.approx(300e6)

    def test_trace(self):
        governor = OndemandGovernor()
        opps = governor.trace([0.9, 0.5, 0.1, 0.1])
        freqs = [opp.frequency_hz for opp in opps]
        assert freqs == [1200e6, 1200e6, 600e6, 300e6]

    def test_load_out_of_range(self):
        with pytest.raises(ValueError):
            OndemandGovernor().step(1.5)

    def test_invalid_thresholds(self):
        with pytest.raises(ValueError):
            OndemandGovernor(up_threshold=0.2, down_threshold=0.5)

    def test_empty_opps_rejected(self):
        with pytest.raises(ValueError):
            OndemandGovernor(opps=[])


class TestCpuClusterModel:
    def test_idle_power_floor(self):
        cluster = CpuClusterModel()
        opp = ZYNQMP_A53_OPPS[0]
        assert cluster.power_at(0.0, opp) == pytest.approx(cluster.p_idle)

    def test_full_load_at_max_opp_near_1w(self):
        cluster = CpuClusterModel()
        opp = ZYNQMP_A53_OPPS[-1]
        power = cluster.power_at(1.0, opp)
        assert 0.9 < power < 1.5

    def test_power_scales_with_frequency(self):
        cluster = CpuClusterModel()
        slow = cluster.power_at(1.0, ZYNQMP_A53_OPPS[0])
        fast = cluster.power_at(1.0, ZYNQMP_A53_OPPS[-1])
        assert fast > 2 * slow

    def test_render_timeline(self):
        cluster = CpuClusterModel()
        timeline = cluster.render([0.0, 1.0, 1.0, 0.0], period=0.01)
        t = np.array([0.005, 0.015, 0.035])
        powers = timeline.power_at(t)
        assert powers[1] > powers[0]  # busy period draws more
        assert powers[2] < powers[1]  # idle again (but governor lags)

    def test_render_respects_governor_lag(self):
        cluster = CpuClusterModel()
        timeline = cluster.render([1.0, 0.2, 0.2, 0.2], period=0.01)
        # Right after the burst the governor is still at a high OPP,
        # so the 0.2-load periods step down in power over time.
        p1 = timeline.power_at(np.array([0.015]))[0]
        p3 = timeline.power_at(np.array([0.035]))[0]
        assert p3 <= p1

    def test_render_empty_rejected(self):
        with pytest.raises(ValueError):
            CpuClusterModel().render([])

    def test_attachable_to_soc_rail(self):
        from repro.soc import Soc

        soc = Soc("ZCU102", seed=0)
        cluster = CpuClusterModel()
        rng = np.random.default_rng(0)
        loads = np.clip(rng.random(200), 0, 1)
        soc.attach_workload(
            "fpd", "cpu-load", cluster.render(loads, period=0.01, start=1.0)
        )
        busy = soc.sample("fpd", "current", np.array([2.0]))[0]
        idle = soc.sample("fpd", "current", np.array([0.5]))[0]
        assert busy > idle
