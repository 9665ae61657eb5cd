"""Unit tests for the deterministic fault-injection plane.

The contract under test: a :class:`repro.faults.FaultPlan` is a pure
function of ``(plan seed, device name, poll time)``, so schedules are
bit-identical across runs and chunk boundaries, different devices fail
independently, and the no-op plan can never perturb anything.
"""

import numpy as np
import pytest

from repro.faults import (
    DEAD,
    FLAKY,
    HEALTHY,
    TORN_MAGNITUDE,
    FaultPlan,
    RetryPolicy,
    SensorHealth,
    resolve_fault_plan,
)

pytestmark = pytest.mark.faults


def _times(n=512, start=1.0, hz=1000.0):
    return start + np.arange(n) / hz


class TestFaultPlanConstruction:
    def test_none_is_noop(self):
        assert FaultPlan().is_noop
        assert FaultPlan(seed=9).seed == 9

    def test_at_rate_zero_is_noop(self):
        assert FaultPlan.at_rate(0.0).is_noop

    def test_at_rate_scales_every_family(self):
        plan = FaultPlan.at_rate(0.4)
        assert plan.transient_rate == 0.4
        assert plan.torn_rate == pytest.approx(0.1)
        assert plan.stale_rate == pytest.approx(0.1)
        assert plan.hotplug_rate == pytest.approx(0.2)
        assert plan.interval_change_rate == pytest.approx(0.05)
        assert not plan.is_noop

    @pytest.mark.parametrize("rate", [-0.1, 1.5])
    def test_at_rate_rejects_out_of_range(self, rate):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            FaultPlan.at_rate(rate)

    def test_field_validation(self):
        with pytest.raises(ValueError, match="transient_rate"):
            FaultPlan(transient_rate=2.0)
        with pytest.raises(ValueError, match="stale_run_latches"):
            FaultPlan(stale_run_latches=0)
        with pytest.raises(ValueError, match="slot_s"):
            FaultPlan(slot_s=0.0)

    def test_repr_forms(self):
        assert "no faults" in repr(FaultPlan())
        assert "transient" in repr(FaultPlan.at_rate(0.1))


class TestResolveFaultPlan:
    def test_none_without_env_resolves_to_nothing(self):
        assert resolve_fault_plan(None) is None

    def test_float_shorthand(self):
        plan = resolve_fault_plan(0.1, seed=2)
        assert plan.transient_rate == 0.1

    def test_plan_passthrough_and_noop_collapse(self):
        plan = FaultPlan.at_rate(0.3)
        assert resolve_fault_plan(plan) is plan
        assert resolve_fault_plan(FaultPlan()) is None
        assert resolve_fault_plan(0.0) is None

    def test_rejects_other_types(self):
        with pytest.raises(TypeError, match="faults must be"):
            resolve_fault_plan("0.5")
        with pytest.raises(TypeError, match="faults must be"):
            resolve_fault_plan(True)


class TestScheduleDeterminism:
    def test_masks_identical_across_calls(self):
        plan = FaultPlan.at_rate(0.3, seed=11)
        key = plan.device_key("ina226_u76")
        times = _times()
        for method in ("transient_mask", "torn_mask", "hotplug_mask"):
            first = getattr(plan, method)(key, times)
            second = getattr(plan, method)(key, times)
            np.testing.assert_array_equal(first, second)
        assert plan.transient_mask(key, times).any()
        assert plan.torn_mask(key, times).any()

    def test_masks_independent_of_chunking(self):
        plan = FaultPlan.at_rate(0.3, seed=11)
        key = plan.device_key("ina226_u76")
        times = _times(400)
        whole = plan.transient_mask(key, times)
        split = np.concatenate(
            [plan.transient_mask(key, times[:123]),
             plan.transient_mask(key, times[123:])]
        )
        np.testing.assert_array_equal(whole, split)

    def test_devices_fail_independently(self):
        plan = FaultPlan.at_rate(0.3, seed=11)
        times = _times()
        a = plan.transient_mask(plan.device_key("ina226_u76"), times)
        b = plan.transient_mask(plan.device_key("ina226_u77"), times)
        assert not np.array_equal(a, b)

    def test_seed_changes_schedule(self):
        times = _times()
        a = FaultPlan.at_rate(0.3, seed=1)
        b = FaultPlan.at_rate(0.3, seed=2)
        assert not np.array_equal(
            a.transient_mask(a.device_key("x"), times),
            b.transient_mask(b.device_key("x"), times),
        )

    def test_retry_time_draws_fresh_outcome(self):
        # A shifted poll is a different hash counter, so a retry can
        # recover — the schedule is per-instant, not per-sample-index.
        plan = FaultPlan.at_rate(0.5, seed=3)
        key = plan.device_key("dev")
        times = _times(200)
        base = plan.transient_mask(key, times)
        shifted = plan.transient_mask(key, times + 2e-3)
        assert base.any()
        assert not np.array_equal(base, shifted)


class TestValueShaping:
    def test_torn_values_break_plausibility(self):
        plan = FaultPlan(torn_rate=0.5, seed=5)
        key = plan.device_key("dev")
        times = _times(256)
        mask = plan.torn_mask(key, times)
        assert mask.any()
        values = np.full(times.shape, 1200, dtype=np.int64)
        corrupted = plan.torn_values(key, values, times, mask)
        assert (np.abs(corrupted[mask]) >= TORN_MAGNITUDE).all()
        np.testing.assert_array_equal(corrupted[~mask], values[~mask])
        # Input untouched (copy-on-corrupt).
        assert (values == 1200).all()

    def test_stale_runs_clamp_blocks(self):
        plan = FaultPlan(stale_rate=1.0, stale_run_latches=4, seed=0)
        latches = np.arange(32)
        shaped = plan.shape_latches(plan.device_key("d"), latches, _times(32))
        np.testing.assert_array_equal(shaped, (latches // 4) * 4)

    def test_interval_change_quantizes(self):
        plan = FaultPlan(
            interval_change_rate=1.0, interval_change_factor=8, seed=0
        )
        latches = np.arange(64)
        shaped = plan.shape_latches(plan.device_key("d"), latches, _times(64))
        np.testing.assert_array_equal(shaped, (latches // 8) * 8)

    def test_noop_plan_shapes_nothing(self):
        plan = FaultPlan()
        latches = np.arange(64)
        shaped = plan.shape_latches(plan.device_key("d"), latches, _times(64))
        np.testing.assert_array_equal(shaped, latches)
        key = plan.device_key("d")
        assert not plan.transient_mask(key, _times()).any()
        assert not plan.torn_mask(key, _times()).any()
        assert not plan.hotplug_mask(key, _times()).any()

    def test_hotplug_windows_respect_duration(self):
        plan = FaultPlan(
            hotplug_rate=1.0, hotplug_duration_s=0.05, slot_s=1.0
        )
        key = plan.device_key("d")
        times = np.arange(0.0, 3.0, 0.01)
        mask = plan.hotplug_mask(key, times)
        in_window = (times - np.floor(times)) < 0.05
        np.testing.assert_array_equal(mask, in_window)


class TestRetryPolicy:
    def test_backoff_is_geometric(self):
        policy = RetryPolicy(backoff_s=1e-3, backoff_multiplier=2.0)
        assert policy.backoff(0) == pytest.approx(1e-3)
        assert policy.backoff(1) == pytest.approx(2e-3)
        assert policy.backoff(2) == pytest.approx(4e-3)

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_s=0.0)


class TestSensorHealth:
    def test_progression_to_dead(self):
        health = SensorHealth(dead_after_outages=2)
        assert health.state == HEALTHY
        health.note_read(faults=3, gaps=0, total=100)
        assert health.state == FLAKY
        health.note_read(faults=100, gaps=100, total=100)
        assert health.state == FLAKY
        health.note_read(faults=100, gaps=100, total=100)
        assert health.state == DEAD
        assert health.is_dead

    def test_successful_read_breaks_outage_run(self):
        health = SensorHealth(dead_after_outages=2)
        health.note_read(faults=100, gaps=100, total=100)
        health.note_read(faults=0, gaps=0, total=100)
        health.note_read(faults=100, gaps=100, total=100)
        assert health.state == FLAKY

    def test_dead_is_sticky(self):
        health = SensorHealth(dead_after_outages=1)
        health.note_read(faults=100, gaps=100, total=100)
        assert health.is_dead
        assert health.note_read(faults=0, gaps=0, total=100) == DEAD
        assert health.is_dead
