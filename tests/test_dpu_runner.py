"""Tests for the DPU inference runner and its rail timelines."""

import gc
import weakref

import numpy as np
import pytest

from repro.dpu.models import build_model
from repro.dpu.runner import DPU_RAILS, DpuRunner, RuntimeConfig
from repro.soc import Soc


@pytest.fixture(scope="module")
def runner():
    return DpuRunner()


@pytest.fixture(scope="module")
def resnet():
    return build_model("resnet-50")


class TestCycleProfile:
    def test_profile_rails(self, runner, resnet):
        profile = runner.cycle_profile(resnet)
        assert set(profile.powers) == set(DPU_RAILS)

    def test_segment_count(self, runner, resnet):
        profile = runner.cycle_profile(resnet)
        # pre + per-layer + post + gap.
        assert profile.durations.size == len(resnet.layers) + 3

    def test_period_exceeds_dpu_latency(self, runner, resnet):
        profile = runner.cycle_profile(resnet)
        assert profile.period > runner.dpu.inference_latency(resnet)

    def test_cpu_power_only_in_cpu_phases(self, runner, resnet):
        profile = runner.cycle_profile(resnet)
        fpd = profile.powers["fpd"]
        # Preprocess is the first segment; it draws full CPU power.
        assert fpd[0] == pytest.approx(runner.runtime.p_preprocess)
        # During DPU layers the runtime only polls.
        assert np.all(fpd[1:-2] == runner.runtime.p_runtime_poll)

    def test_larger_input_longer_preprocess(self, runner):
        small = runner.cycle_profile(build_model("mobilenet-v1-1.0"))
        large = runner.cycle_profile(build_model("inception-v3"))
        assert large.durations[0] > small.durations[0]

    def test_mean_power_positive_on_all_rails(self, runner, resnet):
        profile = runner.cycle_profile(resnet)
        for rail in DPU_RAILS:
            assert profile.mean_power(rail) > 0.0

    def test_distinct_models_distinct_profiles(self, runner):
        a = runner.cycle_profile(build_model("vgg-19"))
        b = runner.cycle_profile(build_model("squeezenet-1.1"))
        assert a.period != b.period
        assert a.mean_power("fpga") != b.mean_power("fpga")


class TestProfileMemo:
    """A runner schedules each spec object once and shares the result."""

    def test_same_spec_same_profile(self, resnet):
        runner = DpuRunner()
        profile = runner.cycle_profile(resnet)
        assert runner.cycle_profile(resnet) is profile
        assert runner.cycle_period(resnet) == profile.period

    def test_fresh_runner_builds_its_own(self, resnet):
        profile = DpuRunner().cycle_profile(resnet)
        fresh = DpuRunner().cycle_profile(resnet)
        assert fresh is not profile
        assert np.array_equal(fresh.durations, profile.durations)
        for rail in DPU_RAILS:
            assert np.array_equal(fresh.powers[rail], profile.powers[rail])

    def test_equal_spec_objects_are_separate_entries(self):
        runner = DpuRunner()
        first = runner.cycle_profile(build_model("vgg-19"))
        second = runner.cycle_profile(build_model("vgg-19"))
        assert second is not first
        assert np.array_equal(second.durations, first.durations)

    def test_memo_keeps_no_spec_alive(self):
        runner = DpuRunner()
        spec = build_model("vgg-19")
        runner.cycle_profile(spec)
        collected = weakref.ref(spec)
        del spec
        gc.collect()
        assert collected() is None
        assert runner._profiles == {}

    def test_cached_arrays_are_read_only(self, resnet):
        profile = DpuRunner().cycle_profile(resnet)
        for array in (profile.durations, *profile.powers.values()):
            with pytest.raises(ValueError):
                array[0] = 1.0

    def test_replaced_runtime_rebuilds(self, resnet):
        runner = DpuRunner()
        before = runner.cycle_profile(resnet)
        runner.runtime = RuntimeConfig(gap_seconds=1e-3)
        after = runner.cycle_profile(resnet)
        assert after is not before
        assert after.durations[-1] == 1e-3


class TestPeriodicTimelines:
    def test_all_rails_present(self, runner, resnet):
        timelines = runner.rail_timelines(resnet)
        assert set(timelines) == set(DPU_RAILS)

    def test_periodicity(self, runner, resnet):
        timelines = runner.rail_timelines(resnet)
        period = runner.cycle_period(resnet)
        t = np.linspace(0, period * 0.99, 50)
        np.testing.assert_allclose(
            timelines["fpga"].power_at(t),
            timelines["fpga"].power_at(t + period),
        )

    def test_mean_matches_profile(self, runner, resnet):
        timelines = runner.rail_timelines(resnet)
        profile = runner.cycle_profile(resnet)
        mean = timelines["ddr"].window_mean(
            np.array([0.0]), np.array([profile.period])
        )[0]
        assert mean == pytest.approx(profile.mean_power("ddr"))


class TestTraceTimelines:
    def test_covers_duration(self, runner, resnet):
        timelines = runner.trace_timelines(resnet, duration=1.0, seed=1)
        # Power is still active near the end of the requested window.
        power = timelines["fpga"].power_at(np.array([0.99]))
        assert power[0] >= 0.0

    def test_jitter_makes_traces_differ(self, runner, resnet):
        a = runner.trace_timelines(resnet, duration=0.5, seed=1)
        b = runner.trace_timelines(resnet, duration=0.5, seed=2)
        t = np.linspace(0.05, 0.45, 200)
        assert not np.allclose(
            a["fpga"].power_at(t), b["fpga"].power_at(t)
        )

    def test_same_seed_reproducible(self, runner, resnet):
        a = runner.trace_timelines(resnet, duration=0.5, seed=3)
        b = runner.trace_timelines(resnet, duration=0.5, seed=3)
        t = np.linspace(0.05, 0.45, 200)
        np.testing.assert_allclose(
            a["fpga"].power_at(t), b["fpga"].power_at(t)
        )

    def test_rails_share_time_base(self, runner, resnet):
        timelines = runner.trace_timelines(resnet, duration=0.5, seed=4)
        assert (
            timelines["fpga"].edges.shape == timelines["ddr"].edges.shape
        )
        np.testing.assert_allclose(
            timelines["fpga"].edges, timelines["lpd"].edges
        )

    def test_zero_jitter_matches_periodic_mean(self, resnet):
        quiet = DpuRunner(cycle_jitter=0.0, stall_probability=0.0)
        timelines = quiet.trace_timelines(resnet, duration=1.0, seed=1)
        profile = quiet.cycle_profile(resnet)
        mean = timelines["fpga"].window_mean(
            np.array([0.0]), np.array([10 * profile.period])
        )[0]
        assert mean == pytest.approx(profile.mean_power("fpga"), rel=1e-6)

    def test_invalid_duration_rejected(self, runner, resnet):
        with pytest.raises(ValueError):
            runner.trace_timelines(resnet, duration=0.0)

    def test_invalid_stall_probability(self):
        with pytest.raises(ValueError):
            DpuRunner(stall_probability=1.5)


def _reachable_nbytes(*roots):
    """Bytes of every distinct array reachable from ``roots``.

    Follows instance attributes, dicts, lists and tuples; an array that
    is a view counts its base, so shared storage is counted once.
    """
    seen, arrays, stack = set(), {}, list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            while isinstance(obj.base, np.ndarray):
                obj = obj.base
            arrays[id(obj)] = obj.nbytes
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple)):
            stack.extend(obj)
        elif hasattr(obj, "__dict__"):
            stack.extend(vars(obj).values())
    return sum(arrays.values())


class TestVictimMemory:
    """A deployed victim's memory grows with its cycles, not its segments."""

    @pytest.mark.parametrize(
        "name", ["mobilenet-v1-0.25", "resnet-152", "vgg-19"]
    )
    def test_bytes_per_simulated_second_is_bounded(self, runner, name):
        model = build_model(name)
        held = {}
        for duration in (10.0, 100.0):
            soc = Soc(seed=0)
            runner.deploy(soc, model, duration=duration, seed=1)
            timelines = [
                soc.rail(rail).timeline().components[1] for rail in DPU_RAILS
            ]
            edges = np.linspace(-1.0, duration + 1.0, 200)
            chunk = np.linspace(1.0, 1.5, 10)
            for timeline in timelines:
                # A full-span batch, then a 0.5 s chunk that fills the memo.
                timeline.energy_between(edges[:-1], edges[1:])
                timeline.energy_between(chunk[:-1], chunk[1:])
            held[duration] = _reachable_nbytes(*timelines)
        slope = (held[100.0] - held[10.0]) / 90.0
        # The full segment arrays held ~290 KB per simulated second.
        assert slope < 16_000, f"{name}: {slope:.0f} B per simulated second"

    def test_rails_share_only_ranges_no_rail_keeps(self, runner):
        """A full-span batch rebuilds the run's edges once for all four
        rails; a rail's own forward memo leaves no shared copy held."""
        soc = Soc(seed=0)
        runner.deploy(soc, build_model("resnet-152"), duration=4.0, seed=1)
        timelines = [
            soc.rail(rail).timeline().components[1] for rail in DPU_RAILS
        ]
        run = timelines[0].run
        edges = np.linspace(-1.0, 5.0, 200)
        for timeline in timelines:
            timeline.energy_between(edges[:-1], edges[1:])
        memo = run._edge_memo
        assert memo[1] - memo[0] >= run.blocks_per_memo
        for rail in DPU_RAILS:
            assert run.block_arrays(rail, memo[0], memo[1])[0] is memo[3]
        chunk = np.linspace(1.0, 1.01, 10)
        timelines[0].energy_between(chunk[:-1], chunk[1:])
        assert run._edge_memo is None


def rail_power(soc, rail, start=0.0, end=1.0):
    """Mean power of one rail over ``[start, end)``."""
    return soc.rail(rail).mean_power(np.array([start]), np.array([end]))[0]


class TestDeployment:
    def test_deploy_attaches_all_rails(self, runner, resnet):
        soc = Soc(seed=0)
        runner.deploy(soc, resnet, duration=1.0, seed=1)
        for rail in DPU_RAILS:
            assert rail_power(soc, rail) > soc.rail(rail).idle_power

    def test_deploy_visible_in_current(self, runner, resnet):
        soc = Soc(seed=0)
        idle = soc.sample("fpga", "current", np.array([0.5]))[0]
        runner.deploy(soc, resnet, duration=2.0, seed=1)
        loaded = soc.sample("fpga", "current", np.array([0.5]))[0]
        assert loaded > idle + 300  # DPU adds hundreds of mA

    def test_redeploy_replaces(self, runner, resnet):
        soc = Soc(seed=0)
        runner.deploy(soc, resnet, duration=1.0, seed=1)
        runner.deploy(soc, build_model("vgg-19"), duration=1.0, seed=1)
        fresh = Soc(seed=0)
        runner.deploy(fresh, build_model("vgg-19"), duration=1.0, seed=1)
        for rail in DPU_RAILS:
            assert rail_power(soc, rail) == rail_power(fresh, rail)

    def test_undeploy(self, runner, resnet):
        soc = Soc(seed=0)
        runner.deploy(soc, resnet, duration=1.0, seed=1)
        runner.undeploy(soc)
        for rail in DPU_RAILS:
            assert rail_power(soc, rail) == soc.rail(rail).idle_power

    def test_undeploy_is_idempotent(self, runner):
        soc = Soc(seed=0)
        runner.undeploy(soc)  # nothing deployed: no error

    def test_periodic_deploy_without_duration(self, runner, resnet):
        soc = Soc(seed=0)
        runner.deploy(soc, resnet)
        assert rail_power(soc, "fpga", 100.0, 101.0) > (
            soc.rail("fpga").idle_power
        )


class TestRuntimeConfig:
    def test_preprocess_scales_with_pixels(self):
        runtime = RuntimeConfig()
        assert runtime.preprocess_seconds(299) > runtime.preprocess_seconds(224)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            RuntimeConfig(postprocess_seconds=-1.0)
