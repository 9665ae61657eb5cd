"""Tests for the unprivileged hwmon sampler."""

import numpy as np
import pytest
from reference_kernels import legacy_poll_grid

from repro.core.sampler import HwmonSampler, _poll_grid
from repro.soc import ConstantActivity, Soc


@pytest.fixture
def soc():
    return Soc("ZCU102", seed=2)


@pytest.fixture
def sampler(soc):
    return HwmonSampler(soc, seed=2)


class TestPollTimes:
    def test_grid_without_jitter(self, soc):
        sampler = HwmonSampler(soc, poll_jitter=0.0)
        times = sampler.poll_times(1.0, 5, 100.0)
        np.testing.assert_allclose(times, 1.0 + np.arange(5) / 100.0)

    def test_jitter_keeps_monotonicity(self, sampler):
        times = sampler.poll_times(0.0, 10_000, 1000.0)
        assert np.all(np.diff(times) >= 0)

    def test_jitter_is_small(self, sampler):
        times = sampler.poll_times(0.0, 1000, 1000.0)
        grid = np.arange(1000) / 1000.0
        assert np.abs(times - grid).max() < 5e-3

    def test_deterministic_with_seed(self, soc):
        a = HwmonSampler(soc, seed=5).poll_times(0.0, 100, 1000.0)
        b = HwmonSampler(soc, seed=5).poll_times(0.0, 100, 1000.0)
        np.testing.assert_array_equal(a, b)

    def test_invalid_args(self, sampler):
        with pytest.raises(ValueError):
            sampler.poll_times(0.0, 0, 100.0)
        with pytest.raises(ValueError):
            sampler.poll_times(0.0, 10, 0.0)


    @pytest.mark.parametrize(
        "start, first, count, poll_hz, jitter, floor",
        [
            (1.0, 0, 5, 100.0, 0.0, -np.inf),
            (0.0, 0, 100_000, 1000.0, 120e-6, -np.inf),
            (17.25, 35_000, 7_000, 1000.0, 120e-6, 52.2497),
            (3.0, 123, 4_096, 37.0, 5e-3, 6.5),
        ],
    )
    def test_in_place_grid_matches_the_expression(
        self, start, first, count, poll_hz, jitter, floor
    ):
        def rng():
            return np.random.default_rng(11) if jitter else None

        expected = legacy_poll_grid(
            start, first, count, poll_hz, jitter, rng(), floor
        )
        got = _poll_grid(start, first, count, poll_hz, jitter, rng(), floor)
        assert got.dtype == np.float64
        assert got.tobytes() == expected.tobytes()


class TestCollect:
    def test_collect_by_duration(self, sampler):
        trace = sampler.collect("fpga", "current", duration=1.0)
        # Default cadence = sensor update rate (~28.4 Hz).
        assert 25 <= trace.n_samples <= 31
        assert trace.domain == "fpga"
        assert trace.quantity == "current"

    def test_collect_by_samples(self, sampler):
        trace = sampler.collect("fpga", "current", n_samples=100,
                                poll_hz=1000.0)
        assert trace.n_samples == 100

    def test_oversampling_repeats_values(self, sampler):
        # Polling at 1 kHz against a 35 ms sensor: runs of ~35 repeats.
        trace = sampler.collect("fpga", "current", n_samples=500,
                                poll_hz=1000.0)
        assert np.unique(trace.values).size < 40

    def test_duration_xor_samples_enforced(self, sampler):
        with pytest.raises(ValueError, match="exactly one"):
            sampler.collect("fpga", "current")
        with pytest.raises(ValueError, match="exactly one"):
            sampler.collect("fpga", "current", duration=1.0, n_samples=10)

    def test_label_attached(self, sampler):
        trace = sampler.collect("fpga", "current", duration=0.5,
                                label="resnet-50")
        assert trace.label == "resnet-50"

    def test_workload_visible(self, soc, sampler):
        idle = sampler.collect("fpga", "current", duration=0.5).values.mean()
        soc.attach_workload("fpga", "load", ConstantActivity(2.0))
        loaded = sampler.collect(
            "fpga", "current", start=10.0, duration=0.5
        ).values.mean()
        assert loaded > idle + 2000

    def test_default_poll_hz(self, sampler):
        hz = sampler.default_poll_hz("fpga")
        assert hz == pytest.approx(1 / 0.0352, rel=0.01)

    def test_collect_many_channels(self, sampler):
        traces = sampler.collect_many(
            [("fpga", "current"), ("ddr", "current"), ("fpga", "voltage")],
            start=1.0,
            duration=1.0,
            label="run",
        )
        assert set(traces) == {
            ("fpga", "current"), ("ddr", "current"), ("fpga", "voltage")
        }
        for trace in traces.values():
            assert trace.label == "run"
            assert trace.times[0] >= 0.99

    def test_collect_many_empty_rejected(self, sampler):
        with pytest.raises(ValueError, match="at least one channel"):
            sampler.collect_many([], duration=1.0)

    def test_rejects_non_soc(self):
        with pytest.raises(TypeError):
            HwmonSampler("not a soc")

    def test_repr(self, sampler):
        assert "HwmonSampler" in repr(sampler)
