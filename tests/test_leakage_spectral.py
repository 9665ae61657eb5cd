"""Tests for leakage assessment (TVLA/SNR) and spectral analysis."""

import numpy as np
import pytest

from repro.analysis.leakage import (
    TVLA_THRESHOLD,
    pairwise_tvla,
    snr,
    welch_t_test,
)
from repro.analysis.spectral import (
    amplitude_spectrum,
    estimate_serving_rate,
)
from repro.core.traces import Trace


class TestWelchTTest:
    def test_identical_distributions_small_t(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=2000)
        b = rng.normal(size=2000)
        result = welch_t_test(a, b)
        assert abs(result.statistic) < TVLA_THRESHOLD
        assert not result.leaks

    def test_separated_means_leak(self):
        rng = np.random.default_rng(1)
        a = rng.normal(loc=0.0, size=500)
        b = rng.normal(loc=1.0, size=500)
        result = welch_t_test(a, b)
        assert result.leaks
        assert result.statistic < 0  # a.mean < b.mean

    def test_unequal_variances_handled(self):
        rng = np.random.default_rng(2)
        a = rng.normal(scale=0.1, size=100)
        b = rng.normal(scale=10.0, size=100)
        result = welch_t_test(a, b)
        assert np.isfinite(result.statistic)
        assert result.degrees_of_freedom < 198

    def test_identical_constants(self):
        result = welch_t_test(np.full(10, 5.0), np.full(10, 5.0))
        assert result.statistic == 0.0

    def test_distinct_constants_leak_totally(self):
        result = welch_t_test(np.full(10, 5.0), np.full(10, 6.0))
        assert result.statistic == np.inf

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            welch_t_test([1.0], [1.0, 2.0])


class TestSnr:
    def test_strong_signal(self):
        rng = np.random.default_rng(3)
        groups = [rng.normal(loc=mu, scale=0.1, size=200)
                  for mu in (0.0, 1.0, 2.0)]
        assert snr(groups) > 10

    def test_pure_noise(self):
        rng = np.random.default_rng(4)
        groups = [rng.normal(size=500) for _ in range(4)]
        assert snr(groups) < 0.1

    def test_constant_groups(self):
        assert snr([np.full(5, 1.0), np.full(5, 2.0)]) == np.inf

    def test_needs_two_classes(self):
        with pytest.raises(ValueError):
            snr([np.zeros(10)])


class TestPairwiseTvla:
    def test_shape(self):
        rng = np.random.default_rng(5)
        groups = [rng.normal(loc=mu, size=100) for mu in range(5)]
        statistics = pairwise_tvla(groups)
        assert statistics.shape == (4,)
        assert np.all(statistics > 0)

    def test_rsa_keys_leak_pairwise(self):
        # The Fig 4 experiment through the TVLA lens: every adjacent
        # key pair exceeds the 4.5 threshold on the current channel.
        from repro.core.rsa_attack import RsaHammingWeightAttack

        attack = RsaHammingWeightAttack()
        sweep = attack.sweep(weights=(1, 128, 256, 384), n_samples=2500)
        groups = [profile.values for profile in sweep.profiles]
        statistics = pairwise_tvla(groups)
        assert np.all(statistics > TVLA_THRESHOLD)


class TestSpectral:
    def test_amplitude_spectrum_finds_sine(self):
        t = np.arange(1024) / 256.0  # 256 Hz sampling
        signal = 3.0 * np.sin(2 * np.pi * 10.0 * t) + 100.0
        frequencies, magnitudes = amplitude_spectrum(signal, 256.0)
        peak = frequencies[np.argmax(magnitudes)]
        assert peak == pytest.approx(10.0, abs=0.3)

    def test_dominant_frequency_prominence(self):
        t = np.arange(2048) / 256.0
        rng = np.random.default_rng(6)
        signal = np.sin(2 * np.pi * 5.0 * t) + 0.1 * rng.standard_normal(
            t.size
        )
        trace = Trace(times=t, values=signal, domain="fpga",
                      quantity="current")
        peak = estimate_serving_rate(trace)
        assert peak.frequency_hz == pytest.approx(5.0, abs=0.2)
        assert peak.prominence > 10

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            amplitude_spectrum(np.array([1.0, 2.0]), 10.0)

    def test_estimate_serving_rate_on_synthetic_trace(self):
        # A 4 Hz serving loop sampled at the 28.4 Hz hwmon cadence.
        update = 0.0352
        times = np.arange(512) * update
        values = np.rint(
            1000 + 80 * (np.sin(2 * np.pi * 4.0 * times) > 0)
        )
        trace = Trace(times=times, values=values, domain="fpga",
                      quantity="current")
        peak = estimate_serving_rate(trace)
        assert peak.frequency_hz == pytest.approx(4.0, abs=0.3)

    def test_estimate_serving_rate_on_dpu_victim(self):
        # VGG-19 serves at ~13 fps — slow enough for the 35 ms sensor
        # to resolve its fundamental directly.
        from repro.core.sampler import HwmonSampler
        from repro.dpu.models import build_model
        from repro.dpu.runner import DpuRunner
        from repro.soc import Soc

        soc = Soc("ZCU102", seed=8)
        runner = DpuRunner(cycle_jitter=0.0, stall_probability=0.0)
        model = build_model("vgg-19")
        runner.deploy(soc, model, start=1.0)
        sampler = HwmonSampler(soc, poll_jitter=0.0, seed=8)
        trace = sampler.collect("fpga", "current", start=1.0, duration=20.0)
        peak = estimate_serving_rate(trace)
        expected = 1.0 / runner.cycle_period(model)
        assert peak.frequency_hz == pytest.approx(expected, rel=0.15)

    def test_rate_cap(self):
        t = np.arange(256) * 0.01
        values = np.sin(2 * np.pi * 30.0 * t) + np.sin(2 * np.pi * 3.0 * t)
        trace = Trace(times=t, values=values, domain="fpga",
                      quantity="current")
        peak = estimate_serving_rate(trace, max_rate_hz=10.0)
        assert peak.frequency_hz <= 10.0

    def test_min_samples(self):
        trace = Trace(times=np.arange(4) * 0.1, values=np.arange(4),
                      domain="fpga", quantity="current")
        with pytest.raises(ValueError):
            estimate_serving_rate(trace)
