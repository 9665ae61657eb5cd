"""Tests for victim-activity onset detection."""

import numpy as np
import pytest

from repro.core.detector import Episode, OnsetDetector
from repro.core.sampler import HwmonSampler
from repro.core.traces import Trace
from repro.soc import PiecewiseActivity, Soc


def step_trace(idle=550, active=2500, n_idle=40, n_active=40, noise=2.0,
               seed=0):
    rng = np.random.default_rng(seed)
    values = np.concatenate(
        [
            idle + noise * rng.standard_normal(n_idle),
            active + noise * rng.standard_normal(n_active),
        ]
    )
    times = np.arange(values.size) * 0.0352
    return Trace(times=times, values=np.rint(values), domain="fpga",
                 quantity="current")


class TestScores:
    def test_idle_scores_small(self):
        detector = OnsetDetector(baseline_window=16)
        trace = step_trace()
        scores = detector.scores(np.asarray(trace.values))
        assert np.abs(scores[:16]).max() < 4.0

    def test_active_scores_large(self):
        detector = OnsetDetector(baseline_window=16)
        trace = step_trace()
        scores = detector.scores(np.asarray(trace.values))
        assert np.abs(scores[45:]).min() > 10.0

    def test_too_short_rejected(self):
        detector = OnsetDetector(baseline_window=16)
        with pytest.raises(ValueError):
            detector.scores(np.zeros(10))

    def test_zero_variance_baseline_uses_floor(self):
        detector = OnsetDetector(baseline_window=8, min_sigma=1.0)
        values = np.concatenate([np.full(8, 100.0), np.full(8, 200.0)])
        scores = detector.scores(values)
        assert np.isfinite(scores).all()
        assert scores[-1] == pytest.approx(100.0)


class TestEpisodes:
    def test_single_step_detected(self):
        detector = OnsetDetector(baseline_window=16)
        trace = step_trace()
        episodes = detector.episodes(np.asarray(trace.values))
        assert len(episodes) == 1
        assert 38 <= episodes[0].start <= 42
        assert episodes[0].end == 80

    def test_no_activity_no_episodes(self):
        detector = OnsetDetector(baseline_window=16)
        rng = np.random.default_rng(1)
        values = 550 + 2.0 * rng.standard_normal(80)
        assert detector.episodes(values) == []

    def test_short_gap_bridged(self):
        detector = OnsetDetector(baseline_window=8, min_gap=3)
        values = np.concatenate(
            [np.full(8, 100.0), np.full(10, 500.0), np.full(2, 100.0),
             np.full(10, 500.0)]
        )
        episodes = detector.episodes(values)
        assert len(episodes) == 1

    def test_long_gap_splits(self):
        detector = OnsetDetector(baseline_window=8, min_gap=2)
        values = np.concatenate(
            [np.full(8, 100.0), np.full(10, 500.0), np.full(8, 100.0),
             np.full(10, 500.0)]
        )
        episodes = detector.episodes(values)
        assert len(episodes) == 2

    def test_episode_length(self):
        assert Episode(5, 12).length == 7


class TestTraceApi:
    def test_detect_onset_time(self):
        detector = OnsetDetector(baseline_window=16)
        trace = step_trace()
        found, onset = detector.detect_onset(trace)
        assert found
        assert onset == pytest.approx(40 * 0.0352, abs=3 * 0.0352)

    def test_detect_onset_absent(self):
        detector = OnsetDetector(baseline_window=16)
        rng = np.random.default_rng(2)
        values = np.rint(550 + 2.0 * rng.standard_normal(60))
        trace = Trace(times=np.arange(60) * 0.0352, values=values,
                      domain="fpga", quantity="current")
        found, onset = detector.detect_onset(trace)
        assert not found
        assert np.isnan(onset)

    def test_trim_to_activity(self):
        detector = OnsetDetector(baseline_window=16)
        trace = step_trace()
        found = detector.episodes(trace.values)
        active = trace.values[found[0].start:found[-1].end]
        assert active.size < trace.n_samples
        assert active.mean() > 2000

    def test_end_to_end_on_simulated_soc(self):
        soc = Soc("ZCU102", seed=4)
        sampler = HwmonSampler(soc, seed=4)
        onset_time = 2.0
        soc.attach_workload(
            "fpga",
            "victim",
            PiecewiseActivity([0.0, onset_time, 1e9], [0.0, 3.0]),
        )
        trace = sampler.collect("fpga", "current", start=0.05, duration=4.0)
        detector = OnsetDetector(baseline_window=16)
        found, detected = detector.detect_onset(trace)
        assert found
        assert abs(detected - onset_time) < 0.15
