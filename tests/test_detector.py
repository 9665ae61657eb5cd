"""Tests for victim-activity onset detection."""

import numpy as np
import pytest

from repro.core.detector import OnsetDetector
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


def run_tracker(detector, values, times=None, baseline=None):
    """Every event of one whole-trace push followed by ``finish``."""
    tracker = detector.tracker(baseline=baseline)
    return tracker.push(np.asarray(values, dtype=np.float64), times) + (
        tracker.finish()
    )


def episodes(detector, values, baseline=None):
    return [
        event.episode
        for event in run_tracker(detector, values, baseline=baseline)
        if event.kind == "episode"
    ]


def first_onset(detector, trace):
    """``(found, time)`` of the first onset event in a whole trace."""
    for event in run_tracker(detector, trace.values, times=trace.times):
        if event.kind == "onset":
            return True, event.time
    return False, float("nan")


class TestScores:
    def test_idle_scores_small(self):
        # Idle samples after the baseline window never trigger.
        detector = OnsetDetector(baseline_window=16)
        trace = step_trace()
        assert episodes(detector, trace.values[:40]) == []

    def test_active_scores_large(self):
        # Every active sample triggers: the episode runs to the end.
        detector = OnsetDetector(baseline_window=16)
        trace = step_trace()
        found = episodes(detector, trace.values)
        assert found[0].start <= 45 and found[0].end == 80

    def test_too_short_rejected(self):
        # Fewer samples than the baseline window never lock a baseline.
        detector = OnsetDetector(baseline_window=16)
        assert run_tracker(detector, np.zeros(10)) == []

    def test_zero_variance_baseline_uses_floor(self):
        detector = OnsetDetector(baseline_window=8, min_sigma=1.0)
        values = np.concatenate([np.full(8, 100.0), np.full(8, 200.0)])
        events = run_tracker(detector, values)
        assert events[0].kind == "baseline"
        found = [e.episode for e in events if e.kind == "episode"]
        assert [(e.start, e.end) for e in found] == [(8, 16)]

    def test_explicit_baseline_scans_every_sample(self):
        detector = OnsetDetector(baseline_window=8)
        values = np.concatenate([np.full(4, 500.0), np.full(12, 100.0)])
        found = episodes(detector, values, baseline=(100.0, 1.0))
        assert [(e.start, e.end) for e in found] == [(0, 4)]


class TestEpisodes:
    def test_single_step_detected(self):
        detector = OnsetDetector(baseline_window=16)
        trace = step_trace()
        found = episodes(detector, trace.values)
        assert len(found) == 1
        assert 38 <= found[0].start <= 42
        assert found[0].end == 80

    def test_no_activity_no_episodes(self):
        detector = OnsetDetector(baseline_window=16)
        rng = np.random.default_rng(1)
        values = 550 + 2.0 * rng.standard_normal(80)
        assert episodes(detector, values) == []

    def test_short_gap_bridged(self):
        detector = OnsetDetector(baseline_window=8, min_gap=3)
        values = np.concatenate(
            [np.full(8, 100.0), np.full(10, 500.0), np.full(2, 100.0),
             np.full(10, 500.0)]
        )
        assert len(episodes(detector, values)) == 1

    def test_long_gap_splits(self):
        detector = OnsetDetector(baseline_window=8, min_gap=2)
        values = np.concatenate(
            [np.full(8, 100.0), np.full(10, 500.0), np.full(8, 100.0),
             np.full(10, 500.0)]
        )
        assert len(episodes(detector, values)) == 2


class TestTraceApi:
    def test_detect_onset_time(self):
        detector = OnsetDetector(baseline_window=16)
        found, onset = first_onset(detector, step_trace())
        assert found
        assert onset == pytest.approx(40 * 0.0352, abs=3 * 0.0352)

    def test_detect_onset_absent(self):
        detector = OnsetDetector(baseline_window=16)
        rng = np.random.default_rng(2)
        values = np.rint(550 + 2.0 * rng.standard_normal(60))
        trace = Trace(times=np.arange(60) * 0.0352, values=values,
                      domain="fpga", quantity="current")
        found, onset = first_onset(detector, trace)
        assert not found
        assert np.isnan(onset)

    def test_trim_to_activity(self):
        detector = OnsetDetector(baseline_window=16)
        trace = step_trace()
        found = episodes(detector, trace.values)
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
        found, detected = first_onset(detector, trace)
        assert found
        assert abs(detected - onset_time) < 0.15
