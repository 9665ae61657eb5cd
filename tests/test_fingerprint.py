"""Integration tests for DNN fingerprinting (reduced-size pipeline)."""

import weakref

import numpy as np
import pytest

from repro.core.fingerprint import (
    TABLE3_CHANNELS,
    TABLE3_DURATIONS,
    DnnFingerprinter,
    FingerprintConfig,
)
from repro.dpu.models import build_model

SMALL_MODELS = ["mobilenet-v1-1.0", "resnet-50", "vgg-19", "squeezenet-1.1"]


@pytest.fixture(scope="module")
def fingerprinter():
    config = FingerprintConfig(
        duration=3.0, traces_per_model=6, n_folds=3, forest_trees=12
    )
    return DnnFingerprinter(config=config)


@pytest.fixture(scope="module")
def datasets(fingerprinter):
    return fingerprinter.collect_datasets(
        models=SMALL_MODELS,
        channels=[("fpga", "current"), ("fpga", "voltage")],
    )


class TestCollection:
    def test_dataset_sizes(self, datasets):
        for dataset in datasets.values():
            assert len(dataset) == len(SMALL_MODELS) * 6

    def test_traces_labeled(self, datasets):
        labels = set(datasets[("fpga", "current")].labels)
        assert labels == set(SMALL_MODELS)

    def test_trace_durations(self, datasets):
        for trace in datasets[("fpga", "current")]:
            assert 2.5 <= trace.duration <= 3.1

    def test_same_model_traces_differ(self, datasets):
        current = datasets[("fpga", "current")]
        group = [t for t in current if t.label == "resnet-50"]
        assert not np.array_equal(group[0].values, group[1].values)

    def test_record_run_returns_all_channels(self, fingerprinter):
        run = fingerprinter.record_run(build_model("resnet-18"))
        assert set(run) == set(TABLE3_CHANNELS)

    def test_windows_do_not_overlap(self, fingerprinter):
        a = fingerprinter._next_window()
        b = fingerprinter._next_window()
        assert b > a + fingerprinter.config.duration


class TestEvaluation:
    def test_current_beats_voltage(self, fingerprinter, datasets):
        current = fingerprinter.evaluate_channel(
            datasets[("fpga", "current")]
        )
        voltage = fingerprinter.evaluate_channel(
            datasets[("fpga", "voltage")]
        )
        assert current.top1 > voltage.top1
        assert current.top1 > 0.8

    def test_longer_duration_not_worse(self, fingerprinter, datasets):
        dataset = datasets[("fpga", "current")]
        short = fingerprinter.evaluate_channel(dataset, duration=1.0)
        full = fingerprinter.evaluate_channel(dataset)
        assert full.top1 >= short.top1 - 0.15

    def test_top5_at_least_top1(self, fingerprinter, datasets):
        result = fingerprinter.evaluate_channel(
            datasets[("fpga", "current")]
        )
        assert result.top5 >= result.top1

    def test_evaluate_table3_grid(self, fingerprinter, datasets):
        results = fingerprinter.evaluate_table3(
            datasets, durations=(1.0, 3.0)
        )
        assert len(results) == len(datasets) * 2
        assert ("fpga", "current", 3.0) in results

    def test_table3_drops_each_channels_forests_once_scored(
        self, fingerprinter, datasets, monkeypatch
    ):
        analyzer = fingerprinter
        durations = (1.0, 3.0)
        per_channel = len(durations) * analyzer.config.n_folds
        factory = analyzer._forest_factory()
        forests = []

        def tracked():
            # A channel's forests are gone before the next one builds.
            scored = len(forests) - len(forests) % per_channel
            assert all(ref() is None for ref in forests[:scored])
            forest = factory()
            forests.append(weakref.ref(forest))
            return forest

        monkeypatch.setattr(analyzer, "_forest_factory", lambda: tracked)
        fingerprinter.evaluate_table3(datasets, durations=durations, workers=1)
        assert len(forests) == len(datasets) * per_channel
        assert all(ref() is None for ref in forests)


class TestOnlinePhase:
    def test_train_and_classify(self, fingerprinter, datasets):
        classifier = fingerprinter.train(datasets[("fpga", "current")])
        victim = build_model("vgg-19")
        run = fingerprinter.record_run(
            victim, channels=[("fpga", "current")], run_index=99
        )
        predicted = fingerprinter.classify(
            classifier, run[("fpga", "current")]
        )
        assert predicted == "vgg-19"

    def test_classify_topk(self, fingerprinter, datasets):
        classifier = fingerprinter.train(datasets[("fpga", "current")])
        run = fingerprinter.record_run(
            build_model("resnet-50"), channels=[("fpga", "current")],
            run_index=98,
        )
        top2 = fingerprinter.classify_topk(
            classifier, run[("fpga", "current")], k=2
        )
        assert len(top2) == 2
        assert "resnet-50" in top2


class TestConfig:
    def test_paper_defaults(self):
        config = FingerprintConfig()
        assert config.duration == 5.0
        assert config.n_folds == 10
        assert config.forest_trees == 100
        assert config.forest_depth == 32

    def test_table3_constants(self):
        assert len(TABLE3_CHANNELS) == 6
        assert TABLE3_DURATIONS == (1.0, 2.0, 3.0, 4.0, 5.0)

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            FingerprintConfig(duration=0.0)
        with pytest.raises(ValueError):
            FingerprintConfig(traces_per_model=1)
