"""Tests for multi-channel fusion fingerprinting."""

import pytest

from repro.core.fingerprint import DnnFingerprinter, FingerprintConfig
from repro.session import AttackSession

MODELS = ["mobilenet-v1-1.0", "resnet-50", "vgg-19", "inception-v3",
          "squeezenet-1.1"]

CURRENT_CHANNELS = [
    ("fpga", "current"), ("ddr", "current"),
    ("fpd", "current"), ("lpd", "current"),
]


@pytest.fixture(scope="module")
def fingerprinter():
    config = FingerprintConfig(
        duration=3.0, traces_per_model=6, n_folds=3, forest_trees=12
    )
    return DnnFingerprinter(AttackSession.create(seed=3), config=config)


@pytest.fixture(scope="module")
def datasets(fingerprinter):
    return fingerprinter.collect_datasets(
        models=MODELS, channels=CURRENT_CHANNELS
    )


class TestFusion:
    def test_fused_beats_chance_strongly(self, fingerprinter, datasets):
        result = fingerprinter.evaluate_fused(datasets)
        assert result.top1 > 0.8

    def test_fused_competitive_with_best_single(self, fingerprinter,
                                                 datasets):
        fused = fingerprinter.evaluate_fused(datasets)
        best_single = max(
            fingerprinter.evaluate_channel(datasets[channel]).top1
            for channel in CURRENT_CHANNELS
        )
        assert fused.top1 >= best_single - 0.1

    def test_fused_with_duration_slice(self, fingerprinter, datasets):
        result = fingerprinter.evaluate_fused(datasets, duration=1.0)
        assert 0.0 <= result.top1 <= 1.0

    def test_explicit_channel_subset(self, fingerprinter, datasets):
        result = fingerprinter.evaluate_fused(
            datasets, channels=[("fpga", "current"), ("ddr", "current")]
        )
        assert result.top1 > 0.7

    def test_empty_channels_rejected(self, fingerprinter):
        with pytest.raises(ValueError, match="at least one channel"):
            fingerprinter.evaluate_fused({}, channels=[])

    def test_label_order_mismatch_rejected(self, fingerprinter, datasets):
        from repro.core.traces import TraceSet

        scrambled = dict(datasets)
        reordered = TraceSet(list(datasets[("ddr", "current")])[::-1])
        scrambled[("ddr", "current")] = reordered
        with pytest.raises(ValueError, match="differently-ordered"):
            fingerprinter.evaluate_fused(scrambled)
