"""The two-plane workflow: record to disk, analyze anywhere, replay.

The acceptance bar for the plane split: a recorded-then-replayed
evaluation must produce exactly the numbers the in-process run prints.
"""

import pytest

from repro.cli import main
from repro.core.fingerprint import (
    DnnFingerprinter,
    FingerprintAnalyzer,
    FingerprintConfig,
)
from repro.core.io import TraceArchiveReader, TraceArchiveWriter
from repro.core.rsa_attack import RsaHammingWeightAttack, sweep_from_traces
from repro.session import AttackSession

MODELS = ["resnet-50", "vgg-19", "squeezenet-1.1"]
CONFIG = FingerprintConfig(
    duration=2.0, traces_per_model=6, n_folds=3, forest_trees=8
)
CHANNELS = [("fpga", "current"), ("fpga", "voltage")]


class TestFingerprintRoundTrip:
    def test_archive_evaluation_is_bit_identical(self, tmp_path):
        # In-process: collect and evaluate in one object.
        live = DnnFingerprinter(AttackSession.create(seed=11), config=CONFIG)
        datasets = live.collect_datasets(models=MODELS, channels=CHANNELS)
        expected = {
            channel: live.evaluate_channel(dataset)
            for channel, dataset in datasets.items()
        }

        # Two-plane: a second identical session records to disk...
        recorder = DnnFingerprinter(AttackSession.create(seed=11), config=CONFIG)
        with TraceArchiveWriter(
            tmp_path / "arch", meta=recorder.archive_meta(MODELS, CHANNELS)
        ) as writer:
            recorder.collect_datasets(
                models=MODELS, channels=CHANNELS, sink=writer
            )

        # ...and the analysis plane evaluates with no SoC at all.
        analyzer, replayed = FingerprintAnalyzer.from_archive(
            tmp_path / "arch"
        )
        assert analyzer.seed == 11
        assert analyzer.config == CONFIG
        assert set(replayed) == set(expected)
        for channel, dataset in replayed.items():
            result = analyzer.evaluate_channel(dataset)
            assert result.top1 == expected[channel].top1
            assert result.top5 == expected[channel].top5
            assert (
                result.top1_per_fold == expected[channel].top1_per_fold
            ), f"fold accuracies drifted on {channel}"

    def test_sink_streams_while_collecting(self, tmp_path):
        recorder = DnnFingerprinter(AttackSession.create(seed=1), config=CONFIG)
        with TraceArchiveWriter(tmp_path / "arch") as writer:
            datasets = recorder.collect_datasets(
                models=MODELS[:2],
                channels=[("fpga", "current")],
                sink=writer,
            )
        reader = TraceArchiveReader(tmp_path / "arch")
        in_memory = datasets[("fpga", "current")]
        replayed = reader.load_datasets()[("fpga", "current")]
        for live, disk in zip(in_memory, replayed):
            assert (live.values == disk.values).all()
            assert (live.times == disk.times).all()
            assert live.label == disk.label

    def test_analyzer_override_for_reanalysis(self, tmp_path):
        recorder = DnnFingerprinter(AttackSession.create(seed=1), config=CONFIG)
        with TraceArchiveWriter(
            tmp_path / "arch",
            meta=recorder.archive_meta(MODELS[:2], [("fpga", "current")]),
        ) as writer:
            recorder.collect_datasets(
                models=MODELS[:2], channels=[("fpga", "current")],
                sink=writer,
            )
        # One dataset, many analysis settings: override the stored seed.
        analyzer, _ = FingerprintAnalyzer.from_archive(
            tmp_path / "arch", seed=99
        )
        assert analyzer.seed == 99


class TestRsaRoundTrip:
    def test_sweep_from_archive_matches_in_process(self, tmp_path):
        weights = [1, 224, 448]
        live = RsaHammingWeightAttack(AttackSession.create(seed=4))
        expected = live.sweep(weights=weights, n_samples=2000)

        recorder = RsaHammingWeightAttack(AttackSession.create(seed=4))
        with TraceArchiveWriter(
            tmp_path / "arch",
            meta=recorder.archive_meta(weights=weights, n_samples=2000),
        ) as writer:
            recorder.collect_sweep(
                weights=weights, n_samples=2000, sink=writer
            )
        replayed = sweep_from_traces(
            TraceArchiveReader(tmp_path / "arch").load_traceset()
        )
        assert (replayed.weights == expected.weights).all()
        assert (replayed.medians == expected.medians).all()
        assert (
            replayed.distinguishable_groups()
            == expected.distinguishable_groups()
        )

    def test_mixed_quantities_require_filter(self):
        attack = RsaHammingWeightAttack()
        traces = attack.collect_sweep(weights=[1, 448], n_samples=500)
        power = attack.collect_sweep(
            weights=[1], quantity="power", n_samples=500
        )
        for trace in power:
            traces.add(trace)
        with pytest.raises(ValueError, match="mixed quantities"):
            sweep_from_traces(traces)
        assert sweep_from_traces(traces, quantity="current")


class TestCliWorkflow:
    def test_record_analyze_matches_fingerprint_cmd(self, tmp_path, capsys):
        args = [
            "--models", "resnet-50", "vgg-19",
            "--traces", "6", "--folds", "3", "--trees", "8",
            "--seed", "7", "--channels", "fpga/current",
        ]
        assert main(["fingerprint", *args]) == 0
        in_process = [
            line
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("fpga/")
        ]
        assert main(
            ["record", "--experiment", "fingerprint",
             "--out", str(tmp_path / "arch"), *args]
        ) == 0
        capsys.readouterr()
        assert main(["analyze", "--archive", str(tmp_path / "arch")]) == 0
        analyzed = [
            line
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("fpga/")
        ]
        assert analyzed == in_process

    def test_covert_record_replay_is_faithful(self, tmp_path, capsys):
        assert main(
            ["record", "--experiment", "covert",
             "--out", str(tmp_path / "cov"),
             "--bits", "24", "--seed", "3"]
        ) == 0
        capsys.readouterr()
        assert main(["replay", "--archive", str(tmp_path / "cov")]) == 0
        out = capsys.readouterr().out
        assert "matches the live receiver's decode: yes" in out

    def test_rsa_record_analyze(self, tmp_path, capsys):
        assert main(
            ["record", "--experiment", "rsa",
             "--out", str(tmp_path / "rsa"),
             "--samples", "1000", "--seed", "2"]
        ) == 0
        capsys.readouterr()
        assert main(["analyze", "--archive", str(tmp_path / "rsa")]) == 0
        out = capsys.readouterr().out
        assert "groups: current" in out

    def test_replay_runs_detector_on_generic_archives(
        self, tmp_path, capsys
    ):
        assert main(
            ["record", "--experiment", "rsa",
             "--out", str(tmp_path / "rsa"),
             "--samples", "1000", "--seed", "2"]
        ) == 0
        capsys.readouterr()
        assert main(["replay", "--archive", str(tmp_path / "rsa")]) == 0
        out = capsys.readouterr().out
        assert "onset at" in out

    def test_analyze_rejects_untagged_archive(self, tmp_path, capsys):
        with TraceArchiveWriter(tmp_path / "arch") as writer:
            pass
        assert main(["analyze", "--archive", str(tmp_path / "arch")]) == 1


class TestMemoryBoundedCapture:
    def test_streaming_capture_peak_is_chunk_sized(self, tmp_path):
        # A long capture streamed to an archive holds one chunk at a
        # time: peak resident samples == chunk size << session size.
        session = AttackSession.create(seed=0)
        stream = session.sampler.stream(
            "fpga", "current", n_samples=20_000, chunk_samples=256
        )
        with TraceArchiveWriter(tmp_path / "arch") as writer:
            for part, chunk in enumerate(stream):
                writer.append(chunk, trace_id="capture", part=part)
        assert stream.max_resident_samples == 256
        assert stream.n_samples == 20_000
        restored = next(
            iter(TraceArchiveReader(tmp_path / "arch").load_traceset())
        )
        one_shot = session.sampler.collect(
            "fpga", "current", n_samples=20_000
        )
        assert (restored.values == one_shot.values).all()
        assert (restored.times == one_shot.times).all()
