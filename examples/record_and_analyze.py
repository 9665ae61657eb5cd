#!/usr/bin/env python3
"""Record once, analyze anywhere: the two-plane attack workflow.

The on-device foothold only needs to *read sysfs files* — all the
expensive analysis (forest training, cross-validation) can happen
later, on the attacker's own machine, from an archived trace set.
This example records a fingerprinting session into a streaming v2
archive, throws the SoC away, and re-derives the exact same accuracy
numbers purely from disk.

Run:  python examples/record_and_analyze.py
"""

import tempfile
from pathlib import Path

from repro.core.fingerprint import (
    DnnFingerprinter,
    FingerprintAnalyzer,
    FingerprintConfig,
)
from repro.core.io import TraceArchiveReader, TraceArchiveWriter
from repro.session import AttackSession

MODELS = ["resnet-50", "vgg-19", "squeezenet-1.1"]
CONFIG = FingerprintConfig(
    duration=2.0, traces_per_model=6, n_folds=3, forest_trees=8
)
CHANNELS = [("fpga", "current")]


def main():
    workdir = Path(tempfile.mkdtemp(prefix="amperebleed-"))
    archive = workdir / "session-0"

    # --- Acquisition plane: on the victim board. -------------------
    print(f"Recording {len(MODELS)} models -> {archive}")
    recorder = DnnFingerprinter(AttackSession.create(seed=7), config=CONFIG)
    with TraceArchiveWriter(
        archive, meta=recorder.archive_meta(MODELS, CHANNELS)
    ) as writer:
        recorder.collect_datasets(
            models=MODELS, channels=CHANNELS, sink=writer
        )
    n_chunks = len(TraceArchiveReader(archive).entries)
    print(f"  archive sealed: {n_chunks} trace chunks + manifest\n")

    # --- Analysis plane: anywhere, later, no SoC. ------------------
    print("Evaluating purely from the archive (no SoC constructed):")
    analyzer, datasets = FingerprintAnalyzer.from_archive(archive)
    for channel, dataset in sorted(datasets.items()):
        result = analyzer.evaluate_channel(dataset)
        print(f"  {channel[0]}/{channel[1]}: "
              f"top-1 {result.top1:.3f}  top-5 {result.top5:.3f}")

    print("\nThe same numbers an in-process run prints — bit-exactly;")
    print("the CLI equivalent is `record --experiment fingerprint`")
    print("followed by `analyze --archive <dir>`.")


if __name__ == "__main__":
    main()
