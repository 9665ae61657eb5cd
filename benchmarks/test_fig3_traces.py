"""Bench: regenerate Fig 3 — current traces on four sensors during
inference of six DNN models.

Paper claim: MobileNet-V1, SqueezeNet, EfficientNet-Lite, Inception-V3,
ResNet-50 and VGG-19 each produce a *unique* current pattern, visible
simultaneously on the FPGA, DRAM, full-power-CPU and low-power-CPU
sensors — the DPU's encrypted internals notwithstanding.
"""

import itertools

import numpy as np
from conftest import print_table

from repro.core.fingerprint import DnnFingerprinter, FingerprintConfig
from repro.dpu.models import FIG3_MODELS, build_model
from repro.session import AttackSession

CHANNELS = (
    ("fpga", "current"),
    ("ddr", "current"),
    ("fpd", "current"),
    ("lpd", "current"),
)


def collect_traces():
    config = FingerprintConfig(duration=5.0, traces_per_model=2)
    fingerprinter = DnnFingerprinter(AttackSession.create(seed=5), config=config)
    traces = {}
    for name in FIG3_MODELS:
        traces[name] = fingerprinter.record_run(
            build_model(name), channels=CHANNELS
        )
    return traces


def test_fig3_traces(benchmark):
    traces = benchmark.pedantic(collect_traces, rounds=1, iterations=1)

    rows = []
    for name in FIG3_MODELS:
        model = build_model(name)
        fpga = traces[name][("fpga", "current")].values
        ddr = traces[name][("ddr", "current")].values
        fpd = traces[name][("fpd", "current")].values
        lpd = traces[name][("lpd", "current")].values
        rows.append(
            (
                name,
                f"{model.weight_bytes / 1e6:.1f} MB",
                f"{fpga.mean():.0f}±{fpga.std():.0f}",
                f"{ddr.mean():.0f}±{ddr.std():.0f}",
                f"{fpd.mean():.0f}±{fpd.std():.0f}",
                f"{lpd.mean():.0f}±{lpd.std():.0f}",
            )
        )
    print_table(
        "Fig 3: current traces during DNN inference (mA, mean±std "
        "over a 5 s trace)",
        ("model", "size", "FPGA", "DRAM", "FPD CPU", "LPD CPU"),
        rows,
    )

    # Every channel observes the DPU above its idle floor.
    idle_floor = {"fpga": 470, "ddr": 210, "fpd": 300, "lpd": 155}
    for name in FIG3_MODELS:
        for domain, _ in CHANNELS:
            values = traces[name][(domain, "current")].values
            assert values.mean() > idle_floor[domain], (name, domain)

    # Each of the six models produces a distinct FPGA-current pattern:
    # pairwise mean levels or temporal shapes must differ measurably.
    for a, b in itertools.combinations(FIG3_MODELS, 2):
        va = traces[a][("fpga", "current")].values.astype(float)
        vb = traces[b][("fpga", "current")].values.astype(float)
        n = min(va.size, vb.size)
        mean_gap = abs(va.mean() - vb.mean())
        shape_gap = np.abs(va[:n] - vb[:n]).mean()
        assert mean_gap > 5 or shape_gap > 25, (a, b)

    # Traces are long enough for the Table III classifier (>=140 polls).
    for name in FIG3_MODELS:
        assert traces[name][("fpga", "current")].n_samples >= 140
