"""Extension bench: channel fusion and TVLA leakage profiling.

Two analyses beyond the paper's tables:

* **Fusion** — concatenate all four current channels into one feature
  vector; the fused classifier should match or beat the best single
  channel (the attacker can poll every file at once).
* **TVLA profile** — Welch t-statistics between adjacent RSA keys on
  the current vs power channels; the standard leakage-assessment view
  of Fig 4 (|t| > 4.5 = detectable leak).
"""

import numpy as np
from conftest import print_table

from repro.analysis.leakage import TVLA_THRESHOLD, pairwise_tvla, snr
from repro.core.fingerprint import DnnFingerprinter, FingerprintConfig
from repro.core.rsa_attack import RsaHammingWeightAttack

MODELS = [
    "mobilenet-v1-1.0", "mobilenet-v2-1.0", "squeezenet-1.1",
    "efficientnet-lite0", "inception-v3", "resnet-50", "vgg-19",
    "densenet-121", "resnet-18", "vgg-16",
]
CURRENT_CHANNELS = [
    ("fpga", "current"), ("ddr", "current"),
    ("fpd", "current"), ("lpd", "current"),
]


def run_fusion():
    config = FingerprintConfig(
        duration=5.0, traces_per_model=12, n_folds=4, forest_trees=30
    )
    fingerprinter = DnnFingerprinter(config=config)
    datasets = fingerprinter.collect_datasets(
        models=MODELS, channels=CURRENT_CHANNELS
    )
    singles = {
        channel: fingerprinter.evaluate_channel(datasets[channel]).top1
        for channel in CURRENT_CHANNELS
    }
    fused = fingerprinter.evaluate_fused(datasets).top1
    return singles, fused


def test_channel_fusion(benchmark):
    singles, fused = benchmark.pedantic(run_fusion, rounds=1, iterations=1)

    rows = [
        (f"{domain}/{quantity}", f"{top1:.3f}")
        for (domain, quantity), top1 in singles.items()
    ]
    rows.append(("fused (4 currents)", f"{fused:.3f}"))
    print_table(
        "Fusion: single channels vs concatenated currents "
        f"(10 models, chance = 0.1)",
        ("channel", "top-1"),
        rows,
    )
    best_single = max(singles.values())
    assert fused >= best_single - 0.05
    assert fused > 0.85


def run_tvla():
    attack = RsaHammingWeightAttack()
    weights = (64, 128, 192, 256, 320, 384)
    current = attack.sweep(weights=weights, n_samples=4000)
    power = attack.sweep(weights=weights, quantity="power", n_samples=4000)
    current_groups = [p.values for p in current.profiles]
    power_groups = [p.values for p in power.profiles]
    return (
        weights,
        pairwise_tvla(current_groups),
        pairwise_tvla(power_groups),
        snr(current_groups),
        snr(power_groups),
    )


def test_tvla_leakage_profile(benchmark):
    weights, t_current, t_power, snr_current, snr_power = (
        benchmark.pedantic(run_tvla, rounds=1, iterations=1)
    )

    rows = [
        (
            f"{a} vs {b}",
            f"{tc:.1f}",
            f"{tp:.1f}",
        )
        for (a, b), tc, tp in zip(
            zip(weights, weights[1:]), t_current, t_power
        )
    ]
    print_table(
        "TVLA: Welch |t| between adjacent RSA keys (threshold 4.5)",
        ("key pair (HW)", "current |t|", "power |t|"),
        rows,
    )
    print(f"\nSNR: current {snr_current:.2f}, power {snr_power:.2f}")

    # Every adjacent pair leaks detectably on the current channel.
    assert np.all(t_current > TVLA_THRESHOLD)
    # The power channel's 25 mW LSB suppresses some adjacent pairs.
    assert np.min(t_power) < np.min(t_current)
    # Class identity dominates the current channel's variance budget.
    assert snr_current > snr_power
