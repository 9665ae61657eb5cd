"""Ablation benches: design choices and the paper's mitigation.

These go beyond the paper's tables to probe the knobs DESIGN.md calls
out:

* hwmon update interval — the root-only 2-35 ms knob: a faster sensor
  sharpens the RSA attack (more independent readings per second);
* current LSB — a mitigation-style ablation: coarser current
  quantization collapses the RSA key groups the same way the 25 mW
  power LSB does;
* forest size — Table III is insensitive to shrinking the forest well
  below the paper's 100 trees;
* privilege restriction — the paper's proposed mitigation: with hwmon
  access restricted to root, the unprivileged attack surface is gone.
"""

import numpy as np
from conftest import print_table

from repro.analysis.distributions import count_groups
from repro.core.fingerprint import DnnFingerprinter, FingerprintConfig
from repro.core.rsa_attack import RsaHammingWeightAttack
from repro.sensors.hwmon import HwmonPermissionError
from repro.sensors.ina226 import Ina226
from repro.session import AttackSession
from repro.soc import Soc

WEIGHTS = (1, 256, 512, 768, 1024)


def sweep_update_interval():
    """RSA sweep sharpness vs sensor refresh interval."""
    results = []
    for interval_ms in (35, 16, 8, 2):
        soc = Soc("ZCU102", seed=0)
        device = soc.device("fpga")
        device.write("update_interval", str(interval_ms), privileged=True)
        attack = RsaHammingWeightAttack(AttackSession(soc))
        sweep = attack.sweep(weights=WEIGHTS, n_samples=6000)
        iqr = np.mean([p.summary.iqr for p in sweep.profiles])
        results.append((interval_ms, sweep.distinguishable_groups(), iqr))
    return results


def test_ablation_update_interval(benchmark):
    results = benchmark.pedantic(
        sweep_update_interval, rounds=1, iterations=1
    )
    print_table(
        "Ablation: hwmon update_interval (root-only) vs RSA sweep",
        ("interval (ms)", "groups", "mean IQR (mA)"),
        [(i, g, f"{q:.1f}") for i, g, q in results],
    )
    # All five test keys stay separable at every interval; what changes
    # is how many *independent* readings a fixed wall-time yields.
    for _, groups, _ in results:
        assert groups == len(WEIGHTS)


def sweep_current_lsb():
    """RSA groups vs current quantization (mitigation-style ablation)."""
    results = []
    attack = RsaHammingWeightAttack()
    sweep = attack.sweep(weights=tuple(range(64, 1025, 64)), n_samples=4000)
    medians = sweep.medians  # mA, 1 mA grid
    for lsb_ma in (1, 4, 8, 16, 32):
        quantized = np.round(medians / lsb_ma) * lsb_ma
        results.append((lsb_ma, count_groups(quantized, min_gap=lsb_ma)))
    return results


def test_ablation_current_lsb(benchmark):
    results = benchmark.pedantic(sweep_current_lsb, rounds=1, iterations=1)
    print_table(
        "Ablation: coarsened current LSB vs distinguishable key groups",
        ("LSB (mA)", "groups (of 16 keys)"),
        results,
    )
    groups = [g for _, g in results]
    # Coarser quantization can only merge groups.
    assert all(b <= a for a, b in zip(groups, groups[1:]))
    assert groups[0] == 16  # 1 mA: every key separable
    assert groups[-1] <= 6  # 32 mA: mostly collapsed


def sweep_forest_size():
    """Fingerprinting accuracy vs number of trees (8-model subset)."""
    models = [
        "mobilenet-v1-1.0", "mobilenet-v2-1.0", "squeezenet-1.1",
        "efficientnet-lite0", "inception-v3", "resnet-50", "vgg-19",
        "densenet-121",
    ]
    scores = []
    for trees in (5, 20, 60):
        config = FingerprintConfig(
            duration=5.0, traces_per_model=10, n_folds=5, forest_trees=trees
        )
        fingerprinter = DnnFingerprinter(config=config)
        datasets = fingerprinter.collect_datasets(
            models=models, channels=[("fpga", "current")]
        )
        result = fingerprinter.evaluate_channel(
            datasets[("fpga", "current")]
        )
        scores.append((trees, result.top1))
    return scores


def test_ablation_forest_size(benchmark):
    scores = benchmark.pedantic(sweep_forest_size, rounds=1, iterations=1)
    print_table(
        "Ablation: forest size vs top-1 (8-model subset, FPGA current)",
        ("trees", "top-1"),
        [(t, f"{a:.3f}") for t, a in scores],
    )
    # Accuracy saturates well below the paper's 100 trees.
    assert scores[-1][1] > 0.9
    assert scores[-1][1] - scores[1][1] < 0.1


def test_mitigation_privileged_only(benchmark):
    """The paper's mitigation: restrict the sensors to root."""

    def attempt_attack():
        soc = Soc("ZCU102", seed=0)
        denied = 0
        for domain, _ in soc.sensitive_channels():
            path = f"{soc.device(domain).path}/update_interval"
            try:
                soc.hwmon.write(path, "2", privileged=False)
            except HwmonPermissionError:
                denied += 1
        return denied

    denied = benchmark(attempt_attack)
    # Today only reconfiguration is gated; the mitigation would extend
    # this denial to the *_input files themselves.
    assert denied == 4
    print("\nMitigation check: all 4 sensitive sensors deny unprivileged "
          "reconfiguration; the paper proposes extending this to reads "
          "(at the cost of benign monitoring tools).")


def test_power_lsb_ratio_is_fixed(benchmark):
    """Datasheet invariant the attack leans on: power LSB = 25x current
    LSB, so power can never out-resolve current."""

    def ratios():
        return [
            Ina226(shunt_ohms=s, current_lsb=1e-3).power_lsb / 1e-3
            for s in (2e-3, 5e-3)
        ]

    values = benchmark(ratios)
    assert values == [25.0, 25.0]
