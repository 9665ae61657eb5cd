#!/usr/bin/env python3
"""DNN model fingerprinting on the DPU (paper §IV-B, scaled down).

Offline phase: run known architectures on the (encrypted) DPU, record
FPGA-current traces through hwmon, and train a random forest.
Online phase: record one trace of a black-box victim model and name it.

Run:  python examples/dnn_fingerprinting.py
"""

from repro import DnnFingerprinter, FingerprintConfig, build_model
from repro.session import AttackSession

#: One representative per family — swap in repro.dpu.list_models() for
#: the full 39-model evaluation (see benchmarks/).
ZOO = [
    "mobilenet-v1-1.0",
    "squeezenet-1.1",
    "efficientnet-lite0",
    "inception-v3",
    "resnet-50",
    "vgg-19",
    "densenet-121",
]


def main():
    config = FingerprintConfig(
        duration=5.0, traces_per_model=10, n_folds=5, forest_trees=30
    )
    fingerprinter = DnnFingerprinter(AttackSession.create(seed=11), config=config)

    print(f"Offline phase: recording {len(ZOO)} models x "
          f"{config.traces_per_model} traces on 2 channels...")
    datasets = fingerprinter.collect_datasets(
        models=ZOO,
        channels=[("fpga", "current"), ("fpga", "voltage")],
    )

    for channel, dataset in datasets.items():
        result = fingerprinter.evaluate_channel(dataset)
        domain, quantity = channel
        print(f"  {domain}/{quantity:8s}: top-1 = {result.top1:.3f}, "
              f"top-5 = {result.top5:.3f} (10-fold CV equivalent)")

    print("\nOnline phase: fingerprinting a black-box accelerator...")
    classifier = fingerprinter.train(datasets[("fpga", "current")])
    victim_name = "resnet-50"  # unknown to the attacker
    victim = build_model(victim_name)
    run = fingerprinter.record_run(
        victim, channels=[("fpga", "current")], run_index=1000
    )
    trace = run[("fpga", "current")]
    prediction = fingerprinter.classify(classifier, trace)
    top3 = fingerprinter.classify_topk(classifier, trace, k=3)

    print(f"  victim ran: {victim_name}")
    print(f"  attacker says: {prediction}  (top-3: {', '.join(top3)})")
    print(f"  {'SUCCESS' if prediction == victim_name else 'MISS'} — from "
          f"one 5 s unprivileged polling session of curr1_input.")


if __name__ == "__main__":
    main()
