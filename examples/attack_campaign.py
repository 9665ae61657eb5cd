#!/usr/bin/env python3
"""The full kill chain: recon -> stakeout -> attack (paper threat model).

One unprivileged process lands on the device (OTA update / malware).
It enumerates /sys/class/hwmon, recognizes the INA226 devices, waits
for the victim to start, then records and classifies.

Run:  python examples/attack_campaign.py
"""

from repro.core.campaign import AttackCampaign
from repro.core.fingerprint import DnnFingerprinter, FingerprintConfig
from repro.dpu.models import build_model
from repro.dpu.runner import DpuRunner
from repro.session import AttackSession
from repro.soc import Soc

ZOO = ["mobilenet-v1-1.0", "squeezenet-1.1", "inception-v3",
       "resnet-50", "vgg-19"]


def main():
    soc = Soc("ZCU102", seed=17)
    campaign = AttackCampaign(AttackSession(soc, seed=17))

    print("Stage 1 — recon (unprivileged 'name' file reads):")
    report = campaign.recon()
    print(f"  enumerated {len(report.devices)} hwmon devices")
    for domain, path in sorted(report.sensitive_paths.items()):
        print(f"  {domain:5s} -> {path}")

    print("\nStage 0 (offline, attacker's own board) — train classifiers:")
    config = FingerprintConfig(duration=5.0, traces_per_model=10,
                               n_folds=5, forest_trees=30)
    fingerprinter = DnnFingerprinter(AttackSession(soc, seed=17), config=config)
    datasets = fingerprinter.collect_datasets(
        models=ZOO, channels=[("fpga", "current")]
    )
    classifier = fingerprinter.train(datasets[("fpga", "current")])
    print(f"  trained on {len(datasets[('fpga', 'current')])} traces of "
          f"{len(ZOO)} architectures")

    print("\nStage 2 — stakeout: victim deploys at t=+8 s...")
    victim_name = "inception-v3"
    runner = DpuRunner()
    stakeout_from = fingerprinter._clock + 1.0
    victim_start = stakeout_from + 8.0
    runner.deploy(
        soc, build_model(victim_name), duration=30.0, seed=99,
        start=victim_start,
    )
    found, onset = campaign.wait_for_victim(
        start=stakeout_from, timeout=30.0
    )
    print(f"  victim detected: {found}, onset ~t+{onset - stakeout_from:.1f} s")

    print("\nStage 3 — attack: record 5 s and classify:")
    trace = campaign.record_victim(
        start=onset + 0.1, duration=5.0
    )
    prediction = fingerprinter.classify(classifier, trace)
    top3 = fingerprinter.classify_topk(classifier, trace, k=3)
    print(f"  victim actually ran: {victim_name}")
    print(f"  campaign concluded:  {prediction}  (top-3: {', '.join(top3)})")
    print(f"  {'SUCCESS' if prediction == victim_name else 'MISS'} — "
          f"no crafted circuit, no privileges, no PDN assumptions.")


if __name__ == "__main__":
    main()
