#!/usr/bin/env python3
"""Leakage assessment of the hwmon channels (TVLA / SNR methodology).

Applies the standard side-channel evaluation toolkit to the simulated
board: Welch t-tests between RSA keys, Mangard SNR across key classes,
and spectral serving-rate recovery for a DPU victim — the analyses an
evaluator would run before (or instead of) mounting full attacks.

Run:  python examples/leakage_assessment.py
"""


from repro.analysis import (
    TVLA_THRESHOLD,
    estimate_serving_rate,
    pairwise_tvla,
    snr,
    welch_t_test,
)
from repro.core.rsa_attack import RsaHammingWeightAttack
from repro.core.sampler import HwmonSampler
from repro.dpu.models import build_model
from repro.dpu.runner import DpuRunner
from repro.session import AttackSession
from repro.soc import Soc


def main():
    print("1. TVLA: does the current channel leak the RSA key?")
    attack = RsaHammingWeightAttack(AttackSession.create(seed=13))
    light = attack.profile_key(attack.make_circuit(256), n_samples=4000)
    heavy = attack.profile_key(attack.make_circuit(320), n_samples=4000)
    result = welch_t_test(light.values, heavy.values)
    print(f"   HW=256 vs HW=320 on curr1_input: |t| = "
          f"{abs(result.statistic):.1f}  "
          f"({'LEAKS' if result.leaks else 'ok'}; threshold "
          f"{TVLA_THRESHOLD})")

    print("\n2. Per-step leakage profile over six adjacent keys:")
    sweep = attack.sweep(weights=(64, 128, 192, 256, 320, 384),
                         n_samples=4000)
    groups = [profile.values for profile in sweep.profiles]
    statistics = pairwise_tvla(groups)
    for (a, b), t in zip(
        zip(sweep.weights, sweep.weights[1:]), statistics
    ):
        print(f"   HW {a:4d} vs {b:4d}: |t| = {t:5.1f}")
    print(f"   SNR across the six keys: {snr(groups):.2f}")

    print("\n3. Spectral recon: recover a victim's serving rate.")
    soc = Soc("ZCU102", seed=13)
    runner = DpuRunner()
    model = build_model("vgg-19")
    runner.deploy(soc, model, start=1.0)
    sampler = HwmonSampler(soc, seed=13)
    trace = sampler.collect("fpga", "current", start=1.0, duration=20.0)
    peak = estimate_serving_rate(trace)
    true_rate = 1.0 / runner.cycle_period(model)
    print(f"   victim: vgg-19 at {true_rate:.1f} inferences/s")
    print(f"   spectral estimate: {peak.frequency_hz:.1f} Hz "
          f"(prominence {peak.prominence:.0f}x)")
    print("\nAll three analyses run from unprivileged sysfs reads only.")


if __name__ == "__main__":
    main()
