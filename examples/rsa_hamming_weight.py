#!/usr/bin/env python3
"""RSA-1024 Hamming-weight extraction (paper §IV-C / Fig 4, scaled down).

The victim loops RSA encryptions at 100 MHz with a secret exponent
sealed inside the encrypted bitstream.  The attacker polls the FPGA
current file at 1 kHz and reads the exponent's Hamming weight off the
current distribution — the power channel, quantized to 25 mW, cannot
tell most keys apart.

Run:  python examples/rsa_hamming_weight.py
"""

from repro import RsaHammingWeightAttack
from repro.crypto import PAPER_HAMMING_WEIGHTS
from repro.session import AttackSession


def main():
    attack = RsaHammingWeightAttack(AttackSession.create(seed=3))

    print("Profiling the paper's 17 keys (HW = 1, 64, 128, ..., 1024)")
    print("on the current channel (1 kHz polling)...")
    current = attack.sweep(n_samples=8000)
    print("...and on the power channel...")
    power = attack.sweep(quantity="power", n_samples=8000)

    print(f"\n  {'HW':>5s} {'median mA':>10s} {'IQR':>6s} {'median mW':>10s}")
    for c_profile, p_profile in zip(current.profiles, power.profiles):
        c = c_profile.summary
        p = p_profile.summary
        print(f"  {c_profile.weight:5d} {c.median:10.0f} {c.iqr:6.1f} "
              f"{p.median / 1000:10.0f}")

    print(f"\nDistinguishable groups — current: "
          f"{current.distinguishable_groups()}/17, power: "
          f"{power.distinguishable_groups()}/17")
    print("(paper: all 17 by current, ~5 groups by power)")

    calibration = current.calibration()
    print(f"\nCalibration: median_mA = {calibration.slope:.4f} * HW + "
          f"{calibration.intercept:.1f}  (r = {calibration.r:.4f})")

    print("\nOnline attack on an unknown key (true HW = 576):")
    estimate = attack.end_to_end(576, calibration, n_samples=8000)
    nearest = min(PAPER_HAMMING_WEIGHTS, key=lambda w: abs(w - estimate))
    print(f"  raw estimate {estimate:.0f} -> nearest profiled weight "
          f"{nearest}")
    print("  Knowing HW shrinks brute-force search space and feeds")
    print("  statistical key-recovery attacks (Sarkar & Maitra).")


if __name__ == "__main__":
    main()
