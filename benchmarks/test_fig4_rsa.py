"""Bench: regenerate Fig 4 — RSA-1024 Hamming weight vs FPGA readings.

Paper claims: over 17 keys with Hamming weights {1, 64, ..., 1024}, the
FPGA *current* distributions separate every key, while the *power*
channel (25 mW LSB) collapses them into ~5 groups.  The victim runs at
100 MHz; the attacker polls at 1 kHz.
"""

from conftest import print_table

from repro.core.rsa_attack import RsaHammingWeightAttack
from repro.crypto.rsa_math import PAPER_HAMMING_WEIGHTS


def run_fig4():
    n_samples = 100_000
    attack = RsaHammingWeightAttack()
    current = attack.sweep(n_samples=n_samples)
    power = attack.sweep(quantity="power", n_samples=n_samples)
    return attack, current, power


def test_fig4_rsa(benchmark):
    attack, current, power = benchmark.pedantic(
        run_fig4, rounds=1, iterations=1
    )

    rows = []
    for c_profile, p_profile in zip(current.profiles, power.profiles):
        c = c_profile.summary
        p = p_profile.summary
        rows.append(
            (
                c_profile.weight,
                f"{c.median:.0f}",
                f"{c.q1:.0f}-{c.q3:.0f}",
                f"{p.median / 1000:.0f}",
            )
        )
    print_table(
        "Fig 4: FPGA readings vs RSA-1024 key Hamming weight",
        ("HW", "I median (mA)", "I IQR", "P median (mW)"),
        rows,
    )

    current_groups = current.distinguishable_groups()
    power_groups = power.distinguishable_groups()
    print(
        f"\ndistinguishable groups: current {current_groups}/17 "
        f"(paper: 17), power {power_groups}/17 (paper: ~5)"
    )
    calibration = current.calibration()
    print(
        f"current calibration: {calibration.slope:.4f} mA/HW, "
        f"r={calibration.r:.4f}"
    )

    # --- Shape assertions. ---
    # Current separates all 17 keys; medians strictly increase with HW.
    assert current_groups == 17
    medians = current.medians
    assert all(b > a for a, b in zip(medians, medians[1:]))
    # Power collapses most keys (~5 groups in the paper).
    assert 3 <= power_groups <= 7
    assert power_groups < current_groups
    # Current decodes HW linearly.
    assert calibration.r > 0.999
    # End-to-end: an unseen key decodes within one 64-HW grid step.
    estimate = attack.end_to_end(448, calibration, n_samples=50_000)
    nearest = min(PAPER_HAMMING_WEIGHTS, key=lambda w: abs(w - estimate))
    print(f"online attack on HW=448: estimate {estimate:.0f} -> {nearest}")
    assert abs(estimate - 448) < 64
