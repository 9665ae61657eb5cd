"""Extension bench: how well do candidate mitigations actually work?

The paper's discussion proposes restricting sensor access to root.
This bench compares that against the softer driver-level alternatives
(coarsening, dithering, rate limiting) on the RSA Hamming-weight
attack, reporting how many of the 17 key groups survive each defense.

Headline findings:
* root-only access removes the attack surface entirely;
* coarsening to >= 16 mA collapses most key groups;
* dithering alone FAILS — the attacker's averaging removes it;
* rate limiting does not reduce separability, only harvest speed.
"""

import numpy as np
from conftest import print_table

from repro.core.countermeasures import (
    ROOT_ONLY,
    coarsened,
    dithered,
    rate_limited,
)
from repro.core.rsa_attack import RsaHammingWeightAttack
from repro.sensors.hwmon import HwmonPermissionError
from repro.session import AttackSession
from repro.soc import Soc

WEIGHTS = tuple(range(64, 1025, 64))  # 16 keys


def run_mitigation_matrix():
    policies = [
        ("none", None),
        ("coarsen 8 mA", coarsened(8)),
        ("coarsen 32 mA", coarsened(32)),
        ("dither 60 mA", dithered(60.0, seed=4)),
        ("rate limit 0.5 s", rate_limited(0.5)),
    ]
    rows = []
    for name, policy in policies:
        soc = Soc("ZCU102", seed=0, hardening=policy)
        attack = RsaHammingWeightAttack(AttackSession(soc))
        sweep = attack.sweep(weights=WEIGHTS, n_samples=6000)
        min_gap = 1.0
        if policy is not None and policy.quantize_lsb:
            min_gap = policy.quantize_lsb
        rows.append((name, sweep.distinguishable_groups(min_gap=min_gap)))
    return rows


def test_mitigation_matrix(benchmark):
    rows = benchmark.pedantic(run_mitigation_matrix, rounds=1, iterations=1)
    print_table(
        "Mitigations vs RSA Hamming-weight attack (16 keys)",
        ("policy", "distinguishable groups"),
        rows,
    )
    groups = dict(rows)
    assert groups["none"] == 16
    # Coarsening is the effective driver-level defense.
    assert groups["coarsen 32 mA"] <= 6
    assert groups["coarsen 8 mA"] <= groups["none"]
    # Dither is defeated by attacker-side averaging.
    assert groups["dither 60 mA"] >= 12
    # Rate limiting alone leaves separability intact.
    assert groups["rate limit 0.5 s"] >= 14


def test_mitigation_root_only(benchmark):
    def blocked_reads():
        soc = Soc("ZCU102", seed=0, hardening=ROOT_ONLY)
        blocked = 0
        for domain, _ in soc.sensitive_channels():
            try:
                soc.sample(domain, "current", np.array([1.0]))
            except HwmonPermissionError:
                blocked += 1
        # Privileged monitoring still works (the mitigation's cost is
        # on *unprivileged* benign tools only).
        admin = soc.sample(
            "fpga", "current", np.array([1.0]), privileged=True
        )
        return blocked, admin[0]

    blocked, admin_value = benchmark(blocked_reads)
    assert blocked == 4
    assert admin_value > 0
    print("\nroot-only policy: all 4 sensitive channels deny the attacker; "
          "privileged monitoring unaffected.")
