"""Tests for sensor-hardening countermeasures."""

import numpy as np
import pytest

from repro.core.countermeasures import (
    ROOT_ONLY,
    SensorHardening,
    coarsened,
    dithered,
    rate_limited,
)
from repro.sensors.hwmon import HwmonPermissionError
from repro.session import AttackSession
from repro.soc import ConstantActivity, Soc


class TestPolicyObjects:
    def test_root_only_denies_unprivileged(self):
        with pytest.raises(HwmonPermissionError):
            ROOT_ONLY.check_access(privileged=False)

    def test_root_only_allows_privileged(self):
        ROOT_ONLY.check_access(privileged=True)  # no raise

    def test_open_policy_allows_everyone(self):
        SensorHardening().check_access(privileged=False)

    def test_quantize_transform(self):
        policy = coarsened(32)
        values = policy.transform(
            np.array([1000.0, 1015.0, 1017.0]), np.zeros(3), "fpga-current"
        )
        assert np.all(values % 32 == 0)

    def test_dither_is_slot_consistent(self):
        policy = dithered(10.0, seed=1)
        times = np.array([0.0001, 0.0002, 0.0015])
        values = policy.transform(np.full(3, 1000.0), times, "c")
        # First two polls land in the same 1 ms slot: identical dither.
        assert values[0] == values[1]
        # A different slot gets fresh dither (overwhelmingly likely).
        assert values[2] != values[0]

    def test_dither_pure_across_calls(self):
        policy = dithered(5.0, seed=2)
        times = np.linspace(0, 1, 10)
        a = policy.transform(np.full(10, 500.0), times, "c")
        b = policy.transform(np.full(10, 500.0), times, "c")
        np.testing.assert_array_equal(a, b)

    def test_rate_limit_folds_times(self):
        policy = rate_limited(0.5)
        folded = policy.effective_times(np.array([0.1, 0.4, 0.6, 1.2]))
        np.testing.assert_allclose(folded, [0.0, 0.0, 0.5, 1.0])

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            SensorHardening(quantize_lsb=0.0)
        with pytest.raises(ValueError):
            SensorHardening(noise_sigma=-1.0)
        with pytest.raises(ValueError):
            SensorHardening(min_interval=0.0)


class TestHardenedSoc:
    def test_root_only_blocks_attack_reads(self):
        soc = Soc("ZCU102", seed=0, hardening=ROOT_ONLY)
        with pytest.raises(HwmonPermissionError):
            soc.sample("fpga", "current", np.array([1.0]))

    def test_root_only_serves_admins(self):
        soc = Soc("ZCU102", seed=0, hardening=ROOT_ONLY)
        values = soc.sample(
            "fpga", "current", np.array([1.0]), privileged=True
        )
        assert values[0] > 0

    def test_coarsening_hides_small_victims(self):
        plain = Soc("ZCU102", seed=0)
        hard = Soc("ZCU102", seed=0, hardening=coarsened(256))
        for soc in (plain, hard):
            soc.attach_workload("fpga", "small", ConstantActivity(0.02))
        t = np.array([1.0])
        plain_delta = plain.sample("fpga", "current", t)[0]
        hard_value = hard.sample("fpga", "current", t)[0]
        # The hardened reading sits on a 256 mA grid: a 23 mA victim
        # usually vanishes into the same bucket as idle.
        assert hard_value % 256 == 0
        assert plain_delta % 256 != 0 or plain_delta != hard_value

    def test_rate_limited_repeats_readings(self):
        soc = Soc("ZCU102", seed=0, hardening=rate_limited(0.5))
        times = 1.0 + np.linspace(0, 0.4, 8)
        values = soc.sample("fpga", "current", times)
        assert np.unique(values).size == 1

    def test_unhardened_soc_unaffected(self):
        soc = Soc("ZCU102", seed=0)
        values = soc.sample("fpga", "current", np.array([1.0]))
        assert values[0] > 0

    def test_dither_alone_does_not_stop_the_attack(self):
        # Key defensive insight: per-reading dither is defeated by the
        # attacker's own averaging — with thousands of samples per key
        # the medians reconverge, so even 60 mA RMS of injected noise
        # (4x the per-key current step) leaves every key separable.
        # Only quantization or access control actually close the leak.
        from repro.core.rsa_attack import RsaHammingWeightAttack

        hardened_soc = Soc("ZCU102", seed=0, hardening=dithered(60.0, seed=9))
        noisy = RsaHammingWeightAttack(AttackSession(hardened_soc))
        weights = (1, 128, 256, 384, 512)
        sweep = noisy.sweep(weights=weights, n_samples=4000)
        assert np.all(np.diff(sweep.medians) > 0)
        assert sweep.distinguishable_groups(min_gap=5.0) == len(weights)

    def test_coarsening_does_stop_the_attack(self):
        # The contrast case: a 256 mA export grid swallows the ~15 mA
        # per-key steps entirely.
        from repro.core.rsa_attack import RsaHammingWeightAttack

        hardened_soc = Soc("ZCU102", seed=0, hardening=coarsened(256))
        attack = RsaHammingWeightAttack(AttackSession(hardened_soc))
        weights = (1, 128, 256, 384, 512)
        sweep = attack.sweep(weights=weights, n_samples=2000)
        assert sweep.distinguishable_groups(min_gap=1.0) < len(weights)
