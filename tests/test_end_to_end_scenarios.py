"""Integration scenarios: several attacks sharing one platform.

These tests run multiple experiments back-to-back on a single SoC
instance, the way a long-lived attacker process would — verifying that
experiments clean up after themselves, that time windows stay
disjoint, and that one attack's victims never bleed into another's
measurements.
"""

import numpy as np

from repro.core.fingerprint import DnnFingerprinter, FingerprintConfig
from repro.core.rsa_attack import RsaHammingWeightAttack
from repro.core.covert_channel import CovertChannel
from repro.core.sampler import HwmonSampler
from repro.session import AttackSession
from repro.soc import Soc


class TestSequentialAttacks:
    def test_fingerprint_then_rsa_on_one_soc(self):
        soc = Soc("ZCU102", seed=7)
        config = FingerprintConfig(
            duration=2.0, traces_per_model=4, n_folds=2, forest_trees=8
        )
        fingerprinter = DnnFingerprinter(AttackSession(soc, seed=7), config=config)
        datasets = fingerprinter.collect_datasets(
            models=["resnet-50", "vgg-19", "squeezenet-1.1"],
            channels=[("fpga", "current")],
        )
        fp_result = fingerprinter.evaluate_channel(
            datasets[("fpga", "current")]
        )
        assert fp_result.top1 > 0.5

        # The fingerprinting phase must leave the rails clean...
        assert soc.rail("fpga")._workloads == {}

        # ...so the RSA phase starts from a quiet platform.  Its clock
        # must not collide with the fingerprinting windows.
        attack = RsaHammingWeightAttack(AttackSession(soc, seed=7))
        attack._clock = fingerprinter._clock + 1.0
        sweep = attack.sweep(weights=(1, 512, 1024), n_samples=1200)
        assert sweep.distinguishable_groups() == 3
        assert soc.rail("fpga")._workloads == {}

    def test_covert_channel_after_attacks(self):
        soc = Soc("ZCU102", seed=9)
        attack = RsaHammingWeightAttack(AttackSession(soc, seed=9))
        attack.sweep(weights=(1, 1024), n_samples=800)

        channel = CovertChannel(AttackSession(soc, seed=9))
        channel._clock = attack._clock + 1.0
        rng = np.random.default_rng(0)
        report = channel.transmit(
            rng.integers(0, 2, size=24), bit_period=0.2
        )
        assert report.bit_errors == 0

    def test_idle_readings_unchanged_after_campaign(self):
        soc = Soc("ZCU102", seed=11)
        sampler = HwmonSampler(soc, seed=11)
        before = sampler.collect(
            "fpga", "current", start=0.5, duration=1.0
        ).values.mean()

        attack = RsaHammingWeightAttack(AttackSession(soc, seed=11))
        attack._clock = 10.0
        attack.sweep(weights=(1, 1024), n_samples=600)

        # Sampling the same pre-campaign window reproduces the same
        # readings (pure-function noise), and a fresh idle window after
        # the campaign returns to the same level.
        replay = sampler.collect(
            "fpga", "current", start=0.5, duration=1.0
        ).values.mean()
        assert replay == before
        after = sampler.collect(
            "fpga", "current", start=attack._clock + 5.0, duration=1.0
        ).values.mean()
        assert abs(after - before) < 20  # mA

    def test_two_socs_do_not_interfere(self):
        a = Soc("ZCU102", seed=1)
        b = Soc("ZCU102", seed=1)
        from repro.soc import ConstantActivity

        a.attach_workload("fpga", "x", ConstantActivity(3.0))
        t = np.array([1.0])
        assert a.sample("fpga", "current", t)[0] > (
            b.sample("fpga", "current", t)[0] + 3000
        )


class TestClockHygiene:
    def test_fingerprinter_windows_monotone(self):
        fingerprinter = DnnFingerprinter(
            AttackSession.create(seed=2),
            config=FingerprintConfig(
                duration=1.0, traces_per_model=2, n_folds=2, forest_trees=4
            ),
        )
        starts = [fingerprinter._next_window() for _ in range(10)]
        assert all(b > a for a, b in zip(starts, starts[1:]))
        gaps = np.diff(starts)
        assert np.all(gaps >= 1.0)  # at least the trace duration apart

    def test_rsa_clock_advances_past_each_session(self):
        attack = RsaHammingWeightAttack(AttackSession.create(seed=3))
        clock_before = attack._clock
        attack.profile_key(attack.make_circuit(64), n_samples=500)
        expected = 500 / attack.sampling_hz
        assert attack._clock >= clock_before + expected
