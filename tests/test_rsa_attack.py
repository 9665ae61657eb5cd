"""Integration tests for the RSA Hamming-weight attack (reduced size)."""

import weakref
from dataclasses import replace

import numpy as np
import pytest

from repro.analysis.stats import linear_fit
from repro.core.rsa_attack import (
    KeyProfile,
    RsaHammingWeightAttack,
    WeightSweepResult,
    sweep_from_traces,
)
from repro.core.traces import TraceSet
from repro.crypto.rsa_math import PAPER_HAMMING_WEIGHTS
from repro.faults import FaultPlan, RetryPolicy
from repro.faults.plan import TORN_MAGNITUDE
from repro.session import AttackSession

WEIGHT_SUBSET = (1, 256, 512, 768, 1024)


@pytest.fixture(scope="module")
def attack():
    return RsaHammingWeightAttack()


@pytest.fixture(scope="module")
def current_sweep(attack):
    return attack.sweep(weights=WEIGHT_SUBSET, n_samples=3000)


class TestProfiles:
    def test_profile_count(self, current_sweep):
        assert len(current_sweep.profiles) == len(WEIGHT_SUBSET)

    def test_weights_recorded(self, current_sweep):
        np.testing.assert_array_equal(current_sweep.weights, WEIGHT_SUBSET)

    def test_medians_increase_with_weight(self, current_sweep):
        medians = current_sweep.medians
        assert np.all(np.diff(medians) > 0)

    def test_current_separates_all_keys(self, current_sweep):
        assert current_sweep.distinguishable_groups() == len(WEIGHT_SUBSET)

    def test_calibration_is_linear(self, current_sweep):
        fit = current_sweep.calibration()
        assert fit.r > 0.999
        # ~7 mA per 64 Hamming-weight steps -> ~0.11 mA per unit weight.
        assert 0.05 < fit.slope < 0.2

    def test_profile_summary(self, current_sweep):
        summary = current_sweep.profiles[0].summary
        assert summary.n == 3000
        assert summary.q3 >= summary.q1


class TestPowerChannel:
    def test_power_collapses_groups(self, attack):
        power = attack.sweep(
            weights=PAPER_HAMMING_WEIGHTS, quantity="power", n_samples=1500
        )
        groups = power.distinguishable_groups()
        # Paper: "the power measurements could only categorize the 17
        # keys into 5 groups".
        assert 3 <= groups <= 7
        assert groups < 17


class TestInference:
    def test_infer_known_weight(self, attack, current_sweep):
        calibration = current_sweep.calibration()
        profile = attack.profile_key(
            attack.make_circuit(512), n_samples=3000
        )
        estimate = attack.infer_weight(profile.values, calibration)
        assert abs(estimate - 512) < 64  # within one weight step

    def test_end_to_end(self, attack, current_sweep):
        calibration = current_sweep.calibration()
        estimate = attack.end_to_end(768, calibration, n_samples=3000)
        assert abs(estimate - 768) < 64

    def test_infer_rejects_empty(self, attack, current_sweep):
        with pytest.raises(ValueError):
            attack.infer_weight(np.array([]), current_sweep.calibration())

    def test_infer_rejects_degenerate_calibration(self, attack):
        flat = linear_fit([0.0, 1.0], [5.0, 5.0])
        with pytest.raises(ValueError, match="zero slope"):
            attack.infer_weight(np.array([5.0]), flat)


class TestSetup:
    def test_circuit_uses_paper_clock(self, attack):
        circuit = attack.make_circuit(64)
        assert circuit.clock_hz == pytest.approx(100e6)
        assert circuit.hamming_weight == 64

    def test_sampling_default_1khz(self, attack):
        assert attack.sampling_hz == pytest.approx(1000.0)

    def test_oversampled_readings_repeat(self, attack):
        profile = attack.profile_key(attack.make_circuit(128), n_samples=500)
        # 500 polls at 1 kHz span 0.5 s = ~14 sensor updates.
        assert np.unique(profile.values).size < 30

    def test_rail_left_clean(self, attack):
        assert "rsa" not in attack.soc.rail("fpga")._workloads


def _key_traces(case):
    """One small sweep's traces for a narrow-profile parity case."""
    if case == "torn":
        # No retries and no plausibility gate: torn magnitudes stay in.
        session = AttackSession.create(
            seed=4,
            faults=FaultPlan.at_rate(0.05),
            retry_policy=RetryPolicy(max_retries=0, plausible_limit=2**40),
        )
    else:
        session = AttackSession.create(seed=4)
    quantity = "power" if case == "power" else "current"
    traces = RsaHammingWeightAttack(session).collect_sweep(
        weights=(1, 64, 512, 1024), quantity=quantity, n_samples=1500
    )
    if case == "beyond-int32":
        return [replace(t, values=t.values * 2**33) for t in traces]
    if case == "float":
        return [replace(t, values=t.values / 3.0) for t in traces]
    return list(traces)


class TestNarrowProfiles:
    """Profiles hold sysfs integers narrow; every result keeps its bits."""

    @pytest.mark.parametrize(
        "case, dtype",
        [
            ("current", np.int16),
            ("power", np.int32),
            ("torn", np.int32),
            ("beyond-int32", np.int64),
            ("float", np.float64),
        ],
    )
    def test_matches_float64_copies(self, attack, case, dtype):
        traces = _key_traces(case)
        if case == "torn":
            assert max(t.values.max() for t in traces) >= TORN_MAGNITUDE
        narrow = sweep_from_traces(TraceSet(traces))
        oracle = WeightSweepResult(
            quantity=narrow.quantity,
            profiles=tuple(
                KeyProfile(
                    weight=profile.weight,
                    quantity=profile.quantity,
                    values=np.asarray(trace.values, dtype=np.float64),
                )
                for profile, trace in zip(narrow.profiles, traces)
            ),
        )
        for got, expected in zip(narrow.profiles, oracle.profiles):
            assert got.values.dtype == dtype
            np.testing.assert_array_equal(got.values, expected.values)
            assert got.summary == expected.summary
        assert narrow.medians.tobytes() == oracle.medians.tobytes()
        assert (
            narrow.distinguishable_groups()
            == oracle.distinguishable_groups()
        )
        assert narrow.calibration() == oracle.calibration()
        for got, expected in zip(narrow.profiles, oracle.profiles):
            assert attack.infer_weight(
                got.values, narrow.calibration()
            ) == attack.infer_weight(expected.values, oracle.calibration())

    def test_real_sweep_profiles_are_at_most_four_bytes(self, attack):
        for quantity in ("current", "power"):
            sweep = attack.sweep(
                weights=WEIGHT_SUBSET, quantity=quantity, n_samples=500
            )
            for profile in sweep.profiles:
                assert profile.values.itemsize <= 4

    def test_summary_is_computed_once(self, current_sweep):
        profile = current_sweep.profiles[0]
        assert profile.summary is profile.summary


def _seeded_attack():
    return RsaHammingWeightAttack(AttackSession.create(seed=9))


class TestStreamingSweep:
    @pytest.mark.parametrize("quantity", ["current", "power"])
    def test_sweep_equals_collect_then_analyze(self, quantity):
        weights = (1, 448, 1024)
        streamed = _seeded_attack().sweep(
            weights=weights, quantity=quantity, n_samples=800
        )
        batched = sweep_from_traces(
            _seeded_attack().collect_sweep(
                weights=weights, quantity=quantity, n_samples=800
            )
        )
        assert streamed.quantity == batched.quantity
        assert len(streamed.profiles) == len(weights)
        assert len(batched.profiles) == len(weights)
        for got, expected in zip(streamed.profiles, batched.profiles):
            assert got.weight == expected.weight
            assert got.values.dtype == expected.values.dtype
            assert got.values.tobytes() == expected.values.tobytes()
        assert streamed.medians.tobytes() == batched.medians.tobytes()

    def test_holds_one_trace_at_a_time(self, monkeypatch):
        attack = _seeded_attack()
        record_key = attack.record_key
        recorded = []
        alive_at_record = []

        def alive():
            return sum(ref() is not None for ref in recorded)

        def counting_record_key(*args, **kwargs):
            trace = record_key(*args, **kwargs)
            recorded.append(weakref.ref(trace))
            alive_at_record.append(alive())
            return trace

        monkeypatch.setattr(attack, "record_key", counting_record_key)
        sweep = attack.sweep(weights=(1, 64, 128, 192), n_samples=300)
        assert len(sweep.profiles) == 4
        assert alive_at_record == [1, 1, 1, 1]
        assert alive() == 0

    def test_rejects_an_empty_key_list(self, attack):
        with pytest.raises(ValueError, match="no test keys"):
            attack.sweep(weights=())
