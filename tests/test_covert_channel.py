"""Tests for the current-based covert channel."""

import numpy as np
import pytest

from repro.core.covert_channel import (
    PREAMBLE,
    ChannelReport,
    CovertChannel,
    PowerCovertSender,
)
from repro.session import AttackSession


class TestSender:
    def test_modulate_produces_frame(self):
        sender = PowerCovertSender(p_high=1.0, p_low=0.0)
        timeline = sender.modulate([1, 0, 1], bit_period=0.1)
        # Preamble (8) + payload (3) segments.
        assert timeline.powers.size == len(PREAMBLE) + 3

    def test_bit_levels(self):
        sender = PowerCovertSender(p_high=2.0, p_low=0.5)
        timeline = sender.modulate([1, 0], bit_period=0.1, start=0.0)
        t_payload_one = (len(PREAMBLE) + 0.5) * 0.1
        t_payload_zero = (len(PREAMBLE) + 1.5) * 0.1
        assert timeline.power_at(np.array([t_payload_one]))[0] == 2.0
        assert timeline.power_at(np.array([t_payload_zero]))[0] == 0.5

    def test_invalid_levels(self):
        with pytest.raises(ValueError):
            PowerCovertSender(p_high=0.5, p_low=0.5)
        with pytest.raises(ValueError):
            PowerCovertSender(p_high=1.0, p_low=-0.1)

    def test_invalid_bit_period(self):
        with pytest.raises(ValueError):
            PowerCovertSender().modulate([1], bit_period=0.0)


class TestChannelReport:
    def test_error_accounting(self):
        report = ChannelReport(
            sent=(1, 0, 1, 1), received=(1, 1, 1, 0), bit_period=0.1
        )
        assert report.bit_errors == 2
        assert report.bit_error_rate == pytest.approx(0.5)
        assert report.raw_throughput_bps == pytest.approx(10.0)
        assert report.effective_throughput_bps == pytest.approx(5.0)

    def test_empty_payload(self):
        report = ChannelReport(sent=(), received=(), bit_period=0.1)
        assert report.bit_error_rate == 0.0


class TestEndToEnd:
    def test_slow_rate_is_error_free(self):
        channel = CovertChannel()
        rng = np.random.default_rng(1)
        bits = rng.integers(0, 2, size=48)
        report = channel.transmit(bits, bit_period=0.2)
        assert report.bit_errors == 0
        np.testing.assert_array_equal(report.received, report.sent)

    def test_rate_near_update_interval_degrades(self):
        channel = CovertChannel()
        rng = np.random.default_rng(2)
        bits = rng.integers(0, 2, size=48)
        fast = channel.transmit(bits, bit_period=0.04)
        slow = channel.transmit(bits, bit_period=0.2)
        assert fast.bit_error_rate >= slow.bit_error_rate

    def test_channel_cleans_up_rail(self):
        channel = CovertChannel()
        channel.transmit([1, 0, 1], bit_period=0.1)
        assert "covert-sender" not in (
            channel.soc.rail("fpga")._workloads
        )

    def test_capacity_sweep_shapes(self):
        channel = CovertChannel()
        reports = channel.capacity_sweep(
            bit_periods=[0.3, 0.1], n_bits=16, seed=3
        )
        assert len(reports) == 2
        assert reports[0].raw_throughput_bps < reports[1].raw_throughput_bps

    def test_deterministic_with_seed(self):
        a = CovertChannel(
            AttackSession.create(seed=5)
        ).transmit([1, 0, 1, 1], bit_period=0.15)
        b = CovertChannel(
            AttackSession.create(seed=5)
        ).transmit([1, 0, 1, 1], bit_period=0.15)
        assert a.received == b.received

    def test_weak_sender_fails(self):
        # A 15 mW load cannot clear the rail's ambient noise reliably
        # at high signaling rates — BER should be clearly nonzero.
        channel = CovertChannel(sender=PowerCovertSender(p_high=0.015, p_low=0.0))
        rng = np.random.default_rng(4)
        bits = rng.integers(0, 2, size=64)
        report = channel.transmit(bits, bit_period=0.05)
        assert report.bit_error_rate > 0.05
