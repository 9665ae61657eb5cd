"""Tests for RSA reference math and key construction."""

import pytest
from reference_kernels import square_and_multiply

from repro.crypto import (
    PAPER_HAMMING_WEIGHTS,
    exponent_bits_lsb_first,
    hamming_weight,
    make_exponent_with_weight,
)


class TestHammingWeight:
    def test_zero(self):
        assert hamming_weight(0) == 0

    def test_small_values(self):
        assert hamming_weight(0b1011) == 3

    def test_all_ones(self):
        assert hamming_weight((1 << 1024) - 1) == 1024

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            hamming_weight(-1)


class TestExponentBits:
    def test_lsb_first_order(self):
        assert exponent_bits_lsb_first(0b1101, width=4) == [1, 0, 1, 1]

    def test_padding_to_width(self):
        bits = exponent_bits_lsb_first(1, width=8)
        assert bits == [1, 0, 0, 0, 0, 0, 0, 0]

    def test_width_overflow_rejected(self):
        with pytest.raises(ValueError):
            exponent_bits_lsb_first(256, width=8)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            exponent_bits_lsb_first(-1, width=8)


class TestSquareAndMultiply:
    @pytest.mark.parametrize(
        "base,exp,mod",
        [
            (2, 10, 1000),
            (7, 1, 13),
            (5, 117, 391),
            (123456789, 65537, 999999937),
            (0, 5, 97),
        ],
    )
    def test_matches_pow(self, base, exp, mod):
        width = max(exp.bit_length(), 1)
        assert square_and_multiply(base, exp, mod, width) == pow(base, exp, mod)

    def test_1024_bit_operands(self):
        modulus = (1 << 1023) | 0x9F2B51C377E10A65
        exponent = make_exponent_with_weight(512, seed=5)
        base = 0xDEADBEEF
        assert square_and_multiply(base, exponent, modulus) == pow(
            base, exponent, modulus
        )

    def test_trace_schedule_is_exponent_bits(self):
        # The multiply-activation schedule is the exponent, LSB first.
        assert exponent_bits_lsb_first(0b101, 3) == [1, 0, 1]
        assert square_and_multiply(3, 0b101, 1000, width=3) == pow(3, 5, 1000)

    def test_schedule_length_is_width_not_bitlength(self):
        schedule = exponent_bits_lsb_first(1, 16)
        assert len(schedule) == 16
        assert sum(schedule) == 1

    def test_invalid_modulus(self):
        with pytest.raises(ValueError):
            square_and_multiply(2, 3, 0)


class TestKeyConstruction:
    def test_paper_weights(self):
        assert PAPER_HAMMING_WEIGHTS[0] == 1
        assert PAPER_HAMMING_WEIGHTS[-1] == 1024
        assert len(PAPER_HAMMING_WEIGHTS) == 17
        diffs = [
            b - a
            for a, b in zip(PAPER_HAMMING_WEIGHTS[1:], PAPER_HAMMING_WEIGHTS[2:])
        ]
        assert all(d == 64 for d in diffs)

    @pytest.mark.parametrize("weight", [1, 64, 512, 1024])
    def test_exact_weight(self, weight):
        exponent = make_exponent_with_weight(weight, seed=1)
        assert hamming_weight(exponent) == weight

    def test_full_weight_is_all_ones(self):
        exponent = make_exponent_with_weight(1024, seed=1)
        assert exponent == (1 << 1024) - 1

    def test_seeded_determinism(self):
        a = make_exponent_with_weight(128, seed=4)
        b = make_exponent_with_weight(128, seed=4)
        assert a == b

    def test_weight_zero_rejected(self):
        with pytest.raises(ValueError):
            make_exponent_with_weight(0)

    def test_weight_above_width_rejected(self):
        with pytest.raises(ValueError):
            make_exponent_with_weight(1025)

    def test_paper_key_set(self):
        for weight in PAPER_HAMMING_WEIGHTS:
            exponent = make_exponent_with_weight(weight, seed=2)
            assert hamming_weight(exponent) == weight

