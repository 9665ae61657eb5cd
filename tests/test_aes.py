"""Tests for the AES-128 victim circuit."""

import numpy as np
import pytest

from repro.fpga.aes import AesCircuit, aes128_encrypt_block, expand_key
from repro.utils.rng import spawn

FIPS_KEY = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
FIPS_PLAINTEXT = bytes.fromhex("00112233445566778899aabbccddeeff")
FIPS_CIPHERTEXT = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")


class TestAesCore:
    def test_fips197_appendix_c1(self):
        ciphertext, _ = aes128_encrypt_block(FIPS_PLAINTEXT, FIPS_KEY)
        assert ciphertext == FIPS_CIPHERTEXT

    def test_fips197_key_expansion_first_round(self):
        round_keys = expand_key(FIPS_KEY)
        assert len(round_keys) == 11
        assert bytes(round_keys[0]) == FIPS_KEY
        # FIPS-197 A.1 first expanded word for this key pattern.
        assert round_keys[1][:4] == [0xD6, 0xAA, 0x74, 0xFD]

    def test_all_zero_key_vector(self):
        # NIST known-answer: AES-128(0^128, 0^128).
        ciphertext, _ = aes128_encrypt_block(bytes(16), bytes(16))
        assert ciphertext.hex() == "66e94bd4ef8a2c3b884cfa59ca342b2e"

    def test_round_distances_reported(self):
        _, distances = aes128_encrypt_block(FIPS_PLAINTEXT, FIPS_KEY)
        assert len(distances) == 10
        assert all(0 < d <= 128 for d in distances)

    def test_wrong_key_length_rejected(self):
        with pytest.raises(ValueError):
            expand_key(b"short")
        with pytest.raises(ValueError):
            aes128_encrypt_block(FIPS_PLAINTEXT, b"short")

    def test_wrong_block_length_rejected(self):
        with pytest.raises(ValueError):
            aes128_encrypt_block(b"short", FIPS_KEY)

    def test_deterministic(self):
        a, _ = aes128_encrypt_block(FIPS_PLAINTEXT, FIPS_KEY)
        b, _ = aes128_encrypt_block(FIPS_PLAINTEXT, FIPS_KEY)
        assert a == b

    def test_plaintext_sensitivity(self):
        flipped = bytes([FIPS_PLAINTEXT[0] ^ 1]) + FIPS_PLAINTEXT[1:]
        a, _ = aes128_encrypt_block(FIPS_PLAINTEXT, FIPS_KEY)
        b, _ = aes128_encrypt_block(flipped, FIPS_KEY)
        assert a != b


class TestAesCircuit:
    def test_encrypt_matches_core(self):
        # The circuit's switching model runs the FIPS-197 core on its
        # own key: one block's bits are that block's round distances.
        circuit = AesCircuit(FIPS_KEY)
        plaintext = bytes(
            int(b) for b in spawn(7, "aes-plaintexts").integers(0, 256, 16)
        )
        _, distances = aes128_encrypt_block(plaintext, FIPS_KEY)
        assert circuit.mean_switching_bits(n_blocks=1, seed=7) == sum(
            distances
        )

    def test_mean_switching_bits_plausible(self):
        circuit = AesCircuit(FIPS_KEY)
        bits = circuit.mean_switching_bits(n_blocks=64, seed=1)
        # 10 rounds x ~64 expected bit flips.
        assert 500 < bits < 800

    def test_mean_power_dominated_by_engine(self):
        circuit = AesCircuit(FIPS_KEY)
        power = circuit.mean_power(seed=1)
        key_term = power - circuit.P_IDLE - circuit.P_ENGINE
        assert key_term < 0.01  # the key-dependent part is milliwatts

    def test_key_dependent_power_spread_is_tiny(self):
        # The negative-result premise: two keys' mean powers differ by
        # far less than one 1 mA current LSB (0.85 mW).
        a = AesCircuit(bytes(16)).mean_power(seed=1)
        b = AesCircuit(bytes([0xFF] * 16)).mean_power(seed=1)
        assert abs(a - b) < 0.85e-3

    def test_timeline_constant(self):
        circuit = AesCircuit(FIPS_KEY)
        timeline = circuit.timeline(seed=1)
        t = np.linspace(0, 1, 7)
        assert np.ptp(timeline.power_at(t)) == 0.0

    def test_circuit_spec(self):
        spec = AesCircuit(FIPS_KEY).circuit_spec()
        assert spec.utilization["lut"] > 1000

    def test_invalid_key(self):
        with pytest.raises(ValueError):
            AesCircuit(b"short")

    def test_repr(self):
        assert "MHz" in repr(AesCircuit(FIPS_KEY))
