"""AES-128 victim circuit: a bandwidth-limit case study.

The RSA attack works because the secret modulates the circuit's
*long-run average* power (multiply-module duty cycle ∝ Hamming
weight).  AES is the opposite regime: a pipelined AES-128 engine at
300 MHz finishes an encryption in tens of nanoseconds, and its
key-dependent switching averages out over any 35 ms INA226 window —
the per-encryption energy differences between keys sit orders of
magnitude below the channel's resolution.

This module provides a functionally correct AES-128 (validated against
the FIPS-197 vectors) with a standard Hamming-distance power model, so
the negative result can be *measured* rather than asserted: the
AES-vs-hwmon bench shows TVLA failing to distinguish keys through the
current channel, delimiting what AmpereBleed can and cannot reach.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.fpga.fabric import CircuitSpec
from repro.soc.workload import ActivityTimeline
from repro.utils.rng import RngLike, spawn
from repro.utils.validation import require_int_in_range

# --------------------------------------------------------------- AES core

_SBOX = [
    0x63, 0x7C, 0x77, 0x7B, 0xF2, 0x6B, 0x6F, 0xC5, 0x30, 0x01, 0x67,
    0x2B, 0xFE, 0xD7, 0xAB, 0x76, 0xCA, 0x82, 0xC9, 0x7D, 0xFA, 0x59,
    0x47, 0xF0, 0xAD, 0xD4, 0xA2, 0xAF, 0x9C, 0xA4, 0x72, 0xC0, 0xB7,
    0xFD, 0x93, 0x26, 0x36, 0x3F, 0xF7, 0xCC, 0x34, 0xA5, 0xE5, 0xF1,
    0x71, 0xD8, 0x31, 0x15, 0x04, 0xC7, 0x23, 0xC3, 0x18, 0x96, 0x05,
    0x9A, 0x07, 0x12, 0x80, 0xE2, 0xEB, 0x27, 0xB2, 0x75, 0x09, 0x83,
    0x2C, 0x1A, 0x1B, 0x6E, 0x5A, 0xA0, 0x52, 0x3B, 0xD6, 0xB3, 0x29,
    0xE3, 0x2F, 0x84, 0x53, 0xD1, 0x00, 0xED, 0x20, 0xFC, 0xB1, 0x5B,
    0x6A, 0xCB, 0xBE, 0x39, 0x4A, 0x4C, 0x58, 0xCF, 0xD0, 0xEF, 0xAA,
    0xFB, 0x43, 0x4D, 0x33, 0x85, 0x45, 0xF9, 0x02, 0x7F, 0x50, 0x3C,
    0x9F, 0xA8, 0x51, 0xA3, 0x40, 0x8F, 0x92, 0x9D, 0x38, 0xF5, 0xBC,
    0xB6, 0xDA, 0x21, 0x10, 0xFF, 0xF3, 0xD2, 0xCD, 0x0C, 0x13, 0xEC,
    0x5F, 0x97, 0x44, 0x17, 0xC4, 0xA7, 0x7E, 0x3D, 0x64, 0x5D, 0x19,
    0x73, 0x60, 0x81, 0x4F, 0xDC, 0x22, 0x2A, 0x90, 0x88, 0x46, 0xEE,
    0xB8, 0x14, 0xDE, 0x5E, 0x0B, 0xDB, 0xE0, 0x32, 0x3A, 0x0A, 0x49,
    0x06, 0x24, 0x5C, 0xC2, 0xD3, 0xAC, 0x62, 0x91, 0x95, 0xE4, 0x79,
    0xE7, 0xC8, 0x37, 0x6D, 0x8D, 0xD5, 0x4E, 0xA9, 0x6C, 0x56, 0xF4,
    0xEA, 0x65, 0x7A, 0xAE, 0x08, 0xBA, 0x78, 0x25, 0x2E, 0x1C, 0xA6,
    0xB4, 0xC6, 0xE8, 0xDD, 0x74, 0x1F, 0x4B, 0xBD, 0x8B, 0x8A, 0x70,
    0x3E, 0xB5, 0x66, 0x48, 0x03, 0xF6, 0x0E, 0x61, 0x35, 0x57, 0xB9,
    0x86, 0xC1, 0x1D, 0x9E, 0xE1, 0xF8, 0x98, 0x11, 0x69, 0xD9, 0x8E,
    0x94, 0x9B, 0x1E, 0x87, 0xE9, 0xCE, 0x55, 0x28, 0xDF, 0x8C, 0xA1,
    0x89, 0x0D, 0xBF, 0xE6, 0x42, 0x68, 0x41, 0x99, 0x2D, 0x0F, 0xB0,
    0x54, 0xBB, 0x16,
]

_RCON = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36]


def _xtime(value: int) -> int:
    value <<= 1
    if value & 0x100:
        value ^= 0x11B
    return value & 0xFF


def expand_key(key: bytes) -> List[List[int]]:
    """AES-128 key schedule: 11 round keys of 16 bytes each."""
    if len(key) != 16:
        raise ValueError("AES-128 needs a 16-byte key")
    words = [list(key[i:i + 4]) for i in range(0, 16, 4)]
    for round_index in range(10):
        previous = words[-1]
        rotated = previous[1:] + previous[:1]
        substituted = [_SBOX[b] for b in rotated]
        substituted[0] ^= _RCON[round_index]
        for _ in range(4):
            base = words[-4]
            new_word = [a ^ b for a, b in zip(base, substituted)]
            words.append(new_word)
            substituted = new_word
    return [sum(words[4 * r:4 * r + 4], []) for r in range(11)]


def _sub_bytes(state: List[int]) -> List[int]:
    return [_SBOX[b] for b in state]


def _shift_rows(state: List[int]) -> List[int]:
    # Column-major state layout (FIPS-197): state[r + 4c].
    out = list(state)
    for row in range(1, 4):
        values = [state[row + 4 * col] for col in range(4)]
        values = values[row:] + values[:row]
        for col in range(4):
            out[row + 4 * col] = values[col]
    return out


def _mix_columns(state: List[int]) -> List[int]:
    out = [0] * 16
    for col in range(4):
        a = state[4 * col:4 * col + 4]
        out[4 * col + 0] = _xtime(a[0]) ^ _xtime(a[1]) ^ a[1] ^ a[2] ^ a[3]
        out[4 * col + 1] = a[0] ^ _xtime(a[1]) ^ _xtime(a[2]) ^ a[2] ^ a[3]
        out[4 * col + 2] = a[0] ^ a[1] ^ _xtime(a[2]) ^ _xtime(a[3]) ^ a[3]
        out[4 * col + 3] = _xtime(a[0]) ^ a[0] ^ a[1] ^ a[2] ^ _xtime(a[3])
    return out


def _add_round_key(state: List[int], round_key: List[int]) -> List[int]:
    return [a ^ b for a, b in zip(state, round_key)]


def _hamming_distance(a: List[int], b: List[int]) -> int:
    return sum(bin(x ^ y).count("1") for x, y in zip(a, b))


def aes128_encrypt_block(
    plaintext: bytes, key: bytes
) -> Tuple[bytes, List[int]]:
    """Encrypt one block; also return per-round register Hamming
    distances (the standard power-model observable)."""
    if len(plaintext) != 16:
        raise ValueError("AES block is 16 bytes")
    round_keys = expand_key(key)
    state = _add_round_key(list(plaintext), round_keys[0])
    distances: List[int] = []
    for round_index in range(1, 10):
        previous = state
        state = _sub_bytes(state)
        state = _shift_rows(state)
        state = _mix_columns(state)
        state = _add_round_key(state, round_keys[round_index])
        distances.append(_hamming_distance(previous, state))
    previous = state
    state = _sub_bytes(state)
    state = _shift_rows(state)
    state = _add_round_key(state, round_keys[10])
    distances.append(_hamming_distance(previous, state))
    return bytes(state), distances


# ------------------------------------------------------------- the victim

class AesCircuit:
    """A pipelined AES-128 engine as a power-producing victim.

    Power model: a fixed engine draw plus a per-encryption energy
    proportional to the summed round Hamming distances — the standard
    register-switching model.  At :attr:`THROUGHPUT` blocks/s the
    key-dependent part contributes microwatts of *average* power,
    which is the point of the negative-result bench.

    Args:
        key: the 16-byte secret.
    """

    #: Engine clock in hertz.
    CLOCK_HZ = 300e6
    #: Encryptions per second while running.
    THROUGHPUT = 1e6
    #: Key-independent dynamic power of the busy engine, watts.
    P_ENGINE = 0.180
    #: Joules per bit of register Hamming distance.
    ENERGY_PER_HD = 2.0e-12
    #: Deployed-but-idle leakage, watts.
    P_IDLE = 0.012

    def __init__(self, key: bytes):
        if len(key) != 16:
            raise ValueError("AES-128 needs a 16-byte key")
        self.key = bytes(key)

    def mean_switching_bits(
        self, n_blocks: int = 256, seed: RngLike = None
    ) -> float:
        """Mean summed round Hamming distance over random plaintexts."""
        n_blocks = require_int_in_range(n_blocks, 1, 1_000_000, "n_blocks")
        rng = spawn(seed, "aes-plaintexts")
        total = 0
        for _ in range(n_blocks):
            plaintext = bytes(
                int(b) for b in rng.integers(0, 256, size=16)
            )
            _, distances = aes128_encrypt_block(plaintext, self.key)
            total += sum(distances)
        return total / n_blocks

    def mean_power(self, seed: RngLike = None) -> float:
        """Long-run average power while encrypting a random stream.

        ``P_IDLE + P_ENGINE + THROUGHPUT * E_hd * mean_bits`` — the
        key-dependent term is the last one, and it is tiny: with
        ~700 switched bits per block at 2 pJ/bit and 1e6 blocks/s it
        totals ~1.4 mW, of which the *key-dependent spread* is only a
        few bits' worth (microwatts).
        """
        bits = self.mean_switching_bits(seed=seed)
        return (
            self.P_IDLE
            + self.P_ENGINE
            + self.THROUGHPUT * self.ENERGY_PER_HD * bits
        )

    def timeline(self, seed: RngLike = None) -> ActivityTimeline:
        """Constant-power timeline at the sensor's time scale.

        Per-block power fluctuations live at microsecond scale; a 35 ms
        conversion integrates ~35 000 encryptions, so the rail sees the
        long-run mean.
        """
        from repro.soc.workload import ConstantActivity

        return ConstantActivity(self.mean_power(seed=seed))

    def circuit_spec(self) -> CircuitSpec:
        """Fabric resources of a round-pipelined AES-128."""
        return CircuitSpec(
            name="aes-128",
            utilization={"lut": 4_200, "ff": 2_900, "bram": 8},
            activity={"lut": 0.5, "ff": 0.5, "bram": 0.3},
        )

    def __repr__(self) -> str:
        return (
            f"AesCircuit(clock={self.CLOCK_HZ / 1e6:.0f} MHz, "
            f"{self.THROUGHPUT:.2g} blocks/s)"
        )
