"""RSA reference math and the paper's Hamming-weight key construction."""

from repro.crypto.rsa_math import (
    PAPER_HAMMING_WEIGHTS,
    RSA_BITS,
    exponent_bits_lsb_first,
    hamming_weight,
    make_exponent_with_weight,
)

__all__ = [
    "PAPER_HAMMING_WEIGHTS",
    "RSA_BITS",
    "exponent_bits_lsb_first",
    "hamming_weight",
    "make_exponent_with_weight",
]
