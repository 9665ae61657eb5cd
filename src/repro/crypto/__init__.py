"""RSA reference math and the paper's Hamming-weight key construction."""

from repro.crypto.rsa_math import (
    PAPER_HAMMING_WEIGHTS,
    RSA_BITS,
    exponent_bits_lsb_first,
    hamming_weight,
    make_exponent_with_weight,
    paper_key_set,
    random_modulus,
    square_and_multiply,
    square_and_multiply_trace,
)

__all__ = [
    "PAPER_HAMMING_WEIGHTS",
    "RSA_BITS",
    "exponent_bits_lsb_first",
    "hamming_weight",
    "make_exponent_with_weight",
    "paper_key_set",
    "random_modulus",
    "square_and_multiply",
    "square_and_multiply_trace",
]
