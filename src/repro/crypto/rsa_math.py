"""RSA reference arithmetic and the paper's 17-key construction.

The victim circuit (paper §IV-C, after Zhao & Suh) computes modular
exponentiation with the LSB-first square-and-multiply algorithm: the
state machine iterates over every bit of the 1024-bit exponent; each
iteration always squares, and *additionally* multiplies when the
current exponent bit is 1.  The number of multiply activations over a
full exponentiation therefore equals the exponent's Hamming weight —
the quantity AmpereBleed recovers from the current trace.

This module provides the LSB-first exponent bit schedule, Hamming-weight
utilities, and the construction of the paper's 17 test keys with
Hamming weights {1, 64, 128, ..., 1024}.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.utils.rng import RngLike, spawn

#: The paper's modulus width.
RSA_BITS = 1024

#: Fig 4's Hamming-weight grid: 1, then multiples of 64 up to 1024.
PAPER_HAMMING_WEIGHTS: Tuple[int, ...] = (1,) + tuple(
    64 * k for k in range(1, 17)
)


def hamming_weight(value: int) -> int:
    """Number of set bits in a non-negative integer."""
    if value < 0:
        raise ValueError("hamming_weight is defined for non-negative integers")
    return bin(value).count("1")


def exponent_bits_lsb_first(exponent: int, width: int = RSA_BITS) -> List[int]:
    """The exponent's bits, least-significant first, padded to ``width``.

    The circuit's state machine walks exactly ``width`` iterations
    regardless of the key value (it shifts the full register), so the
    padding zeros matter: they are iterations with only the square
    module active.
    """
    if exponent < 0:
        raise ValueError("exponent must be non-negative")
    if exponent.bit_length() > width:
        raise ValueError(
            f"exponent needs {exponent.bit_length()} bits, width is {width}"
        )
    return [(exponent >> i) & 1 for i in range(width)]


def make_exponent_with_weight(
    weight: int, width: int = RSA_BITS, seed: RngLike = None
) -> int:
    """Construct a ``width``-bit exponent with exact Hamming weight.

    Bit positions are drawn uniformly without replacement, matching the
    paper's "17 distinct keys whose Hamming weights increase in
    intervals of 64" (the first key is 1 since the circuit does not
    support a zero exponent).
    """
    if not (1 <= weight <= width):
        raise ValueError(f"weight must be in [1, {width}], got {weight}")
    rng = spawn(seed, f"rsa-exponent-w{weight}")
    positions = rng.choice(width, size=weight, replace=False)
    exponent = 0
    for position in positions:
        exponent |= 1 << int(position)
    return exponent
