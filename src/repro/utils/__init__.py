"""Shared helpers: RNG seed discipline, argument validation."""

from repro.utils.rng import RngLike, derive_seed, ensure_rng, spawn
from repro.utils.validation import (
    as_1d_float_array,
    require_in_range,
    require_int_in_range,
    require_non_negative,
    require_one_of,
    require_positive,
    require_sorted,
)

__all__ = [
    "RngLike",
    "derive_seed",
    "ensure_rng",
    "spawn",
    "as_1d_float_array",
    "require_in_range",
    "require_int_in_range",
    "require_non_negative",
    "require_one_of",
    "require_positive",
    "require_sorted",
]
