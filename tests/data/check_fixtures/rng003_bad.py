"""Fixture: RNG003 must flag direct default_rng/SeedSequence outside utils.rng."""

import numpy as np


def direct_construction(seed: int):
    # Seeded, so RNG001 passes — but the seed policy is bypassed.
    return np.random.default_rng(seed)


def direct_seed_sequence(seed: int):
    return np.random.SeedSequence(seed)
