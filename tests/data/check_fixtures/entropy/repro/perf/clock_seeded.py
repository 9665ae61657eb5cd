"""A wall-clock-seeded SeedSequence inside the timing layer."""
import time

import numpy as np


def clock_seeded_sequence():
    return np.random.SeedSequence(int(time.time()))
