"""OS entropy (os.urandom) recorded into a trace."""
import os

from repro import Trace


def record():
    noise = list(os.urandom(16))
    return Trace(samples=noise, seed=0)
