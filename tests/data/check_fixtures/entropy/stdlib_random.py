"""Stdlib random draws recorded into a trace."""
import random

from repro import Trace


def record():
    noise = [random.random() for _ in range(16)]
    return Trace(samples=noise, seed=0)
