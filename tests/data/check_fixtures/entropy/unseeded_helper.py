"""Unseeded generator built in a helper and recorded by its caller."""
import numpy as np

from repro import Trace


def make_generator():
    return np.random.default_rng()


def record():
    gen = make_generator()
    samples = gen.normal(size=32)
    return Trace(samples=samples, seed=0)
