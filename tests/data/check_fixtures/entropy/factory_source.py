"""Unseeded generator factory, consumed by another module."""
import numpy as np


def make_generator():
    return np.random.default_rng()
