"""Records from a generator the factory in another module built."""
from entropy.factory_source import make_generator

from repro import Trace


def record():
    gen = make_generator()
    samples = gen.normal(size=32)
    return Trace(samples=samples, seed=0)
