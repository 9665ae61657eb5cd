"""Cross-module wall-clock helper: the clock read sits in this module."""
import time


def read_clock():
    return time.time()
