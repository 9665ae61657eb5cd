"""Fixture: API006 must stay quiet on the sanctioned perf wrappers."""

from repro.perf import parallel_map
from repro.perf.pool import get_pool


def task(item):
    return item * 2


def fan_out(items):
    return parallel_map(task, items, workers=2)


def fan_out_pooled(items):
    return get_pool(2).map(task, items)
