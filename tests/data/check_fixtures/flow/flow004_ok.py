"""FLOW004 ok: workers return state; only the parent writes it."""
from repro.perf.executor import parallel_map

_TOTALS = {}


def task(item):
    return item * 2


def record(key, value):
    _TOTALS[key] = value


def launch(items):
    results = parallel_map(task, items)
    for index, value in enumerate(results):
        record(index, value)
    return results
