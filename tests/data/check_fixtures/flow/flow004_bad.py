"""FLOW004: worker tasks write module state, with or without a lock."""
import threading

from repro.perf.executor import parallel_map

COUNTER = 0
_RESULTS = []
_CACHE = {}
_SEEN = {}
_LOCK = threading.Lock()


def task(item):
    global COUNTER
    COUNTER += 1
    return item


def accumulate(item):
    # The append lands in the forked worker's copy and is lost.
    _RESULTS.append(item * 2)
    return item


def memoize(item):
    _CACHE[item] = item * 2
    return _CACHE[item]


def mark_seen(item):
    # The worker holds its own copy of the lock too: still lost.
    with _LOCK:
        _SEEN[item] = True
    return item


def launch(items):
    return (
        parallel_map(task, items),
        parallel_map(accumulate, items),
        parallel_map(memoize, items),
        parallel_map(mark_seen, items),
    )
