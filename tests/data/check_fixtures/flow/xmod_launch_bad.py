"""FLOW004 across modules: the state-writing task is submitted here."""
from flow.xmod_task import accumulate

from repro.perf.executor import parallel_map


def launch(items):
    return parallel_map(accumulate, items)
