"""FLOW003 across modules: the wall-clock helper is defined elsewhere."""
from flow.xmod_source import read_clock


def schedule_tick(state):
    now = read_clock()
    state.advance(now)
    return now
