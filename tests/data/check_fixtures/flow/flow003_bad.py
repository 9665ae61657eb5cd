"""FLOW003: a helper's wall-clock return leaks into simulated time."""
import time

from repro.core.io import TraceArchiveWriter


def read_clock():
    return time.time()


def schedule_tick(state):
    now = read_clock()
    state.advance(now)
    return now


def record_progress(path, keys_done):
    # Wall time in archive bytes breaks byte-identical resume.
    writer = TraceArchiveWriter(path)
    writer.checkpoint({"keys_done": keys_done, "at": read_clock()})
    writer.update_meta(finished=read_clock())
    writer.close()
