"""FLOW003 ok: simulated time is derived from the experiment clock."""
from repro.core.io import TraceArchiveWriter


def simulated_time(step, dt):
    return step * dt


def schedule_tick(state, step):
    now = simulated_time(step, 0.01)
    state.advance(now)
    return now


def record_progress(path, keys_done):
    writer = TraceArchiveWriter(path)
    writer.checkpoint(
        {"keys_done": keys_done, "at": simulated_time(keys_done, 0.01)}
    )
    writer.update_meta(finished=simulated_time(keys_done, 0.01))
    writer.close()
