"""Fixture: CONC002 must stay quiet when the lock is held (or absent)."""

import threading


class Scheduler:
    def __init__(self):
        self._clock = 0.0
        self._clock_lock = threading.Lock()

    def next_window(self, duration: float) -> float:
        with self._clock_lock:
            start = self._clock
            self._clock += duration
            return start


class LocklessTimeline:
    """A `_clock` with no `_clock_lock` in scope is not under contract."""

    def __init__(self):
        self._clock = 0.0

    def advance(self, duration: float) -> float:
        self._clock += duration
        return self._clock
