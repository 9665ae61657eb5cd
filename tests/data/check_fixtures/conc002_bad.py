"""Fixture: CONC002 must flag guarded fields touched without the lock."""

import threading


class Scheduler:
    def __init__(self):
        self._clock = 0.0  # __init__ is exempt: nothing is shared yet
        self._clock_lock = threading.Lock()

    def next_window_unlocked(self, duration: float) -> float:
        start = self._clock
        self._clock += duration
        return start
