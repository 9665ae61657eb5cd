"""Lightweight wall-clock stage timer.

Usage::

    timer = StageTimer()
    with timer.stage("collect"):
        datasets = fingerprinter.collect_datasets()
    with timer.stage("evaluate"):
        results = fingerprinter.evaluate_table3(datasets)
    timer.as_dict()   # {"collect": 4.81, "evaluate": 112.03}

Re-entering a stage name accumulates into the same bucket, so a loop
can be timed under one label.  The timer is deliberately wall-clock
(``perf_counter``): the fleet scheduler's job latencies and the chaos
harness's no-hang bound include process-pool overheads, which
CPU-time counters would hide.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, List


class StageTimer:
    """Accumulates wall-clock seconds per named stage."""

    def __init__(self):
        self._elapsed: Dict[str, float] = {}
        self._order: List[str] = []

    @contextmanager
    def stage(self, name: str):
        """Time one ``with`` block under ``name`` (accumulating)."""
        name = str(name)
        start = time.perf_counter()
        try:
            yield self
        finally:
            elapsed = time.perf_counter() - start
            if name not in self._elapsed:
                self._elapsed[name] = 0.0
                self._order.append(name)
            self._elapsed[name] += elapsed

    def elapsed(self, name: str) -> float:
        """Accumulated seconds of one stage (0.0 if never entered)."""
        return self._elapsed.get(str(name), 0.0)

    @property
    def total(self) -> float:
        """Sum of all stage times."""
        return sum(self._elapsed.values())

    def as_dict(self) -> Dict[str, float]:
        """Stage -> seconds, in first-entry order."""
        return {name: self._elapsed[name] for name in self._order}

    def __repr__(self) -> str:
        stages = ", ".join(
            f"{name}={self._elapsed[name]:.3f}s" for name in self._order
        )
        return f"StageTimer({stages})"
