"""Shared fixtures."""

import numpy as np
import pytest

from repro.dpu.models import build_model
from repro.dpu.runner import DpuRunner
from repro.sensors import hwmon
from repro.soc import Soc

#: Slot length and count of the staggered-victim board: 60 back-to-back
#: 10 s serving runs, shaped like a 600 s live-monitoring session.
VICTIM_SLOT = 10.0
VICTIM_SLOTS = 60


@pytest.fixture(scope="module")
def staggered_soc():
    """A board with victim ``k`` deployed over ``[10 k, 10 k + 10)`` s.

    The two VGG models alternate; they have the fewest timeline segments
    per second in the zoo, which keeps the fixture small.
    """
    soc = Soc("ZCU102", seed=0)
    runner = DpuRunner()
    models = [build_model("vgg-19"), build_model("vgg-16")]
    for slot in range(VICTIM_SLOTS):
        runner.deploy(
            soc,
            models[slot % len(models)],
            duration=VICTIM_SLOT,
            seed=slot,
            start=slot * VICTIM_SLOT,
            name=f"victim-{slot}",
        )
    return soc


class _UniqueCounter:
    """numpy as ``repro.sensors.hwmon`` sees it, counting ``np.unique`` calls."""

    def __init__(self):
        self.calls = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def unique(self, *args, **kwargs):
        self.calls += 1
        return np.unique(*args, **kwargs)


@pytest.fixture
def hwmon_unique_calls(monkeypatch):
    """Count the hwmon read path's ``np.unique`` sorts; numpy elsewhere is untouched."""
    counter = _UniqueCounter()
    monkeypatch.setattr(hwmon, "np", counter)
    return counter
