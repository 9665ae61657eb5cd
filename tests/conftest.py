"""Shared fixtures."""

import pytest

from repro.dpu.models import build_model
from repro.dpu.runner import DpuRunner
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
