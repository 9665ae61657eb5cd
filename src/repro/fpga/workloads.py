"""A small library of victim workload types for classification studies.

The paper's related work includes classifying *computations* on
multi-tenant FPGAs (Gobulukoglu et al., DAC'21).  AmpereBleed enables
the same study without any crafted sensor: different workload classes
load the rails with characteristically different temporal shapes.
This module provides representative members of four classes —

* ``burst``  — a duty-cycled compute kernel (accelerator batches);
* ``stream`` — a constant-rate streaming pipeline (video/DSP);
* ``memory`` — a DDR-bound mover with periodic buffer turnarounds;
* ``crypto`` — a blocked crypto engine (constant high draw with short
  key-schedule stalls);

each parameterized and randomized per instance, so a classifier must
learn the *shape*, not one fixed trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

import numpy as np

from repro.soc.workload import ActivityTimeline, PiecewiseActivity
from repro.utils.rng import RngLike, ensure_rng, spawn

#: The workload classes this library generates.
WORKLOAD_CLASSES = ("burst", "stream", "memory", "crypto")


@dataclass(frozen=True)
class WorkloadInstance:
    """One generated victim: its class label and per-rail timelines."""

    kind: str
    fpga: ActivityTimeline
    ddr: ActivityTimeline

    def attach(self, soc) -> None:
        """Attach both rails' timelines to a SoC as ``"victim"``."""
        soc.replace_workload("fpga", "victim", self.fpga)
        soc.replace_workload("ddr", "victim", self.ddr)

    def detach(self, soc) -> None:
        """Detach from a SoC (ignores missing attachments)."""
        for rail in ("fpga", "ddr"):
            try:
                soc.detach_workload(rail, "victim")
            except KeyError:
                pass


def _burst(rng: np.random.Generator) -> WorkloadInstance:
    """Duty-cycled accelerator: heavy compute bursts, DDR at edges."""
    period = rng.uniform(0.12, 0.45)
    duty = rng.uniform(0.25, 0.6)
    p_burst = rng.uniform(1.2, 2.8)
    on = period * duty
    off = period - on
    fpga = PiecewiseActivity.from_segments(
        [(on, p_burst), (off, 0.05)], period=period
    )
    # DDR moves operands at the burst boundaries.
    edge = min(0.25 * on, 0.02)
    ddr = PiecewiseActivity.from_segments(
        [(edge, 0.8), (on - edge, 0.1), (edge, 0.6), (off - edge, 0.02)],
        period=period,
    )
    return WorkloadInstance(kind="burst", fpga=fpga, ddr=ddr)


def _stream(rng: np.random.Generator) -> WorkloadInstance:
    """Streaming pipeline: steady draw with small frame-rate ripple."""
    frame = rng.uniform(0.02, 0.05)
    base = rng.uniform(0.8, 1.6)
    ripple = rng.uniform(0.05, 0.15) * base
    fpga = PiecewiseActivity.from_segments(
        [(frame * 0.8, base + ripple), (frame * 0.2, base - ripple)],
        period=frame,
    )
    ddr_level = rng.uniform(0.3, 0.7)
    ddr = PiecewiseActivity.from_segments(
        [(frame, ddr_level)], period=frame
    )
    return WorkloadInstance(kind="stream", fpga=fpga, ddr=ddr)


def _memory(rng: np.random.Generator) -> WorkloadInstance:
    """DDR-bound mover: low fabric draw, heavy DDR with turnarounds."""
    buffer_period = rng.uniform(0.06, 0.25)
    transfer = buffer_period * rng.uniform(0.7, 0.9)
    p_ddr = rng.uniform(0.9, 1.6)
    fpga = PiecewiseActivity.from_segments(
        [(buffer_period, rng.uniform(0.10, 0.30))], period=buffer_period
    )
    ddr = PiecewiseActivity.from_segments(
        [(transfer, p_ddr), (buffer_period - transfer, 0.05)],
        period=buffer_period,
    )
    return WorkloadInstance(kind="memory", fpga=fpga, ddr=ddr)


def _crypto(rng: np.random.Generator) -> WorkloadInstance:
    """Blocked crypto engine: flat high draw, short re-key stalls."""
    block_period = rng.uniform(0.3, 0.8)
    stall = rng.uniform(0.01, 0.03)
    p_engine = rng.uniform(0.5, 1.1)
    fpga = PiecewiseActivity.from_segments(
        [(block_period - stall, p_engine), (stall, 0.08)],
        period=block_period,
    )
    ddr = PiecewiseActivity.from_segments(
        [(block_period, rng.uniform(0.05, 0.15))], period=block_period
    )
    return WorkloadInstance(kind="crypto", fpga=fpga, ddr=ddr)


_GENERATORS: Dict[str, Callable] = {
    "burst": _burst,
    "stream": _stream,
    "memory": _memory,
    "crypto": _crypto,
}


def generate_dataset(
    instances_per_class: int, seed: RngLike = None
) -> List[WorkloadInstance]:
    """A balanced set of randomized victims across all classes."""
    if instances_per_class < 1:
        raise ValueError("instances_per_class must be >= 1")
    base = spawn(seed, "workload-dataset")
    victims: List[WorkloadInstance] = []
    for kind in WORKLOAD_CLASSES:
        for _ in range(instances_per_class):
            rng = ensure_rng(int(base.integers(0, 2**63)))
            victims.append(_GENERATORS[kind](rng))
    return victims
