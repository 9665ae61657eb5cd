"""Inference runner: turns a model into per-rail activity timelines.

The Vitis-AI serving loop the paper attacks looks like::

    while True:
        image = preprocess(next_input())   # CPU (FPD rail), DDR traffic
        dpu.run(image)                     # FPGA + DDR rails
        scores = postprocess(output)       # CPU (FPD rail)

Each phase loads different rails, so the four Table II sensors see
four synchronized but differently-shaped traces (paper Fig 3).  The
runner builds those traces:

* :meth:`DpuRunner.cycle_profile` — one serving cycle as per-rail
  power segments;
* :meth:`DpuRunner.rail_timelines` — an idealized periodic timeline
  (deterministic, useful for demos and analytic checks);
* :meth:`DpuRunner.trace_timelines` — a finite jittered run: per-cycle
  duration jitter plus occasional OS preemption stalls, which is what
  the fingerprinting evaluation samples (same model, different trace
  every time);
* :meth:`DpuRunner.deploy` — attach a run to a :class:`repro.soc.Soc`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.dpu.dpu import DpuCore
from repro.dpu.models import ModelSpec
from repro.soc.workload import ActivityTimeline, PiecewiseActivity
from repro.utils.rng import RngLike, spawn
from repro.utils.validation import require_non_negative, require_positive

#: The rails a DPU serving loop loads (Table II domains).
DPU_RAILS = ("fpga", "ddr", "fpd", "lpd")


@dataclass(frozen=True)
class RuntimeConfig:
    """CPU-side (Vitis-AI runtime) cost model.

    Attributes:
        preprocess_seconds_per_pixel: image decode/resize time per
            input pixel on one Cortex-A53 (sets the FPD-phase length;
            bigger inputs -> longer CPU phases).
        p_preprocess: FPD-rail power while preprocessing, watts.
        postprocess_seconds: softmax/top-k time per inference.
        p_postprocess: FPD-rail power while postprocessing, watts.
        p_runtime_poll: FPD-rail power while the runtime busy-waits on
            the DPU.
        preprocess_ddr_power: DDR-rail power during image staging.
        p_lpd_pre: LPD-rail power during preprocessing (PMU and
            peripheral chatter while the CPU cluster is busy).
        p_lpd_run: LPD-rail power while the DPU runs (interrupt
            controller + driver activity).
        p_lpd_post: LPD-rail power during postprocessing.
        gap_seconds: idle gap between serving cycles.
    """

    preprocess_seconds_per_pixel: float = 6.0e-8
    p_preprocess: float = 1.1
    postprocess_seconds: float = 1.2e-3
    p_postprocess: float = 0.85
    p_runtime_poll: float = 0.18
    preprocess_ddr_power: float = 0.12
    p_lpd_pre: float = 0.065
    p_lpd_run: float = 0.020
    p_lpd_post: float = 0.050
    gap_seconds: float = 0.25e-3

    def __post_init__(self):
        require_non_negative(
            self.preprocess_seconds_per_pixel, "preprocess_seconds_per_pixel"
        )
        require_non_negative(self.postprocess_seconds, "postprocess_seconds")
        require_non_negative(self.gap_seconds, "gap_seconds")

    def preprocess_seconds(self, input_size: int) -> float:
        """CPU preprocessing time for a square input of this size."""
        return self.preprocess_seconds_per_pixel * input_size * input_size


@dataclass(frozen=True)
class CycleProfile:
    """One serving cycle as per-rail piecewise-constant segments.

    ``durations`` has one entry per segment; ``powers[rail]`` has the
    matching per-segment power draw for each of :data:`DPU_RAILS`.
    """

    model: str
    durations: np.ndarray
    powers: Dict[str, np.ndarray]

    @property
    def period(self) -> float:
        """Length of one serving cycle in seconds."""
        return float(self.durations.sum())

    def mean_power(self, rail: str) -> float:
        """Cycle-averaged power on one rail."""
        return float(
            np.dot(self.durations, self.powers[rail]) / self.period
        )


class DpuRunner:
    """Builds power timelines for DPU inference serving loops.

    Args:
        dpu: the DPU core model (default B4096 @ 300 MHz).
        runtime: the CPU-side runtime cost model.
        cycle_jitter: relative RMS jitter of each serving cycle's
            duration (scheduling noise).
        stall_probability: per-cycle probability of an OS preemption
            stall inserted after the cycle.
        stall_seconds: duration of one preemption stall.
    """

    def __init__(
        self,
        dpu: DpuCore = None,
        runtime: RuntimeConfig = None,
        cycle_jitter: float = 0.006,
        stall_probability: float = 0.015,
        stall_seconds: float = 2.0e-3,
    ):
        self.dpu = dpu if dpu is not None else DpuCore()
        self.runtime = runtime if runtime is not None else RuntimeConfig()
        self.cycle_jitter = require_non_negative(cycle_jitter, "cycle_jitter")
        if not (0.0 <= stall_probability < 1.0):
            raise ValueError("stall_probability must be in [0, 1)")
        self.stall_probability = stall_probability
        self.stall_seconds = require_non_negative(
            stall_seconds, "stall_seconds"
        )

    # ------------------------------------------------------- profiles

    def cycle_profile(self, model: ModelSpec) -> CycleProfile:
        """One serving cycle: preprocess, per-layer DPU run, postprocess,
        inter-cycle gap — with each segment's draw on all four rails."""
        runtime = self.runtime
        executions = self.dpu.schedule(model)
        pre_seconds = runtime.preprocess_seconds(model.input_size)

        durations: List[float] = [pre_seconds]
        fpga: List[float] = [0.0]
        ddr: List[float] = [runtime.preprocess_ddr_power]
        fpd: List[float] = [runtime.p_preprocess]
        lpd: List[float] = [runtime.p_lpd_pre]

        for execution in executions:
            durations.append(execution.duration)
            fpga.append(self.dpu.config.p_idle + execution.fpga_power)
            ddr.append(execution.ddr_power)
            fpd.append(runtime.p_runtime_poll)
            lpd.append(runtime.p_lpd_run)

        durations.append(runtime.postprocess_seconds)
        fpga.append(0.0)
        ddr.append(0.0)
        fpd.append(runtime.p_postprocess)
        lpd.append(runtime.p_lpd_post)

        durations.append(runtime.gap_seconds)
        fpga.append(0.0)
        ddr.append(0.0)
        fpd.append(0.0)
        lpd.append(0.0)

        return CycleProfile(
            model=model.name,
            durations=np.asarray(durations, dtype=np.float64),
            powers={
                "fpga": np.asarray(fpga, dtype=np.float64),
                "ddr": np.asarray(ddr, dtype=np.float64),
                "fpd": np.asarray(fpd, dtype=np.float64),
                "lpd": np.asarray(lpd, dtype=np.float64),
            },
        )

    def cycle_period(self, model: ModelSpec) -> float:
        """End-to-end serving period (CPU phases + DPU latency + gap)."""
        return self.cycle_profile(model).period

    def rail_timelines(
        self, model: ModelSpec, start: float = 0.0
    ) -> Dict[str, ActivityTimeline]:
        """Idealized periodic timelines (no jitter), one per rail."""
        profile = self.cycle_profile(model)
        edges = start + np.concatenate(
            ([0.0], np.cumsum(profile.durations))
        )
        return {
            rail: PiecewiseActivity(
                edges, profile.powers[rail], period=profile.period
            )
            for rail in DPU_RAILS
        }

    def trace_timelines(
        self,
        model: ModelSpec,
        duration: float,
        seed: RngLike = None,
        start: float = 0.0,
    ) -> Dict[str, ActivityTimeline]:
        """A finite, jittered serving run covering ``duration`` seconds.

        Every cycle's length is scaled by ``N(1, cycle_jitter)`` and a
        preemption stall is appended with ``stall_probability`` — so two
        runs of the same model give *different* traces, as on real
        hardware.  All four rails share the same jittered time base.

        The timelines are finite and hold their end segments outside
        the run.  Every rail ends at 0 W and the FPGA rail also starts at
        0 W, but the FPD, LPD and DDR rails start with the CPU
        preprocess phase (1.1 / 0.065 / 0.12 W by default).  Before
        ``start`` those three rails therefore draw that power instead of
        idling.
        """
        require_positive(duration, "duration")
        rng = spawn(seed, f"dpu-trace-{model.name}")
        profile = self.cycle_profile(model)
        n_cycles = int(np.ceil(duration / profile.period)) + 2

        scales = 1.0 + self.cycle_jitter * rng.standard_normal(n_cycles)
        scales = np.clip(scales, 0.5, 1.5)
        stalls = np.where(
            rng.random(n_cycles) < self.stall_probability,
            self.stall_seconds,
            0.0,
        )

        n_segments = profile.durations.size
        # (cycles, segments+1): jitter-scaled cycle segments + stall slot.
        durations = np.empty((n_cycles, n_segments + 1), dtype=np.float64)
        durations[:, :n_segments] = np.outer(scales, profile.durations)
        durations[:, n_segments] = stalls
        flat_durations = durations.reshape(-1)

        keep = flat_durations > 0.0
        flat_durations = flat_durations[keep]
        edges = start + np.concatenate(([0.0], np.cumsum(flat_durations)))

        timelines: Dict[str, ActivityTimeline] = {}
        for rail in DPU_RAILS:
            powers = np.empty((n_cycles, n_segments + 1), dtype=np.float64)
            powers[:, :n_segments] = profile.powers[rail][np.newaxis, :]
            powers[:, n_segments] = 0.0  # stalled: serving loop idle
            timelines[rail] = PiecewiseActivity(
                edges, powers.reshape(-1)[keep]
            )
        return timelines

    # ----------------------------------------------------- deployment

    def deploy(
        self,
        soc,
        model: ModelSpec,
        duration: float = None,
        seed: RngLike = None,
        start: float = 0.0,
        name: str = "dpu",
    ) -> None:
        """Attach a serving run to all four rails of a SoC.

        With ``duration`` the run is a finite jittered trace; without
        it the idealized periodic loop is attached.  Replaces any
        previous deployment of the same ``name``.
        """
        if duration is None:
            timelines = self.rail_timelines(model, start=start)
        else:
            timelines = self.trace_timelines(
                model, duration, seed=seed, start=start
            )
        for rail, timeline in timelines.items():
            soc.replace_workload(rail, name, timeline)

    def undeploy(self, soc, name: str = "dpu") -> None:
        """Detach a previous deployment from all four rails."""
        for rail in DPU_RAILS:
            try:
                soc.detach_workload(rail, name)
            except KeyError:
                pass

    def __repr__(self) -> str:
        return f"DpuRunner({self.dpu!r})"
