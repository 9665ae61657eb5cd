"""Background interference: what else is running on a busy board.

The paper minimizes interference by pinning the victim trigger to CPU
core 0 and the sampler to core 3, and by benching an otherwise-idle
system.  Real deployments are messier: daemons wake up, DMA moves
buffers, other accelerators burst.  This module synthesizes that
background as Poisson burst processes per rail, so the robustness
benches can measure how attack quality degrades with co-activity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.soc.workload import ActivityTimeline, PiecewiseActivity
from repro.utils.rng import RngLike, spawn
from repro.utils.validation import require_non_negative, require_positive


@dataclass(frozen=True)
class BurstProfile:
    """Statistics of one rail's background bursts.

    Attributes:
        rate_hz: mean burst arrivals per second (Poisson).
        mean_duration: mean burst length in seconds (exponential).
        mean_power: mean burst amplitude in watts (exponential).
    """

    rate_hz: float
    mean_duration: float
    mean_power: float

    def __post_init__(self):
        require_non_negative(self.rate_hz, "rate_hz")
        require_positive(self.mean_duration, "mean_duration")
        require_positive(self.mean_power, "mean_power")


#: A lightly loaded interactive system.
LIGHT_BACKGROUND: Dict[str, BurstProfile] = {
    "fpd": BurstProfile(rate_hz=2.0, mean_duration=0.015, mean_power=0.35),
    "lpd": BurstProfile(rate_hz=0.5, mean_duration=0.010, mean_power=0.02),
    "ddr": BurstProfile(rate_hz=1.0, mean_duration=0.020, mean_power=0.25),
    "fpga": BurstProfile(rate_hz=0.1, mean_duration=0.050, mean_power=0.10),
}

#: A heavily co-loaded system (another tenant's accelerator, busy OS).
HEAVY_BACKGROUND: Dict[str, BurstProfile] = {
    "fpd": BurstProfile(rate_hz=15.0, mean_duration=0.030, mean_power=0.7),
    "lpd": BurstProfile(rate_hz=3.0, mean_duration=0.015, mean_power=0.03),
    "ddr": BurstProfile(rate_hz=8.0, mean_duration=0.040, mean_power=0.6),
    "fpga": BurstProfile(rate_hz=2.0, mean_duration=0.100, mean_power=0.5),
}


def burst_timeline(
    profile: BurstProfile,
    duration: float,
    seed: RngLike = None,
) -> ActivityTimeline:
    """A Poisson burst process from time 0 as a finite piecewise
    timeline."""
    require_positive(duration, "duration")
    rng = spawn(seed, "interference-bursts")
    segments: List[Tuple[float, float]] = []
    clock = 0.0
    if profile.rate_hz == 0:
        return PiecewiseActivity.from_segments([(duration, 0.0)])
    while clock < duration:
        gap = rng.exponential(1.0 / profile.rate_hz)
        gap = min(gap, duration - clock)
        if gap > 0:
            segments.append((gap, 0.0))
            clock += gap
        if clock >= duration:
            break
        burst = min(
            rng.exponential(profile.mean_duration), duration - clock
        )
        if burst > 0:
            segments.append((burst, rng.exponential(profile.mean_power)))
            clock += burst
    if not segments:
        segments.append((duration, 0.0))
    return PiecewiseActivity.from_segments(segments)


class BackgroundLoad:
    """Attach/detach a whole background scenario to a SoC."""

    def __init__(
        self,
        profiles: Dict[str, BurstProfile] = None,
        seed: RngLike = None,
    ):
        self.profiles = dict(
            profiles if profiles is not None else LIGHT_BACKGROUND
        )
        self._seed = seed

    def attach(self, soc, duration: float) -> None:
        """Attach burst processes from time 0 to every profiled rail,
        as the workload ``"background"``."""
        for index, (domain, profile) in enumerate(
            sorted(self.profiles.items())
        ):
            timeline = burst_timeline(
                profile,
                duration,
                seed=(
                    self._seed
                    if self._seed is None
                    else int(self._seed) * 131 + index
                ),
            )
            soc.replace_workload(domain, "background", timeline)

    def detach(self, soc) -> None:
        """Remove the background from every profiled rail."""
        for domain in self.profiles:
            try:
                soc.detach_workload(domain, "background")
            except KeyError:
                pass
