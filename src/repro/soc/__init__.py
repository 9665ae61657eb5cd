"""SoC composition: activity timelines, power rails, sampling engine."""

from repro.soc.dvfs import (
    ZYNQMP_A53_OPPS,
    CpuClusterModel,
    OndemandGovernor,
    OperatingPoint,
)
from repro.soc.interference import (
    HEAVY_BACKGROUND,
    LIGHT_BACKGROUND,
    BackgroundLoad,
    BurstProfile,
    burst_timeline,
)
from repro.soc.rails import PowerRail
from repro.soc.soc import (
    DEFAULT_NOISE_PROFILES,
    QUANTITY_ATTRS,
    RailNoiseProfile,
    Soc,
)
from repro.soc.workload import (
    ActivityTimeline,
    CompositeActivity,
    ConstantActivity,
    CycleRun,
    CycleRunActivity,
    PiecewiseActivity,
)

__all__ = [
    "HEAVY_BACKGROUND",
    "LIGHT_BACKGROUND",
    "BackgroundLoad",
    "BurstProfile",
    "burst_timeline",
    "ZYNQMP_A53_OPPS",
    "CpuClusterModel",
    "OndemandGovernor",
    "OperatingPoint",
    "PowerRail",
    "DEFAULT_NOISE_PROFILES",
    "QUANTITY_ATTRS",
    "RailNoiseProfile",
    "Soc",
    "ActivityTimeline",
    "CompositeActivity",
    "ConstantActivity",
    "CycleRun",
    "CycleRunActivity",
    "PiecewiseActivity",
]
