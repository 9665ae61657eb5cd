"""DPU core model: roofline scheduling of compiled layers.

The Xilinx DPU (DPUCZDX8G on Zynq UltraScale+) is a systolic int8
engine; the B4096 configuration used on the ZCU102 peaks at 4096 ops
per cycle at the 300 MHz fabric clock.  Its encrypted HDL hides the
microarchitecture, but its externally observable behaviour — what the
side channel sees — is well modeled by a roofline: each layer runs for
``max(compute_time, memory_time)`` plus a fixed scheduling overhead,
drawing FPGA-rail power proportional to MAC-array occupancy and DDR
power proportional to achieved bandwidth.

Per-kind efficiency factors capture the well-known DPU behaviours:
dense convolutions keep the array busy; depthwise convolutions map
poorly (one filter per channel starves the array); fully-connected
layers are DDR-bound streams.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.dpu.layers import LayerSpec
from repro.dpu.models import ModelSpec
from repro.utils.validation import require_non_negative, require_positive

#: MAC-array utilization by layer kind (fraction of peak sustained).
DEFAULT_EFFICIENCY: Dict[str, float] = {
    "conv": 0.65,
    "dwconv": 0.22,
    "fc": 0.35,
    "pool": 1.0,
    "add": 1.0,
    "concat": 1.0,
    "global_pool": 1.0,
}


@dataclass(frozen=True)
class DpuConfig:
    """Static configuration of one DPU core instance.

    Attributes:
        name: product configuration string.
        ops_per_cycle: peak int8 ops per clock (B4096 = 4096; one MAC
            counts as two ops).
        clock_hz: DPU clock (the ZCU102 fabric runs it at 300 MHz).
        ddr_bandwidth: sustained AXI bandwidth to DDR in bytes/s.
        min_layer_seconds: per-layer scheduling/instruction overhead.
        p_idle: FPGA-rail power of the instantiated but idle DPU (clock
            tree + pipeline registers), in watts.
        p_compute_max: additional FPGA-rail power at 100% MAC-array
            occupancy, in watts.
        ddr_energy_per_byte: DDR-rail energy per byte moved, in joules.
        efficiency: per-layer-kind sustained fraction of peak.
    """

    name: str = "DPUCZDX8G-B4096"
    ops_per_cycle: int = 4096
    clock_hz: float = 300e6
    ddr_bandwidth: float = 6.4e9
    min_layer_seconds: float = 8e-6
    p_idle: float = 0.35
    p_compute_max: float = 2.4
    ddr_energy_per_byte: float = 260e-12
    efficiency: Dict[str, float] = field(
        default_factory=lambda: dict(DEFAULT_EFFICIENCY)
    )

    def __post_init__(self):
        require_positive(self.ops_per_cycle, "ops_per_cycle")
        require_positive(self.clock_hz, "clock_hz")
        require_positive(self.ddr_bandwidth, "ddr_bandwidth")
        require_non_negative(self.min_layer_seconds, "min_layer_seconds")
        require_non_negative(self.p_idle, "p_idle")
        require_non_negative(self.p_compute_max, "p_compute_max")
        require_non_negative(self.ddr_energy_per_byte, "ddr_energy_per_byte")
        for kind, value in self.efficiency.items():
            if not (0.0 < value <= 1.0):
                raise ValueError(
                    f"efficiency[{kind!r}] must be in (0, 1], got {value}"
                )

    @property
    def peak_macs_per_second(self) -> float:
        """Peak MAC throughput (ops are 2 per MAC)."""
        return self.ops_per_cycle / 2 * self.clock_hz


@dataclass(frozen=True)
class LayerExecution:
    """One scheduled layer: its duration and rail power draws."""

    layer: LayerSpec
    duration: float
    #: MAC-array occupancy in [0, 1] over the layer's duration.
    occupancy: float
    #: Power on the FPGA (VCCINT) rail, *excluding* the DPU idle floor.
    fpga_power: float
    #: Power on the DDR rail from this layer's memory traffic.
    ddr_power: float


class DpuCore:
    """Schedules compiled models onto one DPU configuration."""

    def __init__(self, config: DpuConfig = None):
        self.config = config if config is not None else DpuConfig()

    def schedule_layer(self, layer: LayerSpec) -> LayerExecution:
        """Roofline-schedule one layer."""
        config = self.config
        efficiency = config.efficiency.get(layer.kind, 1.0)
        compute_time = (
            layer.macs / (config.peak_macs_per_second * efficiency)
            if layer.macs
            else 0.0
        )
        memory_time = layer.memory_bytes / config.ddr_bandwidth
        duration = max(compute_time, memory_time, config.min_layer_seconds)
        occupancy = (
            (compute_time / duration) * efficiency if layer.macs else 0.0
        )
        fpga_power = config.p_compute_max * occupancy
        ddr_power = config.ddr_energy_per_byte * layer.memory_bytes / duration
        return LayerExecution(
            layer=layer,
            duration=duration,
            occupancy=occupancy,
            fpga_power=fpga_power,
            ddr_power=ddr_power,
        )

    def schedule(self, model: ModelSpec) -> List[LayerExecution]:
        """Schedule every layer of a model, in order."""
        return [self.schedule_layer(layer) for layer in model.layers]

    def inference_latency(self, model: ModelSpec) -> float:
        """DPU-side latency of one inference (excludes CPU phases)."""
        return sum(execution.duration for execution in self.schedule(model))

    def __repr__(self) -> str:
        return f"DpuCore({self.config.name} @ {self.config.clock_hz/1e6:.0f} MHz)"
