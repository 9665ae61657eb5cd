"""DPU compiler: tiling-aware scheduling of layers onto the MAC array.

The Vitis-AI flow compiles each DNN into a DPU instruction stream; the
encrypted core then executes tiles of each layer on its systolic MAC
array.  :mod:`repro.dpu.dpu` approximates the result with fixed
per-kind efficiencies; this module derives those efficiencies from
first principles instead, by tiling every layer onto the array
geometry and counting wasted lanes:

* the B4096 array processes ``pixel_parallel x input_channel_parallel
  x output_channel_parallel`` MACs per cycle (8 x 16 x 16 for B4096);
* a layer whose channel counts do not fill the lanes wastes the
  remainder (the classic reason depthwise convolutions run at a small
  fraction of peak);
* each tile additionally pays a pipeline fill/drain overhead.

The compiler emits a :class:`CompiledModel` — per-layer tile counts,
cycle estimates and derived efficiency — and can configure a
:class:`~repro.dpu.dpu.DpuCore` with model-specific efficiencies, used
by the compiler-ablation tests to check the fixed-constant shortcut
against the first-principles model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.dpu.dpu import DpuConfig
from repro.dpu.layers import LayerSpec
from repro.dpu.models import ModelSpec
from repro.utils.validation import require_int_in_range


@dataclass(frozen=True)
class ArrayGeometry:
    """The MAC-array parallelism of one DPU configuration.

    B4096 = 8 pixels x 16 input channels x 16 output channels x 2 ops.
    """

    pixel_parallel: int = 8
    input_channel_parallel: int = 16
    output_channel_parallel: int = 16

    def __post_init__(self):
        for name in (
            "pixel_parallel",
            "input_channel_parallel",
            "output_channel_parallel",
        ):
            require_int_in_range(getattr(self, name), 1, 4096, name)

    @property
    def macs_per_cycle(self) -> int:
        """Peak MACs retired per cycle when every lane is busy."""
        return (
            self.pixel_parallel
            * self.input_channel_parallel
            * self.output_channel_parallel
        )


@dataclass(frozen=True)
class CompiledLayer:
    """One layer's tiling outcome."""

    layer: LayerSpec
    #: Number of array tiles the layer was cut into.
    tiles: int
    #: Cycles spent computing (including underfilled lanes).
    compute_cycles: int
    #: Fraction of array lanes doing useful work.
    efficiency: float


@dataclass(frozen=True)
class CompiledModel:
    """A model's full instruction-stream summary."""

    model: str
    layers: Tuple[CompiledLayer, ...]

    def efficiency_by_kind(self) -> Dict[str, float]:
        """MAC-weighted efficiency per layer kind (compute kinds only)."""
        macs: Dict[str, int] = {}
        weighted: Dict[str, float] = {}
        for compiled in self.layers:
            kind = compiled.layer.kind
            if compiled.layer.macs == 0:
                continue
            macs[kind] = macs.get(kind, 0) + compiled.layer.macs
            weighted[kind] = weighted.get(kind, 0.0) + (
                compiled.efficiency * compiled.layer.macs
            )
        return {kind: weighted[kind] / macs[kind] for kind in macs}


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


class DpuCompiler:
    """Tiles layers onto the B4096 array geometry and estimates cycles.

    Args:
        pipeline_efficiency: steady-state fraction of peak inside a
            full tile (control bubbles, bank conflicts).
    """

    #: Pipeline fill/drain cycles per tile.
    TILE_OVERHEAD_CYCLES = 24

    def __init__(self, pipeline_efficiency: float = 0.82):
        self.geometry = ArrayGeometry()
        if not (0.0 < pipeline_efficiency <= 1.0):
            raise ValueError("pipeline_efficiency must be in (0, 1]")
        self.pipeline_efficiency = pipeline_efficiency

    def _layer_shape(self, layer: LayerSpec) -> Tuple[int, int, int]:
        """(pixels, in_channels, out_channels) estimate from byte counts.

        Layer specs carry aggregate counts, not shapes, so the tiling
        reconstructs an effective shape: FC layers are 1-pixel GEMVs;
        depthwise layers have one input lane per output; dense convs
        infer channel counts from the weight/Mac ratios.
        """
        if layer.kind == "fc":
            return 1, layer.input_bytes, layer.output_bytes
        if layer.kind == "dwconv":
            channels = max(1, layer.weight_bytes // 9)
            pixels = max(1, layer.output_bytes // max(1, channels))
            return pixels, 1, channels
        # Dense conv: macs = pixels * out_ch * in_ch * k^2 and
        # weights = out_ch * in_ch * k^2  =>  pixels = macs / weights.
        weights = max(1, layer.weight_bytes)
        pixels = max(1, layer.macs // weights)
        out_channels = max(1, layer.output_bytes // pixels)
        in_group = max(1, weights // max(1, out_channels))  # in_ch * k^2
        return pixels, in_group, out_channels

    def compile_layer(self, layer: LayerSpec) -> CompiledLayer:
        """Tile one layer and estimate its compute cycles."""
        if layer.macs == 0:
            return CompiledLayer(
                layer=layer, tiles=0, compute_cycles=0, efficiency=0.0
            )
        geometry = self.geometry
        pixels, in_lanes, out_lanes = self._layer_shape(layer)
        # Fill/drain is paid per *output* tile; the input-channel loop
        # streams through the pipeline without re-filling it.
        tiles = (
            _ceil_div(pixels, geometry.pixel_parallel)
            * _ceil_div(out_lanes, geometry.output_channel_parallel)
        )
        # Cycles if every tile ran full: ideal = macs / macs_per_cycle;
        # underfill inflates it to tiles * cycles_per_tile.
        ideal_cycles = _ceil_div(layer.macs, geometry.macs_per_cycle)
        padded_macs = (
            _ceil_div(pixels, geometry.pixel_parallel)
            * geometry.pixel_parallel
            * _ceil_div(in_lanes, geometry.input_channel_parallel)
            * geometry.input_channel_parallel
            * _ceil_div(out_lanes, geometry.output_channel_parallel)
            * geometry.output_channel_parallel
        )
        padded_cycles = _ceil_div(padded_macs, geometry.macs_per_cycle)
        cycles = int(
            padded_cycles / self.pipeline_efficiency
            + tiles * self.TILE_OVERHEAD_CYCLES
        )
        efficiency = min(1.0, ideal_cycles / max(1, cycles))
        return CompiledLayer(
            layer=layer,
            tiles=tiles,
            compute_cycles=cycles,
            efficiency=efficiency,
        )

    def compile(self, model: ModelSpec) -> CompiledModel:
        """Compile a whole model into its instruction-stream summary."""
        return CompiledModel(
            model=model.name,
            layers=tuple(
                self.compile_layer(layer) for layer in model.layers
            ),
        )

    def derive_efficiencies(self, model: ModelSpec) -> Dict[str, float]:
        """Model-specific per-kind efficiencies for a DpuConfig.

        Memory-only kinds keep efficiency 1.0 (they never bound on
        compute in the roofline).
        """
        derived = {
            "pool": 1.0,
            "add": 1.0,
            "concat": 1.0,
            "global_pool": 1.0,
        }
        derived.update(self.compile(model).efficiency_by_kind())
        return derived
