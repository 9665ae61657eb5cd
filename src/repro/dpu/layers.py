"""DNN layer descriptions and cost arithmetic for the DPU model.

The Xilinx DPU executes a compiled DNN as a sequence of layer
operations; each operation has a compute cost (multiply-accumulates)
and a memory cost (weights + activations moved over the AXI ports to
DDR).  Those two numbers, pushed through a roofline model of the DPU
core (:mod:`repro.dpu.dpu`), determine each layer's duration and its
power draw on the FPGA and DDR rails — the time-varying signature that
AmpereBleed's traces capture (paper Fig 3).

Layer constructors here compute MACs and byte counts from standard
shape arithmetic.  All tensors are NHWC, weights are int8 (the DPU is
an int8 engine), activations are int8.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

#: Bytes per int8 element.
ELEMENT_BYTES = 1

LAYER_KINDS = (
    "conv",
    "dwconv",
    "fc",
    "pool",
    "add",
    "concat",
    "global_pool",
)


@dataclass(frozen=True)
class LayerSpec:
    """One compiled DPU operation.

    Attributes:
        name: human-readable layer name (e.g. ``"conv2_1"``).
        kind: one of :data:`LAYER_KINDS`; sets the DPU efficiency class.
        macs: multiply-accumulate count.
        weight_bytes: parameter bytes streamed from DDR.
        input_bytes: activation bytes read.
        output_bytes: activation bytes written.
    """

    name: str
    kind: str
    macs: int
    weight_bytes: int
    input_bytes: int
    output_bytes: int

    def __post_init__(self):
        if self.kind not in LAYER_KINDS:
            raise ValueError(
                f"unknown layer kind {self.kind!r}; expected {LAYER_KINDS}"
            )
        for field_name in ("macs", "weight_bytes", "input_bytes", "output_bytes"):
            if getattr(self, field_name) < 0:
                raise ValueError(f"{field_name} must be >= 0")

    @property
    def memory_bytes(self) -> int:
        """Total DDR traffic of this layer."""
        return self.weight_bytes + self.input_bytes + self.output_bytes


def _out_dim(size: int, kernel: int, stride: int, padding: str) -> int:
    if padding == "same":
        return -(-size // stride)
    if padding == "valid":
        return (size - kernel) // stride + 1
    raise ValueError(f"padding must be 'same' or 'valid', got {padding!r}")


def conv(
    name: str,
    h: int,
    w: int,
    in_ch: int,
    out_ch: int,
    kernel: int = 3,
    stride: int = 1,
    padding: str = "same",
    groups: int = 1,
) -> Tuple[LayerSpec, Tuple[int, int, int]]:
    """A 2-D convolution; returns the layer and its output (h, w, c).

    ``groups`` splits channels (grouped convolution); depthwise conv
    has its own constructor since the DPU treats it differently.
    """
    if in_ch % groups or out_ch % groups:
        raise ValueError("channels must divide groups")
    out_h = _out_dim(h, kernel, stride, padding)
    out_w = _out_dim(w, kernel, stride, padding)
    macs = out_h * out_w * out_ch * (in_ch // groups) * kernel * kernel
    weights = out_ch * (in_ch // groups) * kernel * kernel * ELEMENT_BYTES
    spec = LayerSpec(
        name=name,
        kind="conv",
        macs=macs,
        weight_bytes=weights,
        input_bytes=h * w * in_ch * ELEMENT_BYTES,
        output_bytes=out_h * out_w * out_ch * ELEMENT_BYTES,
    )
    return spec, (out_h, out_w, out_ch)


def dwconv(
    name: str,
    h: int,
    w: int,
    channels: int,
    kernel: int = 3,
    stride: int = 1,
) -> Tuple[LayerSpec, Tuple[int, int, int]]:
    """A "same"-padded depthwise convolution (one filter per channel)."""
    out_h = _out_dim(h, kernel, stride, "same")
    out_w = _out_dim(w, kernel, stride, "same")
    macs = out_h * out_w * channels * kernel * kernel
    spec = LayerSpec(
        name=name,
        kind="dwconv",
        macs=macs,
        weight_bytes=channels * kernel * kernel * ELEMENT_BYTES,
        input_bytes=h * w * channels * ELEMENT_BYTES,
        output_bytes=out_h * out_w * channels * ELEMENT_BYTES,
    )
    return spec, (out_h, out_w, channels)


def fc(name: str, in_features: int, out_features: int) -> LayerSpec:
    """A fully-connected layer."""
    return LayerSpec(
        name=name,
        kind="fc",
        macs=in_features * out_features,
        weight_bytes=in_features * out_features * ELEMENT_BYTES,
        input_bytes=in_features * ELEMENT_BYTES,
        output_bytes=out_features * ELEMENT_BYTES,
    )


def pool(
    name: str,
    h: int,
    w: int,
    channels: int,
    kernel: int = 2,
    stride: int = None,
    padding: str = "valid",
) -> Tuple[LayerSpec, Tuple[int, int, int]]:
    """A max/avg pooling layer (compute-free, memory-only on the DPU)."""
    stride = kernel if stride is None else stride
    out_h = _out_dim(h, kernel, stride, padding)
    out_w = _out_dim(w, kernel, stride, padding)
    spec = LayerSpec(
        name=name,
        kind="pool",
        macs=0,
        weight_bytes=0,
        input_bytes=h * w * channels * ELEMENT_BYTES,
        output_bytes=out_h * out_w * channels * ELEMENT_BYTES,
    )
    return spec, (out_h, out_w, channels)


def global_pool(
    name: str, h: int, w: int, channels: int
) -> Tuple[LayerSpec, Tuple[int, int, int]]:
    """Global average pooling down to 1x1."""
    spec = LayerSpec(
        name=name,
        kind="global_pool",
        macs=0,
        weight_bytes=0,
        input_bytes=h * w * channels * ELEMENT_BYTES,
        output_bytes=channels * ELEMENT_BYTES,
    )
    return spec, (1, 1, channels)


def add(name: str, h: int, w: int, channels: int) -> LayerSpec:
    """An elementwise residual addition."""
    tensor = h * w * channels * ELEMENT_BYTES
    return LayerSpec(
        name=name,
        kind="add",
        macs=0,
        weight_bytes=0,
        input_bytes=2 * tensor,
        output_bytes=tensor,
    )


def concat(name: str, h: int, w: int, channel_list: List[int]) -> Tuple[
    LayerSpec, Tuple[int, int, int]
]:
    """A channel concatenation (Inception/DenseNet style)."""
    total = sum(channel_list)
    tensor_in = h * w * total * ELEMENT_BYTES
    spec = LayerSpec(
        name=name,
        kind="concat",
        macs=0,
        weight_bytes=0,
        input_bytes=tensor_in,
        output_bytes=tensor_in,
    )
    return spec, (h, w, total)


def total_macs(layers: List[LayerSpec]) -> int:
    """Summed MACs of a layer sequence."""
    return sum(layer.macs for layer in layers)


def total_weight_bytes(layers: List[LayerSpec]) -> int:
    """Summed parameter bytes (the 'model size' of paper Fig 3)."""
    return sum(layer.weight_bytes for layer in layers)
