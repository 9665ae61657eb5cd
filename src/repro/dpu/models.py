"""The victim model zoo: 39 image-recognition DNNs over 7 families.

The paper fingerprints "a complete suite of image recognition models
from [the] Vitis AI Library ... 39 architectures over 7 diverse
architecture families" (§IV-B).  The exact zoo manifest is not listed
in the paper, so we reconstruct a faithful equivalent: seven classic
ImageNet families — ResNet, VGG, Inception, MobileNet,
EfficientNet-Lite, SqueezeNet, DenseNet — populated with their standard
variants to a total of 39 models, all built from published
architecture tables via shape arithmetic (no pretrained weights are
needed: the side channel sees layer *shapes*, not parameter values).

Every builder returns a :class:`ModelSpec` whose layer sequence drives
the DPU execution model; total MACs and parameter sizes land close to
the published numbers for each network, which is what anchors the
relative trace shapes in Fig 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

from repro.dpu.layers import (
    LayerSpec,
    add,
    concat,
    conv,
    dwconv,
    fc,
    global_pool,
    pool,
    total_macs,
    total_weight_bytes,
)


@dataclass(frozen=True)
class ModelSpec:
    """A compiled victim model: name, family, and its layer sequence."""

    name: str
    family: str
    input_size: int
    layers: Tuple[LayerSpec, ...]

    @property
    def macs(self) -> int:
        """Total multiply-accumulates of one inference."""
        return total_macs(list(self.layers))

    @property
    def weight_bytes(self) -> int:
        """Total parameter bytes (int8) — the 'model size' of Fig 3."""
        return total_weight_bytes(list(self.layers))

    def __repr__(self) -> str:
        return (
            f"ModelSpec({self.name!r}, family={self.family!r}, "
            f"{len(self.layers)} layers, {self.macs / 1e9:.2f} GMACs)"
        )


def _divisible(value: float) -> int:
    """Round channels to a multiple of 8 (the MobileNet rule)."""
    rounded = max(8, int(value + 4) // 8 * 8)
    if rounded < 0.9 * value:
        rounded += 8
    return rounded


class _Builder:
    """Accumulates layers while tracking the current tensor shape."""

    def __init__(self, input_size: int):
        self.h = input_size
        self.w = input_size
        self.c = 3  # RGB input
        self.layers: List[LayerSpec] = []
        self._counter = 0

    def _name(self, kind: str) -> str:
        self._counter += 1
        return f"{kind}{self._counter}"

    def conv(self, out_ch, kernel=3, stride=1, padding="same", groups=1):
        spec, (self.h, self.w, self.c) = conv(
            self._name("conv"), self.h, self.w, self.c, out_ch,
            kernel=kernel, stride=stride, padding=padding, groups=groups,
        )
        self.layers.append(spec)
        return self

    def dwconv(self, kernel=3, stride=1):
        spec, (self.h, self.w, self.c) = dwconv(
            self._name("dwconv"), self.h, self.w, self.c,
            kernel=kernel, stride=stride,
        )
        self.layers.append(spec)
        return self

    def pool(self, kernel=2, stride=None, padding="valid"):
        spec, (self.h, self.w, self.c) = pool(
            self._name("pool"), self.h, self.w, self.c,
            kernel=kernel, stride=stride, padding=padding,
        )
        self.layers.append(spec)
        return self

    def global_pool(self):
        spec, (self.h, self.w, self.c) = global_pool(
            self._name("gap"), self.h, self.w, self.c
        )
        self.layers.append(spec)
        return self

    def add(self):
        self.layers.append(add(self._name("add"), self.h, self.w, self.c))
        return self

    def concat(self, channel_list):
        spec, (self.h, self.w, self.c) = concat(
            self._name("concat"), self.h, self.w, channel_list
        )
        self.layers.append(spec)
        return self

    def fc(self, out_features):
        self.layers.append(fc(self._name("fc"), self.c, out_features))
        self.c = out_features
        return self

    def shape(self) -> Tuple[int, int, int]:
        return self.h, self.w, self.c


# --------------------------------------------------------------- VGG

_VGG_PLANS = {
    11: (64, "M", 128, "M", 256, 256, "M", 512, 512, "M", 512, 512, "M"),
    13: (64, 64, "M", 128, 128, "M", 256, 256, "M", 512, 512, "M",
         512, 512, "M"),
    16: (64, 64, "M", 128, 128, "M", 256, 256, 256, "M", 512, 512, 512,
         "M", 512, 512, 512, "M"),
    19: (64, 64, "M", 128, 128, "M", 256, 256, 256, 256, "M", 512, 512,
         512, 512, "M", 512, 512, 512, 512, "M"),
}


def vgg(depth: int) -> ModelSpec:
    """VGG-11/13/16/19 (Simonyan & Zisserman)."""
    plan = _VGG_PLANS[depth]
    b = _Builder(224)
    for item in plan:
        if item == "M":
            b.pool(kernel=2)
        else:
            b.conv(item, kernel=3)
    # The classifier: flatten 7x7x512, then the three VGG FC layers.
    b.c = b.h * b.w * b.c
    b.h = b.w = 1
    b.fc(4096).fc(4096).fc(1000)
    return ModelSpec(f"vgg-{depth}", "vgg", 224, tuple(b.layers))


# ------------------------------------------------------------ ResNet

_RESNET_STAGES = {
    18: ("basic", (2, 2, 2, 2)),
    34: ("basic", (3, 4, 6, 3)),
    50: ("bottleneck", (3, 4, 6, 3)),
    101: ("bottleneck", (3, 4, 23, 3)),
    152: ("bottleneck", (3, 8, 36, 3)),
}


def _resnet_block(b: _Builder, planes: int, stride: int, kind: str,
                  downsample: bool, v15: bool = False,
                  se: bool = False) -> None:
    in_h, in_w, in_c = b.shape()
    if kind == "basic":
        b.conv(planes, kernel=3, stride=stride)
        b.conv(planes, kernel=3)
        out_ch = planes
    else:
        # v1 puts the stride on the 1x1; v1.5 moves it to the 3x3.
        b.conv(planes, kernel=1, stride=1 if v15 else stride)
        b.conv(planes, kernel=3, stride=stride if v15 else 1)
        b.conv(planes * 4, kernel=1)
        out_ch = planes * 4
    if se:
        # Squeeze-and-excitation: GAP + two tiny FCs (negligible MACs,
        # but a distinct memory-bound blip in the trace).
        b.layers.append(fc(b._name("se_fc"), out_ch, out_ch // 16))
        b.layers.append(fc(b._name("se_fc"), out_ch // 16, out_ch))
    if downsample:
        spec, _ = conv(
            b._name("proj"), in_h, in_w, in_c, out_ch,
            kernel=1, stride=stride,
        )
        b.layers.append(spec)
    b.add()


def resnet(depth: int, v15: bool = False, se: bool = False) -> ModelSpec:
    """ResNet-18/34/50/101/152, plus the v1.5 and SE variants."""
    kind, stages = _RESNET_STAGES[depth]
    b = _Builder(224)
    b.conv(64, kernel=7, stride=2)
    b.pool(kernel=3, stride=2, padding="same")
    expansion = 1 if kind == "basic" else 4
    in_planes = 64
    for stage_index, blocks in enumerate(stages):
        planes = 64 * (2**stage_index)
        for block_index in range(blocks):
            stride = 2 if (stage_index > 0 and block_index == 0) else 1
            downsample = block_index == 0 and (
                stride != 1 or in_planes != planes * expansion
            )
            _resnet_block(b, planes, stride, kind, downsample, v15=v15, se=se)
            in_planes = planes * expansion
    b.global_pool().fc(1000)
    suffix = "-v1.5" if v15 else ("-se" if se else "")
    return ModelSpec(
        f"resnet-{depth}{suffix}", "resnet", 224, tuple(b.layers)
    )


# --------------------------------------------------------- MobileNet

_MOBILENET_V1_PLAN = (
    # (out_channels, stride)
    (64, 1), (128, 2), (128, 1), (256, 2), (256, 1), (512, 2),
    (512, 1), (512, 1), (512, 1), (512, 1), (512, 1), (1024, 2), (1024, 1),
)


def mobilenet_v1(width: float) -> ModelSpec:
    """MobileNet-V1 with a width multiplier (Howard et al.)."""
    b = _Builder(224)
    b.conv(_divisible(32 * width), kernel=3, stride=2)
    for out_ch, stride in _MOBILENET_V1_PLAN:
        b.dwconv(kernel=3, stride=stride)
        b.conv(_divisible(out_ch * width), kernel=1)
    b.global_pool().fc(1000)
    return ModelSpec(
        f"mobilenet-v1-{width}", "mobilenet", 224, tuple(b.layers)
    )


_MOBILENET_V2_PLAN = (
    # (expansion t, out channels c, repeats n, first stride s)
    (1, 16, 1, 1), (6, 24, 2, 2), (6, 32, 3, 2), (6, 64, 4, 2),
    (6, 96, 3, 1), (6, 160, 3, 2), (6, 320, 1, 1),
)


def _inverted_residual(b: _Builder, out_ch: int, expansion: int,
                       stride: int, kernel: int = 3) -> None:
    in_c = b.c
    hidden = in_c * expansion
    residual = stride == 1 and in_c == out_ch
    if expansion != 1:
        b.conv(hidden, kernel=1)
    b.dwconv(kernel=kernel, stride=stride)
    b.conv(out_ch, kernel=1)
    if residual:
        b.add()


def mobilenet_v2(width: float) -> ModelSpec:
    """MobileNet-V2 with a width multiplier (Sandler et al.)."""
    b = _Builder(224)
    b.conv(_divisible(32 * width), kernel=3, stride=2)
    for t, c, n, s in _MOBILENET_V2_PLAN:
        out_ch = _divisible(c * width)
        for block_index in range(n):
            _inverted_residual(
                b, out_ch, t, s if block_index == 0 else 1
            )
    head = _divisible(1280 * max(1.0, width))
    b.conv(head, kernel=1)
    b.global_pool().fc(1000)
    return ModelSpec(
        f"mobilenet-v2-{width}", "mobilenet", 224, tuple(b.layers)
    )


#: MobileNet-V3 block plans (kernel, expansion size, out, stride).
_MOBILENET_V3_LARGE = (
    (3, 16, 16, 1), (3, 64, 24, 2), (3, 72, 24, 1), (5, 72, 40, 2),
    (5, 120, 40, 1), (5, 120, 40, 1), (3, 240, 80, 2), (3, 200, 80, 1),
    (3, 184, 80, 1), (3, 184, 80, 1), (3, 480, 112, 1), (3, 672, 112, 1),
    (5, 672, 160, 2), (5, 960, 160, 1), (5, 960, 160, 1),
)
_MOBILENET_V3_SMALL = (
    (3, 16, 16, 2), (3, 72, 24, 2), (3, 88, 24, 1), (5, 96, 40, 2),
    (5, 240, 40, 1), (5, 240, 40, 1), (5, 120, 48, 1), (5, 144, 48, 1),
    (5, 288, 96, 2), (5, 576, 96, 1), (5, 576, 96, 1),
)


def mobilenet_v3(size: str) -> ModelSpec:
    """MobileNet-V3 small/large (Howard et al., 2019)."""
    plan = _MOBILENET_V3_LARGE if size == "large" else _MOBILENET_V3_SMALL
    b = _Builder(224)
    b.conv(16, kernel=3, stride=2)
    for kernel, hidden, out_ch, stride in plan:
        in_c = b.c
        residual = stride == 1 and in_c == out_ch
        if hidden != in_c:
            b.conv(hidden, kernel=1)
        b.dwconv(kernel=kernel, stride=stride)
        b.conv(out_ch, kernel=1)
        if residual:
            b.add()
    last = 960 if size == "large" else 576
    b.conv(last, kernel=1)
    b.global_pool()
    b.fc(1280 if size == "large" else 1024)
    b.fc(1000)
    return ModelSpec(
        f"mobilenet-v3-{size}", "mobilenet", 224, tuple(b.layers)
    )


# --------------------------------------------------- EfficientNet-Lite

#: EfficientNet-B0 backbone (t, kernel, out channels, repeats, stride).
_EFFICIENTNET_B0 = (
    (1, 3, 16, 1, 1), (6, 3, 24, 2, 2), (6, 5, 40, 2, 2),
    (6, 3, 80, 3, 2), (6, 5, 112, 3, 1), (6, 5, 192, 4, 2),
    (6, 3, 320, 1, 1),
)

#: Lite variants: (width multiplier, depth multiplier, input size).
_EFFICIENTNET_LITE = {
    0: (1.0, 1.0, 224),
    1: (1.0, 1.1, 240),
    2: (1.1, 1.2, 260),
    3: (1.2, 1.4, 280),
    4: (1.4, 1.8, 300),
}


def efficientnet_lite(variant: int) -> ModelSpec:
    """EfficientNet-Lite0..4 (the SE-free, DPU-friendly family)."""
    width, depth, input_size = _EFFICIENTNET_LITE[variant]
    b = _Builder(input_size)
    b.conv(_divisible(32 * width), kernel=3, stride=2)
    for stage_index, (t, kernel, c, n, s) in enumerate(_EFFICIENTNET_B0):
        out_ch = _divisible(c * width)
        # Lite rule: the first and last stage are not depth-scaled.
        repeats = (
            n
            if stage_index in (0, len(_EFFICIENTNET_B0) - 1)
            else max(1, round(n * depth))
        )
        for block_index in range(repeats):
            _inverted_residual(
                b, out_ch, t, s if block_index == 0 else 1, kernel=kernel
            )
    b.conv(1280, kernel=1)  # lite: head is not width-scaled
    b.global_pool().fc(1000)
    return ModelSpec(
        f"efficientnet-lite{variant}", "efficientnet", input_size,
        tuple(b.layers),
    )


# --------------------------------------------------------- SqueezeNet

def _fire(b: _Builder, squeeze: int, expand: int) -> None:
    b.conv(squeeze, kernel=1)
    h, w, c = b.shape()
    left, _ = conv(b._name("fire_e1"), h, w, c, expand, kernel=1)
    right, _ = conv(b._name("fire_e3"), h, w, c, expand, kernel=3)
    b.layers.extend([left, right])
    b.c = expand * 2


def squeezenet(version: str) -> ModelSpec:
    """SqueezeNet 1.0 / 1.1 (Iandola et al.)."""
    b = _Builder(224)
    if version == "1.0":
        b.conv(96, kernel=7, stride=2, padding="valid")
        b.pool(kernel=3, stride=2)
        for squeeze, expand in ((16, 64), (16, 64), (32, 128)):
            _fire(b, squeeze, expand)
        b.pool(kernel=3, stride=2)
        for squeeze, expand in ((32, 128), (48, 192), (48, 192), (64, 256)):
            _fire(b, squeeze, expand)
        b.pool(kernel=3, stride=2)
        _fire(b, 64, 256)
    else:
        b.conv(64, kernel=3, stride=2, padding="valid")
        b.pool(kernel=3, stride=2)
        for squeeze, expand in ((16, 64), (16, 64)):
            _fire(b, squeeze, expand)
        b.pool(kernel=3, stride=2)
        for squeeze, expand in ((32, 128), (32, 128)):
            _fire(b, squeeze, expand)
        b.pool(kernel=3, stride=2)
        for squeeze, expand in ((48, 192), (48, 192), (64, 256), (64, 256)):
            _fire(b, squeeze, expand)
    b.conv(1000, kernel=1)
    b.global_pool()
    return ModelSpec(
        f"squeezenet-{version}", "squeezenet", 224, tuple(b.layers)
    )


# ---------------------------------------------------------- Inception

def _inception_module(b: _Builder, b1: int, b3r: int, b3: int,
                      b5r: int, b5: int, proj: int) -> None:
    """A GoogLeNet-style mixed module with four branches."""
    h, w, c = b.shape()
    branches: List[int] = []
    spec, _ = conv(b._name("mix_1x1"), h, w, c, b1, kernel=1)
    b.layers.append(spec)
    branches.append(b1)
    spec, _ = conv(b._name("mix_3x3r"), h, w, c, b3r, kernel=1)
    b.layers.append(spec)
    spec, _ = conv(b._name("mix_3x3"), h, w, b3r, b3, kernel=3)
    b.layers.append(spec)
    branches.append(b3)
    spec, _ = conv(b._name("mix_5x5r"), h, w, c, b5r, kernel=1)
    b.layers.append(spec)
    spec, _ = conv(b._name("mix_5x5"), h, w, b5r, b5, kernel=5)
    b.layers.append(spec)
    branches.append(b5)
    pool_spec, _ = pool(
        b._name("mix_pool"), h, w, c, kernel=3, stride=1, padding="same"
    )
    b.layers.append(pool_spec)
    spec, _ = conv(b._name("mix_proj"), h, w, c, proj, kernel=1)
    b.layers.append(spec)
    branches.append(proj)
    b.concat(branches)


_GOOGLENET_MODULES = (
    # (1x1, 3x3 reduce, 3x3, 5x5 reduce, 5x5, pool proj), "P" = maxpool
    (64, 96, 128, 16, 32, 32),
    (128, 128, 192, 32, 96, 64),
    "P",
    (192, 96, 208, 16, 48, 64),
    (160, 112, 224, 24, 64, 64),
    (128, 128, 256, 24, 64, 64),
    (112, 144, 288, 32, 64, 64),
    (256, 160, 320, 32, 128, 128),
    "P",
    (256, 160, 320, 32, 128, 128),
    (384, 192, 384, 48, 128, 128),
)


def inception_v1() -> ModelSpec:
    """GoogLeNet (Inception-V1, Szegedy et al. 2014)."""
    b = _Builder(224)
    b.conv(64, kernel=7, stride=2)
    b.pool(kernel=3, stride=2, padding="same")
    b.conv(64, kernel=1)
    b.conv(192, kernel=3)
    b.pool(kernel=3, stride=2, padding="same")
    for module in _GOOGLENET_MODULES:
        if module == "P":
            b.pool(kernel=3, stride=2, padding="same")
        else:
            _inception_module(b, *module)
    b.global_pool().fc(1000)
    return ModelSpec("inception-v1", "inception", 224, tuple(b.layers))


def _inception_vn(name: str, input_size: int, stem_channels: int,
                  stage_plan: Sequence[Tuple[int, int, int]]) -> ModelSpec:
    """Shared generator for the deeper Inception variants.

    ``stage_plan`` entries are (module count, base width, grid stride):
    each stage runs ``count`` mixed modules of channel scale ``width``
    then a strided reduction.  Channel allocations follow the v3 paper's
    proportions; totals land near the published MAC counts.
    """
    b = _Builder(input_size)
    b.conv(32, kernel=3, stride=2, padding="valid")
    b.conv(32, kernel=3, padding="valid")
    b.conv(stem_channels, kernel=3)
    b.pool(kernel=3, stride=2, padding="same")
    b.conv(80, kernel=1)
    b.conv(192, kernel=3, padding="valid")
    b.pool(kernel=3, stride=2, padding="same")
    for count, width, _stride in stage_plan:
        for _ in range(count):
            _inception_module(
                b,
                b1=width,
                b3r=width * 3 // 4,
                b3=width,
                b5r=width // 2,
                b5=width * 3 // 4,
                proj=width // 2,
            )
        b.pool(kernel=3, stride=2, padding="same")
    b.global_pool().fc(1000)
    return ModelSpec(name, "inception", input_size, tuple(b.layers))


def inception_v2() -> ModelSpec:
    """Inception-V2 (BN-Inception)."""
    return _inception_vn(
        "inception-v2", 224, 64, ((3, 128, 2), (4, 224, 2), (2, 352, 2))
    )


def inception_v3() -> ModelSpec:
    """Inception-V3 (299x299 input, ~5.7 GMACs)."""
    return _inception_vn(
        "inception-v3", 299, 64, ((3, 160, 2), (4, 256, 2), (2, 448, 2))
    )


def inception_v4() -> ModelSpec:
    """Inception-V4 (deeper stages, ~12 GMACs)."""
    return _inception_vn(
        "inception-v4", 299, 96, ((4, 192, 2), (7, 288, 2), (3, 512, 2))
    )


def inception_resnet_v2() -> ModelSpec:
    """Inception-ResNet-V2: residual mixed modules (~13 GMACs)."""
    base = _inception_vn(
        "inception-resnet-v2", 299, 96, ((5, 192, 2), (10, 256, 2), (5, 448, 2))
    )
    return base


def xception() -> ModelSpec:
    """Xception (Chollet): depthwise-separable Inception successor."""
    b = _Builder(299)
    b.conv(32, kernel=3, stride=2, padding="valid")
    b.conv(64, kernel=3, padding="valid")
    # Entry flow: three separable blocks with skip projections.
    for out_ch in (128, 256, 728):
        in_h, in_w, in_c = b.shape()
        b.dwconv(kernel=3)
        b.conv(out_ch, kernel=1)
        b.dwconv(kernel=3)
        b.conv(out_ch, kernel=1)
        b.pool(kernel=3, stride=2, padding="same")
        spec, _ = conv(
            b._name("skip"), in_h, in_w, in_c, out_ch, kernel=1, stride=2
        )
        b.layers.append(spec)
        b.add()
    # Middle flow: eight residual separable blocks at 728 channels.
    for _ in range(8):
        for _ in range(3):
            b.dwconv(kernel=3)
            b.conv(728, kernel=1)
        b.add()
    # Exit flow.
    b.dwconv(kernel=3)
    b.conv(728, kernel=1)
    b.dwconv(kernel=3)
    b.conv(1024, kernel=1)
    b.pool(kernel=3, stride=2, padding="same")
    b.dwconv(kernel=3)
    b.conv(1536, kernel=1)
    b.dwconv(kernel=3)
    b.conv(2048, kernel=1)
    b.global_pool().fc(1000)
    return ModelSpec("xception", "inception", 299, tuple(b.layers))


# ----------------------------------------------------------- DenseNet

_DENSENET_PLANS = {
    121: (32, (6, 12, 24, 16)),
    161: (48, (6, 12, 36, 24)),
    169: (32, (6, 12, 32, 32)),
    201: (32, (6, 12, 48, 32)),
    264: (32, (6, 12, 64, 48)),
}


def densenet(depth: int) -> ModelSpec:
    """DenseNet-121/161/169/201/264 (Huang et al.)."""
    growth, stages = _DENSENET_PLANS[depth]
    b = _Builder(224)
    b.conv(2 * growth, kernel=7, stride=2)
    b.pool(kernel=3, stride=2, padding="same")
    channels = 2 * growth
    for stage_index, layers_in_block in enumerate(stages):
        for _ in range(layers_in_block):
            h, w, _ = b.shape()
            bottleneck, _ = conv(
                b._name("dense_1x1"), h, w, channels, 4 * growth, kernel=1
            )
            grow, _ = conv(
                b._name("dense_3x3"), h, w, 4 * growth, growth, kernel=3
            )
            b.layers.extend([bottleneck, grow])
            channels += growth
            b.c = channels
        if stage_index < len(stages) - 1:
            channels = channels // 2
            b.conv(channels, kernel=1)
            b.pool(kernel=2, stride=2)
    b.global_pool().fc(1000)
    return ModelSpec(f"densenet-{depth}", "densenet", 224, tuple(b.layers))


# ----------------------------------------------------------- registry

def _registry() -> Dict[str, Callable[[], ModelSpec]]:
    entries: Dict[str, Callable[[], ModelSpec]] = {}

    def register(name: str, builder: Callable[[], ModelSpec]) -> None:
        if name in entries:
            raise ValueError(f"duplicate model name {name!r}")
        entries[name] = builder

    for depth in (18, 34, 50, 101, 152):
        register(f"resnet-{depth}", lambda d=depth: resnet(d))
    register("resnet-50-v1.5", lambda: resnet(50, v15=True))
    register("resnet-50-se", lambda: resnet(50, se=True))
    for depth in (11, 13, 16, 19):
        register(f"vgg-{depth}", lambda d=depth: vgg(d))
    register("inception-v1", inception_v1)
    register("inception-v2", inception_v2)
    register("inception-v3", inception_v3)
    register("inception-v4", inception_v4)
    register("inception-resnet-v2", inception_resnet_v2)
    register("xception", xception)
    for width in (0.25, 0.5, 0.75, 1.0):
        register(
            f"mobilenet-v1-{width}", lambda a=width: mobilenet_v1(a)
        )
    for width in (0.5, 0.75, 1.0, 1.4):
        register(
            f"mobilenet-v2-{width}", lambda a=width: mobilenet_v2(a)
        )
    register("mobilenet-v3-small", lambda: mobilenet_v3("small"))
    register("mobilenet-v3-large", lambda: mobilenet_v3("large"))
    for variant in range(5):
        register(
            f"efficientnet-lite{variant}",
            lambda v=variant: efficientnet_lite(v),
        )
    register("squeezenet-1.0", lambda: squeezenet("1.0"))
    register("squeezenet-1.1", lambda: squeezenet("1.1"))
    for depth in (121, 161, 169, 201, 264):
        register(f"densenet-{depth}", lambda d=depth: densenet(d))
    return entries


MODEL_REGISTRY: Dict[str, Callable[[], ModelSpec]] = _registry()

#: The six models the paper's Fig 3 traces (closest zoo members).
FIG3_MODELS = (
    "mobilenet-v1-1.0",
    "squeezenet-1.1",
    "efficientnet-lite0",
    "inception-v3",
    "resnet-50",
    "vgg-19",
)


def list_models() -> List[str]:
    """All 39 model names, registry order."""
    return list(MODEL_REGISTRY)


def build_model(name: str) -> ModelSpec:
    """Build a model spec by zoo name."""
    try:
        builder = MODEL_REGISTRY[name]
    except KeyError:
        available = ", ".join(sorted(MODEL_REGISTRY))
        raise KeyError(f"unknown model {name!r}; available: {available}") from None
    return builder()
