"""DPU substrate: layer costs, model zoo, core model, inference runner."""

from repro.dpu.compiler import (
    ArrayGeometry,
    CompiledLayer,
    CompiledModel,
    DpuCompiler,
)
from repro.dpu.dpu import (
    DEFAULT_EFFICIENCY,
    DpuConfig,
    DpuCore,
    LayerExecution,
)
from repro.dpu.layers import (
    LAYER_KINDS,
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
from repro.dpu.models import (
    FIG3_MODELS,
    MODEL_REGISTRY,
    ModelSpec,
    build_model,
    list_models,
)
from repro.dpu.runner import (
    DPU_RAILS,
    CycleProfile,
    DpuRunner,
    RuntimeConfig,
)

__all__ = [
    "ArrayGeometry",
    "CompiledLayer",
    "CompiledModel",
    "DpuCompiler",
    "DEFAULT_EFFICIENCY",
    "DpuConfig",
    "DpuCore",
    "LayerExecution",
    "LAYER_KINDS",
    "LayerSpec",
    "add",
    "concat",
    "conv",
    "dwconv",
    "fc",
    "global_pool",
    "pool",
    "total_macs",
    "total_weight_bytes",
    "FIG3_MODELS",
    "MODEL_REGISTRY",
    "ModelSpec",
    "build_model",
    "list_models",
    "DPU_RAILS",
    "CycleProfile",
    "DpuRunner",
    "RuntimeConfig",
]
