"""Tests for the tiling-based DPU compiler."""

import pytest

from repro.dpu.compiler import ArrayGeometry, DpuCompiler
from repro.dpu.dpu import DEFAULT_EFFICIENCY, DpuConfig
from repro.dpu.layers import conv, dwconv, fc, pool
from repro.dpu.models import build_model


def mean_efficiency(compiled):
    """MAC-weighted mean array efficiency of a compiled model."""
    macs = [c.layer.macs for c in compiled.layers]
    return sum(c.efficiency * m for c, m in zip(compiled.layers, macs)) / sum(macs)

class TestGeometry:
    def test_b4096_macs_per_cycle(self):
        geometry = ArrayGeometry()
        assert geometry.macs_per_cycle == 8 * 16 * 16  # 2048 MACs

    def test_matches_default_config(self):
        config = DpuConfig()
        assert ArrayGeometry().macs_per_cycle * 2 == config.ops_per_cycle

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            ArrayGeometry(pixel_parallel=0)


class TestLayerCompilation:
    @pytest.fixture
    def compiler(self):
        return DpuCompiler()

    def test_dense_conv_efficiency(self, compiler):
        layer, _ = conv("c", 56, 56, 64, 128, kernel=3)
        compiled = compiler.compile_layer(layer)
        # Channel-aligned dense conv keeps the array mostly busy.
        assert 0.4 < compiled.efficiency <= 0.85
        assert compiled.tiles > 0

    def test_dwconv_starves_input_lanes(self, compiler):
        dense, _ = conv("c", 56, 56, 128, 128, kernel=3)
        depthwise, _ = dwconv("d", 56, 56, 128, kernel=3)
        dense_eff = compiler.compile_layer(dense).efficiency
        dw_eff = compiler.compile_layer(depthwise).efficiency
        # One filter per channel fills 1 of 16 input lanes.
        assert dw_eff < dense_eff / 4
        assert dw_eff <= 1 / 16 + 0.01

    def test_fc_starves_pixel_lanes(self, compiler):
        layer = fc("f", 4096, 4096)
        compiled = compiler.compile_layer(layer)
        # A GEMV fills 1 of 8 pixel lanes.
        assert compiled.efficiency <= 1 / 8 + 0.01

    def test_memory_layers_skip_compute(self, compiler):
        layer, _ = pool("p", 56, 56, 64)
        compiled = compiler.compile_layer(layer)
        assert compiled.compute_cycles == 0
        assert compiled.efficiency == 0.0

    def test_misaligned_channels_waste_lanes(self, compiler):
        aligned, _ = conv("a", 28, 28, 64, 64, kernel=3)
        misaligned, _ = conv("m", 28, 28, 65, 65, kernel=3)
        assert compiler.compile_layer(misaligned).efficiency < (
            compiler.compile_layer(aligned).efficiency
        )

    def test_invalid_pipeline_efficiency(self):
        with pytest.raises(ValueError):
            DpuCompiler(pipeline_efficiency=0.0)


class TestModelCompilation:
    @pytest.fixture
    def compiler(self):
        return DpuCompiler()

    def test_compile_covers_layers(self, compiler):
        model = build_model("resnet-18")
        compiled = compiler.compile(model)
        assert len(compiled.layers) == len(model.layers)
        assert compiled.model == "resnet-18"

    def test_vgg_most_efficient(self, compiler):
        # Big aligned convs -> the best array utilization in the zoo.
        vgg = mean_efficiency(compiler.compile(build_model("vgg-19")))
        mobilenet = mean_efficiency(
            compiler.compile(build_model("mobilenet-v1-1.0"))
        )
        assert vgg > mobilenet

    def test_efficiency_by_kind_ordering(self, compiler):
        compiled = compiler.compile(build_model("mobilenet-v1-1.0"))
        by_kind = compiled.efficiency_by_kind()
        assert by_kind["conv"] > by_kind["dwconv"]

    def test_derived_efficiencies_usable_by_core(self, compiler):
        model = build_model("resnet-50")
        derived = compiler.derive_efficiencies(model)
        config = DpuConfig(efficiency=derived)
        # Valid (0, 1] values for every kind the core needs.
        for kind in ("conv", "pool", "add"):
            assert 0.0 < config.efficiency[kind] <= 1.0

    def test_derived_conv_near_fixed_constant(self, compiler):
        # The first-principles number should land in the same regime
        # as the fixed shortcut (0.65) for a conv-dominated model.
        derived = compiler.derive_efficiencies(build_model("vgg-19"))
        assert abs(derived["conv"] - DEFAULT_EFFICIENCY["conv"]) < 0.25

    def test_total_cycles_positive(self, compiler):
        compiled = compiler.compile(build_model("squeezenet-1.1"))
        assert sum(layer.compute_cycles for layer in compiled.layers) > 0
