"""Tests for the DPU core roofline model."""

import pytest

from repro.dpu.dpu import DpuConfig, DpuCore
from repro.dpu.layers import conv, dwconv, fc, pool
from repro.dpu.models import build_model


def mean_fpga_power(core, model):
    """Time-averaged FPGA-rail power of one inference, idle floor included."""
    executions = core.schedule(model)
    total_time = sum(execution.duration for execution in executions)
    energy = sum(
        execution.fpga_power * execution.duration for execution in executions
    )
    return core.config.p_idle + energy / total_time


class TestConfig:
    def test_b4096_peak(self):
        config = DpuConfig()
        # 4096 ops/cycle at 300 MHz = 1.2288 TOPS = 614.4 GMAC/s.
        assert config.peak_macs_per_second == pytest.approx(614.4e9)

    def test_invalid_efficiency_rejected(self):
        with pytest.raises(ValueError):
            DpuConfig(efficiency={"conv": 1.5})

    def test_invalid_clock_rejected(self):
        with pytest.raises(ValueError):
            DpuConfig(clock_hz=0.0)


class TestLayerScheduling:
    @pytest.fixture
    def core(self):
        return DpuCore()

    def test_compute_bound_conv(self, core):
        layer, _ = conv("c", 56, 56, 256, 256, kernel=3)
        execution = core.schedule_layer(layer)
        expected = layer.macs / (614.4e9 * 0.65)
        assert execution.duration == pytest.approx(expected)
        assert execution.occupancy == pytest.approx(0.65)

    def test_memory_bound_fc(self, core):
        layer = fc("f", 25088, 4096)  # VGG fc6: ~100 MB of weights
        execution = core.schedule_layer(layer)
        memory_time = layer.memory_bytes / core.config.ddr_bandwidth
        assert execution.duration == pytest.approx(memory_time)
        assert execution.occupancy < 0.2

    def test_pool_is_memory_only(self, core):
        layer, _ = pool("p", 112, 112, 64, kernel=2)
        execution = core.schedule_layer(layer)
        assert execution.fpga_power == 0.0
        assert execution.ddr_power > 0.0

    def test_min_layer_time_floor(self, core):
        layer = fc("tiny", 16, 16)
        execution = core.schedule_layer(layer)
        assert execution.duration == core.config.min_layer_seconds

    def test_dwconv_less_efficient(self, core):
        dense, _ = conv("c", 56, 56, 128, 128, kernel=3)
        depthwise, _ = dwconv("d", 56, 56, 128, kernel=3)
        dense_rate = dense.macs / core.schedule_layer(dense).duration
        dw_rate = depthwise.macs / core.schedule_layer(depthwise).duration
        assert dw_rate < dense_rate

    def test_ddr_power_bounded_by_bandwidth(self, core):
        layer = fc("f", 25088, 4096)
        execution = core.schedule_layer(layer)
        max_power = (
            core.config.ddr_bandwidth * core.config.ddr_energy_per_byte
        )
        assert execution.ddr_power <= max_power * 1.0001


class TestModelScheduling:
    @pytest.fixture
    def core(self):
        return DpuCore()

    def test_schedule_covers_all_layers(self, core):
        model = build_model("resnet-18")
        schedule = core.schedule(model)
        assert len(schedule) == len(model.layers)

    def test_latency_orderings(self, core):
        # Heavier nets take longer end to end.
        mobilenet = core.inference_latency(build_model("mobilenet-v1-1.0"))
        resnet = core.inference_latency(build_model("resnet-50"))
        vgg = core.inference_latency(build_model("vgg-19"))
        assert mobilenet < resnet < vgg

    def test_latency_realistic_range(self, core):
        # ResNet-50 on a B4096 runs in the 10-30 ms bracket.
        latency = core.inference_latency(build_model("resnet-50"))
        assert 5e-3 < latency < 40e-3

    def test_mean_power_includes_idle_floor(self, core):
        mean = mean_fpga_power(core, build_model("mobilenet-v1-0.25"))
        assert mean > core.config.p_idle

    def test_mean_power_below_max(self, core):
        mean = mean_fpga_power(core, build_model("vgg-19"))
        assert mean < core.config.p_idle + core.config.p_compute_max

    def test_conv_heavy_models_draw_more_fpga_power(self, core):
        vgg = mean_fpga_power(core, build_model("vgg-19"))
        mobilenet = mean_fpga_power(core, build_model("mobilenet-v1-1.0"))
        assert vgg > mobilenet

    def test_repr(self, core):
        assert "B4096" in repr(core)
