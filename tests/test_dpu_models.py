"""Tests for the 39-model zoo."""

import pytest

from repro.dpu.models import (
    FIG3_MODELS,
    MODEL_REGISTRY,
    build_model,
    list_models,
)


class TestZooShape:
    def test_exactly_39_models(self):
        # Paper §IV-B: "39 architectures over 7 diverse architecture
        # families".
        assert len(list_models()) == 39

    def test_exactly_7_families(self):
        families = {build_model(name).family for name in list_models()}
        assert len(families) == 7

    def test_family_membership(self):
        families = {}
        for name in list_models():
            model = build_model(name)
            families.setdefault(model.family, []).append(name)
        assert set(families) == {
            "resnet", "vgg", "inception", "mobilenet", "efficientnet",
            "squeezenet", "densenet",
        }
        assert sum(len(v) for v in families.values()) == 39

    def test_fig3_models_exist(self):
        assert len(FIG3_MODELS) == 6
        for name in FIG3_MODELS:
            assert name in MODEL_REGISTRY

    def test_unknown_model_raises(self):
        with pytest.raises(KeyError, match="available"):
            build_model("transformer-xl")

    def test_names_match_specs(self):
        for name in list_models():
            assert build_model(name).name == name

    def test_builders_are_pure(self):
        a = build_model("resnet-50")
        b = build_model("resnet-50")
        assert a.macs == b.macs
        assert len(a.layers) == len(b.layers)


class TestPublishedMacCounts:
    """Total MACs should land near the published numbers (int8 DPU
    compilation keeps the MAC count; tolerances absorb our grid/padding
    simplifications)."""

    @pytest.mark.parametrize(
        "name,gmacs,rtol",
        [
            ("resnet-18", 1.8, 0.15),
            ("resnet-50", 4.1, 0.15),
            ("resnet-152", 11.5, 0.15),
            ("vgg-16", 15.5, 0.10),
            ("vgg-19", 19.6, 0.10),
            ("mobilenet-v1-1.0", 0.57, 0.15),
            ("mobilenet-v2-1.0", 0.30, 0.20),
            ("squeezenet-1.1", 0.35, 0.25),
            ("efficientnet-lite0", 0.39, 0.25),
            ("inception-v1", 1.5, 0.25),
            ("densenet-121", 2.9, 0.15),
        ],
    )
    def test_macs(self, name, gmacs, rtol):
        assert build_model(name).macs / 1e9 == pytest.approx(gmacs, rel=rtol)

    def test_vgg19_heavier_than_vgg11(self):
        assert build_model("vgg-19").macs > build_model("vgg-11").macs

    def test_resnet_depth_ordering(self):
        macs = [
            build_model(f"resnet-{d}").macs for d in (18, 34, 50, 101, 152)
        ]
        assert macs == sorted(macs)

    def test_mobilenet_width_ordering(self):
        macs = [
            build_model(f"mobilenet-v1-{w}").macs
            for w in (0.25, 0.5, 0.75, 1.0)
        ]
        assert macs == sorted(macs)

    def test_efficientnet_lite_ordering(self):
        macs = [build_model(f"efficientnet-lite{v}").macs for v in range(5)]
        assert macs == sorted(macs)

    def test_densenet_ordering_by_depth_group(self):
        assert (
            build_model("densenet-264").macs > build_model("densenet-121").macs
        )


class TestModelStructure:
    def test_vgg19_has_16_convs_3_fcs(self):
        model = build_model("vgg-19")
        convs = [l for l in model.layers if l.kind == "conv"]
        fcs = [l for l in model.layers if l.kind == "fc"]
        assert len(convs) == 16
        assert len(fcs) == 3

    def test_mobilenet_v1_has_13_dwconvs(self):
        model = build_model("mobilenet-v1-1.0")
        assert sum(1 for l in model.layers if l.kind == "dwconv") == 13

    def test_resnet50_has_adds(self):
        model = build_model("resnet-50")
        assert sum(1 for l in model.layers if l.kind == "add") == 16

    def test_inception_has_concats(self):
        model = build_model("inception-v1")
        assert sum(1 for l in model.layers if l.kind == "concat") == 9

    def test_inception_v3_input_size(self):
        assert build_model("inception-v3").input_size == 299

    def test_efficientnet_lite_input_sizes_grow(self):
        sizes = [
            build_model(f"efficientnet-lite{v}").input_size for v in range(5)
        ]
        assert sizes == [224, 240, 260, 280, 300]

    def test_vgg_dominates_weight_size(self):
        # Fig 3 annotates model sizes; VGG-19 is by far the largest.
        vgg = build_model("vgg-19").weight_bytes
        for other in ("resnet-50", "mobilenet-v1-1.0", "squeezenet-1.1"):
            assert vgg > 4 * build_model(other).weight_bytes

    def test_squeezenet_tiny_weights(self):
        assert build_model("squeezenet-1.1").weight_bytes < 2e6

    def test_repr(self):
        assert "GMACs" in repr(build_model("resnet-18"))
