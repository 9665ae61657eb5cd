"""Extension bench: is the evaluation robust to the DPU cost model?

The default core uses fixed per-kind efficiencies (conv 0.65, dwconv
0.22, ...); the compiler derives them from first principles by tiling
each layer onto the B4096 array.  The two models disagree in detail
(the naive tiling is harsher on depthwise layers than the DPU's
dedicated depthwise mode), so this bench checks what matters: the
*fingerprinting result* survives swapping the cost model — the attack
is not an artifact of one set of constants.
"""

from conftest import print_table

from repro.core.fingerprint import DnnFingerprinter, FingerprintConfig
from repro.dpu.compiler import DpuCompiler
from repro.dpu.dpu import DpuConfig, DpuCore
from repro.dpu.models import build_model
from repro.dpu.runner import DpuRunner

MODELS = [
    "mobilenet-v1-1.0", "squeezenet-1.1", "efficientnet-lite0",
    "inception-v3", "resnet-50", "vgg-19",
]


def run_ablation():
    compiler = DpuCompiler()
    latency_rows = []
    for name in MODELS:
        model = build_model(name)
        fixed_core = DpuCore()
        derived_core = DpuCore(
            DpuConfig(efficiency=compiler.derive_efficiencies(model))
        )
        latency_rows.append(
            (
                name,
                fixed_core.inference_latency(model) * 1e3,
                derived_core.inference_latency(model) * 1e3,
            )
        )

    scores = {}
    for label, runner in (
        ("fixed", DpuRunner()),
        ("compiled", None),
    ):
        config = FingerprintConfig(
            duration=5.0, traces_per_model=8, n_folds=4, forest_trees=20
        )
        fingerprinter = DnnFingerprinter(runner=runner, config=config)
        if label == "compiled":
            # Per-model derived efficiencies: rebuild the runner's core
            # per model by monkey-free means — collect per model with a
            # model-specific runner.
            from repro.core.traces import TraceSet

            dataset = TraceSet()
            for name in MODELS:
                model = build_model(name)
                core = DpuCore(
                    DpuConfig(
                        efficiency=compiler.derive_efficiencies(model)
                    )
                )
                fingerprinter.runner = DpuRunner(dpu=core)
                for repetition in range(config.traces_per_model):
                    run = fingerprinter.record_run(
                        model,
                        channels=[("fpga", "current")],
                        run_index=repetition,
                    )
                    dataset.add(run[("fpga", "current")])
            scores[label] = fingerprinter.evaluate_channel(dataset).top1
        else:
            datasets = fingerprinter.collect_datasets(
                models=MODELS, channels=[("fpga", "current")]
            )
            scores[label] = fingerprinter.evaluate_channel(
                datasets[("fpga", "current")]
            ).top1
    return latency_rows, scores


def test_compiler_ablation(benchmark):
    latency_rows, scores = benchmark.pedantic(
        run_ablation, rounds=1, iterations=1
    )

    print_table(
        "DPU cost model: inference latency, fixed vs compiled (ms)",
        ("model", "fixed", "compiled"),
        [(n, f"{a:.2f}", f"{b:.2f}") for n, a, b in latency_rows],
    )
    print_table(
        "Fingerprinting top-1 under each cost model (6 models)",
        ("cost model", "top-1"),
        [(k, f"{v:.3f}") for k, v in scores.items()],
    )

    # Latencies agree within a small factor for conv-dominated nets.
    for name, fixed, compiled in latency_rows:
        assert compiled / fixed < 8.0, name
        assert fixed / compiled < 8.0, name
    # The attack conclusion is cost-model independent.
    assert scores["fixed"] > 0.85
    assert scores["compiled"] > 0.85
