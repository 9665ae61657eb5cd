"""Extension bench: fingerprinting accuracy as sensor faults rise.

The paper reads healthy sensors.  This bench arms
:meth:`repro.faults.FaultPlan.at_rate` on every sensor at rising rates,
records the four current channels in degraded mode (dead channels are
dropped, not fatal), and evaluates the fused classifier over what
survived.  Each row reports the fused top-1/top-5 and how hard the
resilient sampler worked to contain the faults (retries and gaps).

Headline findings at the default scale:
* top-5 stays perfect at every rate up to 0.4;
* no channel dies, so the fused classifier always sees all four;
* recovery work rises strictly with the rate, from none at rate 0.
Top-1 moves within a few points and is not monotone in the rate.
"""

from repro.core.fingerprint import DnnFingerprinter, FingerprintConfig
from repro.dpu.models import list_models
from repro.session import AttackSession

RATES = (0.0, 0.05, 0.1, 0.2, 0.4)

CHANNELS = (
    ("fpd", "current"),
    ("lpd", "current"),
    ("ddr", "current"),
    ("fpga", "current"),
)

N_MODELS = 6

CONFIG = FingerprintConfig(
    duration=2.0, traces_per_model=6, n_folds=4, forest_trees=20
)


def run_fault_sweep(seed=0):
    models = list_models()[:N_MODELS]
    points = []
    for rate in RATES:
        session = AttackSession.create(seed=seed, faults=rate)
        fingerprinter = DnnFingerprinter(session=session, config=CONFIG)
        datasets = fingerprinter.collect_datasets(
            models=models, channels=CHANNELS, on_dead="drop"
        )
        retries = gaps = 0
        for dataset in datasets.values():
            for trace in dataset:
                if trace.quality is not None:
                    retries += trace.quality.retries
                    gaps += trace.quality.gaps
        fused = fingerprinter.evaluate_fused_degraded(datasets)
        result = fused["result"]
        points.append(
            {
                "rate": rate,
                "top1": result.top1,
                "top5": result.top5,
                "dropped": list(fused["dropped_channels"]),
                "retries": retries,
                "gaps": gaps,
            }
        )
    return points


def test_fault_robustness(benchmark, table_printer):
    points = benchmark.pedantic(run_fault_sweep, rounds=1, iterations=1)

    table_printer(
        f"Fused fingerprinting under sensor faults ({N_MODELS} models, "
        f"{len(CHANNELS)} current channels)",
        ("rate", "top-1", "top-5", "retries", "gaps", "dropped"),
        [
            (
                f"{point['rate']:.2f}",
                f"{point['top1']:.3f}",
                f"{point['top5']:.3f}",
                point["retries"],
                point["gaps"],
                len(point["dropped"]),
            )
            for point in points
        ],
    )

    for point in points:
        assert point["top5"] == 1.0, point
        assert point["dropped"] == [], point
    assert points[0]["retries"] == 0
    assert points[0]["gaps"] == 0
    retries = [point["retries"] for point in points]
    assert all(low < high for low, high in zip(retries, retries[1:])), retries
