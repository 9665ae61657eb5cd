"""Extension bench: where do fingerprinting mistakes go?

Table III reports aggregate accuracy; this bench asks *which* models
get confused.  Measured behaviour: mistakes concentrate inside
architecture families (a MobileNet width variant gets mistaken for its
siblings) and, where they cross families, they cross to architecturally
*adjacent* ones — ResNet vs DenseNet, the two residual-conv designs
with near-identical trace shapes.  For an IP thief, family identity is
usually the valuable secret, and it is recovered more reliably than
the exact variant.
"""

import numpy as np
from conftest import print_table

from repro.core.fingerprint import DnnFingerprinter, FingerprintConfig
from repro.dpu.models import build_model, list_models
from repro.ml.forest import RandomForestClassifier
from repro.ml.validation import stratified_kfold_indices


def run_confusion():
    config = FingerprintConfig(
        duration=5.0, traces_per_model=12, n_folds=4, forest_trees=30
    )
    fingerprinter = DnnFingerprinter(config=config)
    datasets = fingerprinter.collect_datasets(
        channels=[("fpga", "current")]
    )
    X, y = datasets[("fpga", "current")].to_matrix(config.n_features)
    family_of = {name: build_model(name).family for name in list_models()}

    folds = stratified_kfold_indices(y, 4, seed=0)
    exact_hits = 0
    family_hits = 0
    total = 0
    cross_family_pairs = {}
    for fold in folds:
        mask = np.zeros(y.size, dtype=bool)
        mask[fold] = True
        forest = RandomForestClassifier(
            n_estimators=30, max_depth=32, seed=1
        )
        forest.fit(X[~mask], y[~mask])
        predictions = forest.predict(X[mask])
        for true, predicted in zip(y[mask], predictions):
            total += 1
            if true == predicted:
                exact_hits += 1
            if family_of[true] == family_of[predicted]:
                family_hits += 1
            else:
                key = (family_of[true], family_of[predicted])
                cross_family_pairs[key] = cross_family_pairs.get(key, 0) + 1
    return (
        exact_hits / total,
        family_hits / total,
        cross_family_pairs,
        total,
    )


def test_family_confusion(benchmark):
    exact, family, cross_pairs, total = benchmark.pedantic(
        run_confusion, rounds=1, iterations=1
    )

    print_table(
        "Exact-variant vs family-level identification (39 models)",
        ("granularity", "accuracy"),
        [
            ("exact variant", f"{exact:.3f}"),
            ("architecture family", f"{family:.3f}"),
        ],
    )
    if cross_pairs:
        worst = sorted(
            cross_pairs.items(), key=lambda item: -item[1]
        )[:5]
        print_table(
            "Cross-family confusions (rare by construction)",
            ("true -> predicted family", "count"),
            [(f"{a} -> {b}", count) for (a, b), count in worst],
        )

    # Family identity is recovered more reliably than the variant...
    assert family > 0.88
    assert family >= exact
    # ...and cross-family mistakes stay a minority of all mistakes.
    cross_total = sum(cross_pairs.values())
    assert cross_total <= (1 - exact) * total * 0.8 + 1
