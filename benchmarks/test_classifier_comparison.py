"""Extension bench: does the classifier matter, or the channel?

The paper motivates random forests by their fit for high-dimensional
trace features.  This bench reruns a fingerprinting subset with kNN
and multinomial logistic regression.  The nonparametric methods (RF,
kNN) both recover the current-channel signal almost fully; the linear
model lags — raw traces wander in phase, which a linear decision
surface cannot absorb — but still lands ~3x above chance.  And no
classifier rescues the stabilized voltage channel, confirming the leak
lives in the physics, with classifier choice second-order.
"""

import numpy as np
from conftest import print_table

from repro.core.fingerprint import DnnFingerprinter, FingerprintConfig
from repro.ml.forest import RandomForestClassifier
from repro.ml.linear import LogisticRegressionClassifier
from repro.ml.metrics import accuracy
from repro.ml.neighbors import KNeighborsClassifier
from repro.ml.validation import stratified_kfold_indices

MODELS = [
    "mobilenet-v1-1.0", "mobilenet-v2-1.0", "squeezenet-1.1",
    "efficientnet-lite0", "inception-v3", "resnet-50", "vgg-19",
    "densenet-121",
]


def crossval_top1(X, y, factory, n_folds=4, seed=0):
    folds = stratified_kfold_indices(y, n_folds, seed=seed)
    scores = []
    indices = np.arange(y.size)
    for fold in folds:
        mask = np.zeros(y.size, dtype=bool)
        mask[fold] = True
        classifier = factory()
        classifier.fit(X[indices[~mask]], y[indices[~mask]])
        scores.append(accuracy(y[fold], classifier.predict(X[fold])))
    return float(np.mean(scores))


def run_comparison():
    config = FingerprintConfig(
        duration=5.0, traces_per_model=12, n_folds=4, forest_trees=30
    )
    fingerprinter = DnnFingerprinter(config=config)
    datasets = fingerprinter.collect_datasets(
        models=MODELS,
        channels=[("fpga", "current"), ("fpga", "voltage")],
    )
    factories = {
        "random forest": lambda: RandomForestClassifier(
            n_estimators=30, max_depth=32, seed=1
        ),
        "kNN (k=3)": lambda: KNeighborsClassifier(n_neighbors=3),
        "logistic": lambda: LogisticRegressionClassifier(n_iterations=250),
    }
    scores = {}
    for channel, dataset in datasets.items():
        X, y = dataset.to_matrix(config.n_features)
        for name, factory in factories.items():
            scores[(channel[1], name)] = crossval_top1(X, y, factory)
    return scores


def test_classifier_comparison(benchmark):
    scores = benchmark.pedantic(run_comparison, rounds=1, iterations=1)

    classifiers = ("random forest", "kNN (k=3)", "logistic")
    rows = [
        (name,
         f"{scores[('current', name)]:.3f}",
         f"{scores[('voltage', name)]:.3f}")
        for name in classifiers
    ]
    print_table(
        "Classifier ablation: top-1 on 8 models (chance = 0.125)",
        ("classifier", "FPGA current", "FPGA voltage"),
        rows,
    )

    # The nonparametric classifiers extract the signal almost fully...
    assert scores[("current", "random forest")] > 0.75
    assert scores[("current", "kNN (k=3)")] > 0.75
    # ...the linear baseline lags but stays well above chance (0.125)...
    assert scores[("current", "logistic")] > 0.3
    for name in classifiers:
        # ...and none of them rescues the stabilized voltage channel.
        assert scores[("voltage", name)] < scores[("current", name)], name
    # The forest is at least competitive with the best baseline.
    best_baseline = max(
        scores[("current", "kNN (k=3)")],
        scores[("current", "logistic")],
    )
    assert scores[("current", "random forest")] > best_baseline - 0.15
