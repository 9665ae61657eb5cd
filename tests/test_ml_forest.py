"""Tests for the random forest and metrics/validation helpers."""

import numpy as np
import pytest

from repro.ml import (
    RandomForestClassifier,
    accuracy,
    confusion_matrix,
    cross_validate,
    stratified_kfold_indices,
    top_k_accuracy,
)


def make_blobs(n_per_class=40, n_classes=4, d=8, spread=0.8, seed=0):
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(n_classes, d)) * 3
    X = np.vstack(
        [
            centers[c] + spread * rng.normal(size=(n_per_class, d))
            for c in range(n_classes)
        ]
    )
    y = np.repeat(np.arange(n_classes), n_per_class)
    return X, y


class TestForest:
    def test_fits_and_predicts(self):
        X, y = make_blobs()
        forest = RandomForestClassifier(n_estimators=20, seed=0).fit(X, y)
        assert np.mean(forest.predict(X) == y) > 0.95

    def test_generalizes(self):
        X, y = make_blobs(n_per_class=80, seed=1)
        train = np.arange(X.shape[0]) % 2 == 0
        forest = RandomForestClassifier(n_estimators=30, seed=0).fit(
            X[train], y[train]
        )
        assert np.mean(forest.predict(X[~train]) == y[~train]) > 0.9

    def test_proba_shape_and_sum(self):
        X, y = make_blobs()
        forest = RandomForestClassifier(n_estimators=10, seed=0).fit(X, y)
        proba = forest.predict_proba(X)
        assert proba.shape == (X.shape[0], 4)
        np.testing.assert_allclose(proba.sum(axis=1), 1.0, atol=1e-9)

    def test_topk_contains_top1(self):
        X, y = make_blobs()
        forest = RandomForestClassifier(n_estimators=10, seed=0).fit(X, y)
        top1 = forest.predict(X)
        top3 = forest.predict_topk(X, 3)
        np.testing.assert_array_equal(top3[:, 0], top1)

    def test_topk_bounds(self):
        X, y = make_blobs()
        forest = RandomForestClassifier(n_estimators=5, seed=0).fit(X, y)
        with pytest.raises(ValueError):
            forest.predict_topk(X, 99)

    def test_seeded_determinism(self):
        X, y = make_blobs(spread=2.0, seed=3)
        a = RandomForestClassifier(n_estimators=15, seed=7).fit(X, y)
        b = RandomForestClassifier(n_estimators=15, seed=7).fit(X, y)
        np.testing.assert_array_equal(
            a.predict_proba(X), b.predict_proba(X)
        )

    def test_bootstrap_off_uses_full_data(self):
        X, y = make_blobs(seed=4)
        forest = RandomForestClassifier(
            n_estimators=3, bootstrap=False, max_features="all", seed=0
        ).fit(X, y)
        # Without bootstrap or feature subsampling all trees are
        # identical, so the forest equals a single tree.
        p = forest.predict_proba(X)
        q = forest.trees_[0].predict_proba(X)
        np.testing.assert_allclose(p, q)

    def test_forest_beats_single_tree_on_noisy_data(self):
        X, y = make_blobs(n_per_class=120, spread=2.5, seed=5)
        train = np.arange(X.shape[0]) % 2 == 0
        from repro.ml import DecisionTreeClassifier

        tree_score = np.mean(
            DecisionTreeClassifier(max_features="sqrt", seed=0)
            .fit(X[train], y[train])
            .predict(X[~train])
            == y[~train]
        )
        forest_score = np.mean(
            RandomForestClassifier(n_estimators=40, seed=0)
            .fit(X[train], y[train])
            .predict(X[~train])
            == y[~train]
        )
        assert forest_score >= tree_score

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            RandomForestClassifier().predict(np.zeros((1, 3)))

    def test_feature_importances_sum_to_one(self):
        X, y = make_blobs(seed=7)
        forest = RandomForestClassifier(n_estimators=10, seed=0).fit(X, y)
        assert forest.feature_importances_.sum() == pytest.approx(1.0)

    def test_repr(self):
        assert "n_estimators=100" in repr(RandomForestClassifier())


class TestMetrics:
    def test_accuracy(self):
        assert accuracy(np.array([1, 2, 3]), np.array([1, 2, 0])) == (
            pytest.approx(2 / 3)
        )

    def test_accuracy_empty_rejected(self):
        with pytest.raises(ValueError):
            accuracy(np.array([]), np.array([]))

    def test_accuracy_shape_mismatch(self):
        with pytest.raises(ValueError):
            accuracy(np.array([1]), np.array([1, 2]))

    def test_top_k_accuracy(self):
        y = np.array([0, 1, 2])
        topk = np.array([[0, 1], [2, 0], [1, 2]])
        assert top_k_accuracy(y, topk) == pytest.approx(2 / 3)
        assert top_k_accuracy(y, topk, k=1) == pytest.approx(1 / 3)

    def test_top_k_bad_k(self):
        with pytest.raises(ValueError):
            top_k_accuracy(np.array([0]), np.array([[0, 1]]), k=5)

    def test_confusion_matrix(self):
        matrix = confusion_matrix(
            np.array([0, 0, 1, 1]), np.array([0, 1, 1, 1])
        )
        np.testing.assert_array_equal(matrix, [[1, 1], [0, 2]])

    def test_confusion_matrix_with_labels(self):
        matrix = confusion_matrix(
            np.array(["a"]), np.array(["b"]), labels=np.array(["a", "b", "c"])
        )
        assert matrix.shape == (3, 3)
        assert matrix[0, 1] == 1


class TestCrossValidation:
    def test_stratified_folds_cover_everything(self):
        y = np.repeat(np.arange(5), 10)
        folds = stratified_kfold_indices(y, 10, seed=0)
        assert len(folds) == 10
        combined = np.sort(np.concatenate(folds))
        np.testing.assert_array_equal(combined, np.arange(50))

    def test_each_fold_stratified(self):
        y = np.repeat(np.arange(4), 20)
        folds = stratified_kfold_indices(y, 10, seed=0)
        for fold in folds:
            # 2 samples per class per fold.
            values, counts = np.unique(y[fold], return_counts=True)
            assert values.size == 4
            assert np.all(counts == 2)

    def test_cross_validate_scores(self):
        X, y = make_blobs(n_per_class=30, n_classes=6, spread=0.8, seed=8)
        result = cross_validate(
            X,
            y,
            n_folds=5,
            classifier_factory=lambda: RandomForestClassifier(
                n_estimators=15, seed=1
            ),
            seed=0,
        )
        assert result.top1 > 0.9
        assert result.top5 >= result.top1
        assert len(result.top1_per_fold) == 5

    def test_default_factory_is_paper_config(self):
        X, y = make_blobs(n_per_class=6, n_classes=3, spread=0.2, seed=9)
        result = cross_validate(X, y, n_folds=3, seed=0)
        assert 0.0 <= result.top1 <= 1.0

    def test_too_many_folds_rejected(self):
        y = np.arange(4)
        with pytest.raises(ValueError):
            stratified_kfold_indices(y, 10, seed=0)


class TestLockstepMemory:
    def test_table3_cell_growth_peak_stays_small(self):
        """One Table III cell: 5 folds x 30 trees, 58 x 140, 12 classes.

        The grower gathers rows through bootstrap row maps and scores
        in chunks of a fixed element budget, so growing a whole cell
        stays within a few MiB of traced allocations.
        """
        import tracemalloc

        from repro.ml.validation import make_fold_jobs, score_fold_batch

        rng = np.random.default_rng(0)
        y = np.arange(58) % 12
        X = rng.normal(size=(58, 140)) + rng.normal(size=(12, 140))[y]

        def factory():
            return RandomForestClassifier(n_estimators=30, seed=3)

        jobs = make_fold_jobs(
            X, y, n_folds=5, classifier_factory=factory, seed=0
        )
        tracemalloc.start()
        try:
            score_fold_batch(jobs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20, f"peak {peak / 2**20:.2f} MiB"

    def test_trees_own_compact_arrays(self):
        """No fitted tree pins its growth's node table or sample array."""
        from repro.ml.forest import fit_forests

        rng = np.random.default_rng(1)
        y = np.arange(60) % 6
        X = rng.normal(size=(60, 40)) + rng.normal(size=(6, 40))[y]
        jobs = [
            (RandomForestClassifier(n_estimators=6, seed=seed), X[:, :width], y, None)
            for seed, width in ((0, 40), (1, 12))
        ]
        fit_forests(jobs)
        for forest, *_ in jobs:
            for tree in forest.trees_:
                for name in ("_left_arr", "_feature_arr",
                             "_threshold_arr", "_proba_matrix",
                             "feature_importances_", "classes_"):
                    array = getattr(tree, name)
                    assert array.base is None or array.base.nbytes <= array.nbytes, (
                        f"{name} is a view of {array.base.nbytes} bytes"
                    )
