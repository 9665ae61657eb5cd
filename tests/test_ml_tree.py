"""Tests for the CART decision tree."""

import numpy as np
import pytest
from reference_kernels import gini_impurity, tree_depth

from repro.ml.tree import DecisionTreeClassifier


class TestGini:
    """The float criterion the legacy parity tree splits on."""

    def test_pure_node_is_zero(self):
        assert gini_impurity(np.array([10.0, 0.0])) == pytest.approx(0.0)

    def test_balanced_binary(self):
        assert gini_impurity(np.array([5.0, 5.0])) == pytest.approx(0.5)

    def test_uniform_k_classes(self):
        counts = np.full(4, 25.0)
        assert gini_impurity(counts) == pytest.approx(0.75)

    def test_empty_counts(self):
        assert gini_impurity(np.zeros(3)) == pytest.approx(1.0)

    def test_vectorized(self):
        counts = np.array([[10.0, 0.0], [5.0, 5.0]])
        np.testing.assert_allclose(gini_impurity(counts), [0.0, 0.5])


def make_blobs(n_per_class=50, n_classes=3, d=5, spread=0.3, seed=0):
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


class TestFitPredict:
    def test_perfectly_separable_1d(self):
        X = np.array([[0.0], [1.0], [2.0], [10.0], [11.0], [12.0]])
        y = np.array([0, 0, 0, 1, 1, 1])
        tree = DecisionTreeClassifier(seed=0).fit(X, y)
        np.testing.assert_array_equal(tree.predict(X), y)

    def test_training_accuracy_on_blobs(self):
        X, y = make_blobs()
        tree = DecisionTreeClassifier(seed=0).fit(X, y)
        assert np.mean(tree.predict(X) == y) == 1.0

    def test_generalizes_on_blobs(self):
        X, y = make_blobs(n_per_class=100, seed=1)
        train = np.arange(X.shape[0]) % 2 == 0
        tree = DecisionTreeClassifier(seed=0).fit(X[train], y[train])
        assert np.mean(tree.predict(X[~train]) == y[~train]) > 0.9

    def test_string_labels(self):
        X = np.array([[0.0], [1.0], [10.0], [11.0]])
        y = np.array(["cat", "cat", "dog", "dog"])
        tree = DecisionTreeClassifier(seed=0).fit(X, y)
        assert list(tree.predict(X)) == ["cat", "cat", "dog", "dog"]

    def test_single_class(self):
        X = np.zeros((5, 2))
        y = np.ones(5, dtype=int)
        tree = DecisionTreeClassifier(seed=0).fit(X, y)
        assert np.all(tree.predict(X) == 1)
        assert tree.node_count == 1

    def test_constant_features_stay_leaf(self):
        X = np.ones((10, 3))
        y = np.array([0, 1] * 5)
        tree = DecisionTreeClassifier(seed=0).fit(X, y)
        # No valid split: root stays a leaf, predicts the majority tie.
        assert tree.node_count == 1

    def test_max_depth_respected(self):
        X, y = make_blobs(n_per_class=100, n_classes=5, spread=3.0)
        tree = DecisionTreeClassifier(max_depth=3, seed=0).fit(X, y)
        assert tree_depth(tree) <= 3

    def test_min_samples_leaf(self):
        X, y = make_blobs(seed=3)
        tree = DecisionTreeClassifier(min_samples_leaf=10, seed=0).fit(X, y)
        leaf_sizes = []
        leaves = tree.apply(X)
        for leaf in np.unique(leaves):
            leaf_sizes.append(np.sum(leaves == leaf))
        assert min(leaf_sizes) >= 10

    def test_proba_sums_to_one(self):
        X, y = make_blobs(seed=4)
        tree = DecisionTreeClassifier(seed=0).fit(X, y)
        proba = tree.predict_proba(X)
        np.testing.assert_allclose(proba.sum(axis=1), 1.0)

    def test_feature_importances_identify_signal(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(300, 6))
        y = (X[:, 2] > 0).astype(int)  # only feature 2 matters
        tree = DecisionTreeClassifier(seed=0).fit(X, y)
        assert np.argmax(tree.feature_importances_) == 2

    def test_max_features_sqrt(self):
        X, y = make_blobs(d=16, seed=6)
        tree = DecisionTreeClassifier(max_features="sqrt", seed=0).fit(X, y)
        assert np.mean(tree.predict(X) == y) > 0.9

    def test_max_features_variants(self):
        X, y = make_blobs(d=9, seed=7)
        for mf in ("log2", "all", None, 3, 0.5):
            tree = DecisionTreeClassifier(max_features=mf, seed=0).fit(X, y)
            assert tree.node_count >= 1

    def test_bad_max_features(self):
        X, y = make_blobs(seed=8)
        with pytest.raises(ValueError):
            DecisionTreeClassifier(max_features=2.0, seed=0).fit(X, y)
        with pytest.raises(ValueError):
            DecisionTreeClassifier(max_features="cube", seed=0).fit(X, y)


class TestValidation:
    def test_unfitted_predict_raises(self):
        with pytest.raises(RuntimeError, match="not fitted"):
            DecisionTreeClassifier().predict(np.zeros((1, 2)))

    def test_wrong_feature_count_raises(self):
        X, y = make_blobs(seed=9)
        tree = DecisionTreeClassifier(seed=0).fit(X, y)
        with pytest.raises(ValueError):
            tree.predict(np.zeros((2, 99)))

    def test_bad_shapes_rejected(self):
        with pytest.raises(ValueError):
            DecisionTreeClassifier().fit(np.zeros(5), np.zeros(5))
        with pytest.raises(ValueError):
            DecisionTreeClassifier().fit(np.zeros((5, 2)), np.zeros(4))
        with pytest.raises(ValueError):
            DecisionTreeClassifier().fit(np.zeros((0, 2)), np.zeros(0))

    def test_deterministic_with_seed(self):
        X, y = make_blobs(n_classes=4, spread=1.5, seed=10)
        a = DecisionTreeClassifier(max_features="sqrt", seed=3).fit(X, y)
        b = DecisionTreeClassifier(max_features="sqrt", seed=3).fit(X, y)
        np.testing.assert_array_equal(a.predict(X), b.predict(X))
