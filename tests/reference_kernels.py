"""Frozen old-path kernels: the pre-vectorization implementations.

The PR-6 kernel rework (presorted CART, SoA trace batches, zero-copy
archive loads) promises *bit-identical* outputs to the loops it
replaced.  That promise needs something to compare against, so the
replaced implementations live on here, verbatim:

* :class:`LegacyDecisionTreeClassifier` — the per-node
  argsort-per-candidate-feature CART (one ``np.argsort`` + one
  histogram/cumsum pass per feature per node, per-call ``np.stack`` of
  the node probabilities, dict-traversal ``depth``).
* :func:`legacy_forest_predict_proba` — the tree-by-tree accumulation
  loop that rebuilt the class-column mapping on every call.
* :func:`legacy_resample_loop` — one ``np.interp`` call per trace.
* :func:`legacy_summary_features_loop` — one summary row per call.
* :func:`legacy_stratified_kfold_indices` — the per-sample
  Python-append fold assembly.

One consumer: ``tests/test_kernel_parity.py`` pins the new kernels
against these on the checked-in fixtures and on randomized inputs.
The module lives under ``tests/`` because it is a parity oracle, not
a fallback path; nothing in ``src/`` may import it.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.ml.tree import _resolve_max_features, gini_impurity
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import require_int_in_range


class LegacyDecisionTreeClassifier:
    """The pre-presort CART, kept bit-for-bit as it shipped.

    Same constructor contract as
    :class:`repro.ml.tree.DecisionTreeClassifier`; the only difference
    is *how* the identical tree is computed: per-node stable argsorts
    of every candidate feature column and a Python loop over the
    feature subset.
    """

    def __init__(
        self,
        max_depth: int = 32,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: Union[str, int, float, None] = None,
        seed: RngLike = None,
    ):
        self.max_depth = require_int_in_range(max_depth, 1, 10_000, "max_depth")
        self.min_samples_split = require_int_in_range(
            min_samples_split, 2, 1 << 31, "min_samples_split"
        )
        self.min_samples_leaf = require_int_in_range(
            min_samples_leaf, 1, 1 << 31, "min_samples_leaf"
        )
        self.max_features = max_features
        self._rng = ensure_rng(seed)
        self._children_left: List[int] = []
        self._children_right: List[int] = []
        self._split_feature: List[int] = []
        self._split_threshold: List[float] = []
        self._node_proba: List[np.ndarray] = []
        self.classes_: Optional[np.ndarray] = None
        self.n_features_: Optional[int] = None
        self.feature_importances_: Optional[np.ndarray] = None

    # ----------------------------------------------------------- fit

    def fit(self, X, y) -> "LegacyDecisionTreeClassifier":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y)
        if X.ndim != 2:
            raise ValueError(f"X must be 2-D, got shape {X.shape}")
        if y.shape != (X.shape[0],):
            raise ValueError("y must be 1-D with one label per row of X")
        if X.shape[0] == 0:
            raise ValueError("cannot fit on an empty dataset")
        self.classes_, encoded = np.unique(y, return_inverse=True)
        self.n_features_ = X.shape[1]
        n_classes = self.classes_.size
        self._children_left = []
        self._children_right = []
        self._split_feature = []
        self._split_threshold = []
        self._node_proba = []
        importances = np.zeros(self.n_features_)

        n_subset = _resolve_max_features(self.max_features, self.n_features_)

        def new_node(counts: np.ndarray) -> int:
            index = len(self._children_left)
            self._children_left.append(-1)
            self._children_right.append(-1)
            self._split_feature.append(-1)
            self._split_threshold.append(np.nan)
            self._node_proba.append(counts / counts.sum())
            return index

        stack: List[Tuple[np.ndarray, int, int]] = []
        root_counts = np.bincount(encoded, minlength=n_classes).astype(float)
        root = new_node(root_counts)
        stack.append((np.arange(X.shape[0]), root, 0))

        while stack:
            indices, node, depth = stack.pop()
            counts = self._node_proba[node] * indices.size
            if (
                depth >= self.max_depth
                or indices.size < self.min_samples_split
                or np.count_nonzero(counts) <= 1
            ):
                continue
            split = self._best_split(
                X, encoded, indices, n_classes, n_subset
            )
            if split is None:
                continue
            feature, threshold, gain, left_idx, right_idx = split
            self._split_feature[node] = feature
            self._split_threshold[node] = threshold
            importances[feature] += gain * indices.size
            left_counts = np.bincount(
                encoded[left_idx], minlength=n_classes
            ).astype(float)
            right_counts = np.bincount(
                encoded[right_idx], minlength=n_classes
            ).astype(float)
            left = new_node(left_counts)
            right = new_node(right_counts)
            self._children_left[node] = left
            self._children_right[node] = right
            stack.append((left_idx, left, depth + 1))
            stack.append((right_idx, right, depth + 1))

        total = importances.sum()
        self.feature_importances_ = (
            importances / total if total > 0 else importances
        )
        return self

    def _best_split(self, X, encoded, indices, n_classes, n_subset):
        n = indices.size
        labels = encoded[indices]
        present, labels = np.unique(labels, return_inverse=True)
        n_present = present.size
        parent_counts = np.bincount(labels, minlength=n_present).astype(float)
        parent_gini = gini_impurity(parent_counts)

        one_hot = np.zeros((n, n_present))
        one_hot[np.arange(n), labels] = 1.0
        scratch = np.empty_like(one_hot)
        left_sizes = np.arange(1, n)
        right_sizes = n - left_sizes
        size_valid = (left_sizes >= self.min_samples_leaf) & (
            right_sizes >= self.min_samples_leaf
        )
        if not size_valid.any():
            return None

        features = self._rng.choice(
            self.n_features_, size=n_subset, replace=False
        )
        best = None
        best_gain = 1e-12
        for feature in features:
            column = X[indices, feature]
            order = np.argsort(column, kind="stable")
            sorted_values = column[order]
            distinct = sorted_values[1:] != sorted_values[:-1]
            if not distinct.any():
                continue
            valid = distinct & size_valid
            if not valid.any():
                continue
            np.take(one_hot, order, axis=0, out=scratch)
            np.cumsum(scratch, axis=0, out=scratch)
            left_counts = scratch[:-1]
            right_counts = parent_counts[np.newaxis, :] - left_counts
            weighted = (
                left_sizes * gini_impurity(left_counts)
                + right_sizes * gini_impurity(right_counts)
            ) / n
            weighted = np.where(valid, weighted, np.inf)
            position = int(np.argmin(weighted))
            gain = parent_gini - weighted[position]
            if gain > best_gain:
                threshold = 0.5 * (
                    sorted_values[position] + sorted_values[position + 1]
                )
                if threshold >= sorted_values[position + 1]:
                    threshold = sorted_values[position]
                best_gain = gain
                best = (int(feature), float(threshold), float(gain), position)
        if best is None:
            return None
        feature, threshold, gain, _ = best
        mask = X[indices, feature] <= threshold
        if not mask.any() or mask.all():
            return None
        return feature, threshold, gain, indices[mask], indices[~mask]

    # ------------------------------------------------------- predict

    def _check_fitted(self):
        if self.classes_ is None:
            raise RuntimeError("tree is not fitted; call fit() first")

    def apply(self, X) -> np.ndarray:
        self._check_fitted()
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.n_features_:
            raise ValueError(
                f"X must have shape (n, {self.n_features_}), got {X.shape}"
            )
        nodes = np.zeros(X.shape[0], dtype=np.int64)
        left = np.asarray(self._children_left)
        right = np.asarray(self._children_right)
        feature = np.asarray(self._split_feature)
        threshold = np.asarray(self._split_threshold)
        active = left[nodes] >= 0
        while active.any():
            rows = np.nonzero(active)[0]
            current = nodes[rows]
            goes_left = (
                X[rows, feature[current]] <= threshold[current]
            )
            nodes[rows] = np.where(
                goes_left, left[current], right[current]
            )
            active = left[nodes] >= 0
        return nodes

    def predict_proba(self, X) -> np.ndarray:
        leaves = self.apply(X)
        proba = np.stack(self._node_proba)
        return proba[leaves]

    def predict(self, X) -> np.ndarray:
        proba = self.predict_proba(X)
        return self.classes_[np.argmax(proba, axis=1)]

    @property
    def node_count(self) -> int:
        return len(self._children_left)

    @property
    def depth(self) -> int:
        """The per-call dict-traversal depth this PR replaced."""
        self._check_fitted()
        depths = {0: 0}
        maximum = 0
        for node in range(self.node_count):
            left = self._children_left[node]
            right = self._children_right[node]
            for child in (left, right):
                if child >= 0:
                    depths[child] = depths[node] + 1
                    maximum = max(maximum, depths[child])
        return maximum


def legacy_forest_predict_proba(forest, X) -> np.ndarray:
    """The pre-batching forest reduction, one tree at a time.

    Works against any fitted forest-shaped object exposing ``trees_``
    (each with ``predict_proba`` and ``classes_``), ``classes_`` and
    ``n_estimators`` — i.e. both the new
    :class:`repro.ml.forest.RandomForestClassifier` and ad-hoc legacy
    ensembles assembled from :class:`LegacyDecisionTreeClassifier`.
    """
    X = np.asarray(X, dtype=np.float64)
    n_classes = forest.classes_.size
    total = np.zeros((X.shape[0], n_classes))
    class_index = {value: i for i, value in enumerate(forest.classes_)}
    for tree in forest.trees_:
        proba = tree.predict_proba(X)
        columns = [class_index[value] for value in tree.classes_]
        total[:, columns] += proba
    return total / forest.n_estimators


def legacy_resample_loop(
    values_list: Sequence[np.ndarray], n_features: int
) -> np.ndarray:
    """One ``np.interp`` call per trace — the pre-batch feature path."""
    from repro.core.features import resample_values

    return np.vstack(
        [resample_values(values, n_features) for values in values_list]
    )


def legacy_summary_features_loop(matrix: np.ndarray) -> np.ndarray:
    """Row-by-row summary features, as 2-D callers had to loop them."""
    from repro.core.features import summary_features

    matrix = np.asarray(matrix, dtype=np.float64)
    return np.vstack([summary_features(row) for row in matrix])


def legacy_stratified_kfold_indices(
    y: np.ndarray, n_folds: int, seed: RngLike = None
) -> List[np.ndarray]:
    """The per-sample Python-append fold assembly."""
    from repro.utils.rng import spawn

    y = np.asarray(y)
    n_folds = require_int_in_range(n_folds, 2, y.size, "n_folds")
    rng = spawn(seed, "kfold")
    folds: List[List[int]] = [[] for _ in range(n_folds)]
    for value in np.unique(y):
        members = np.nonzero(y == value)[0]
        members = rng.permutation(members)
        for position, index in enumerate(members):
            folds[position % n_folds].append(int(index))
    return [np.asarray(sorted(fold), dtype=np.int64) for fold in folds]
