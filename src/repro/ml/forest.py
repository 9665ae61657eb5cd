"""Random forest built on the from-scratch CART tree.

The paper's classifier (§IV-B): 100 trees, maximum depth 32, Gini
splits, bootstrap sampling "so each tree is trained on a unique subset
of data by selecting samples with replacement", and sqrt-feature
subsampling per split.  ``fit`` draws one integer seed per tree in one
RNG call and grows each tree from its own ``default_rng(tree_seed)``,
so a tree is a pure function of ``(X, y, params, tree_seed)``: trees
grow in lockstep (:func:`repro.ml.tree.grow_trees`), all of one forest
or of every fold forest of a Table III channel (:func:`fit_forests`),
and a forest grown alone or batched with others is bit-identical.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.ml.tree import DecisionTreeClassifier, check_fit_data, descend, grow_trees
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import require_int_in_range


def _seeded_trees(params, seeds, rows) -> List[tuple]:
    """``(unfitted tree, training rows)`` per seed: each tree's generator
    draws its bootstrap row map, then the tree's per-node feature subsets
    (drawn ahead in blocks, its stream left as per-node draws leave it)."""
    tree_params, bootstrap = params
    trees = []
    for seed in seeds:
        rng = ensure_rng(int(seed))
        sample = rows
        if bootstrap:
            sample = rows[rng.integers(0, rows.size, size=rows.size)]
        trees.append((DecisionTreeClassifier(seed=rng, **tree_params), sample))
    return trees


def fit_forests(jobs: Sequence[tuple]) -> None:
    """Fit several forests together, all their trees in lockstep.

    Each job is ``(forest, X, y, rows)``: the forest fits exactly as
    ``forest.fit(X[rows], y[rows])`` would (``rows=None`` for all
    rows).  Batching every fold forest of a channel, over
    matrices of different widths, multiplies the nodes a step scores.
    """
    tasks = []
    fitted = []
    encodings = {}
    for forest, X, y, rows in jobs:
        key = (id(X), id(y))
        if key not in encodings:
            X, y = check_fit_data(X, y)
            encodings[key] = (X,) + tuple(np.unique(y, return_inverse=True))
        X, classes, codes = encodings[key]
        rows = np.arange(X.shape[0]) if rows is None else np.asarray(rows)
        if rows.size == 0:
            raise ValueError("cannot fit on an empty dataset")
        trees = _seeded_trees(forest._tree_params(), forest._tree_seeds(), rows)
        tasks.extend((tree, X, codes, sample) for tree, sample in trees)
        fitted.append((forest, classes, codes[rows], [t for t, _ in trees]))
    grow_trees(tasks)
    for forest, classes, fit_codes, trees in fitted:
        forest._adopt(classes, fit_codes, trees)


class RandomForestClassifier:
    """Bagged CART ensemble with probability averaging.

    Args:
        n_estimators: trees in the forest (paper: 100).
        max_depth: per-tree depth cap (paper: 32).
        max_features: per-split feature subsample (default sqrt).
        min_samples_leaf: smallest allowed leaf.
        bootstrap: draw each tree's training set with replacement.
        seed: RNG seed for bootstraps and feature subsampling.

    A forest fits in one process; parallelism lives a level up, where
    folds and channels fan out (:func:`repro.ml.validation.
    cross_validate`, ``FingerprintAnalyzer.evaluate_table3``).
    """

    def __init__(
        self,
        n_estimators: int = 100,
        max_depth: int = 32,
        max_features: Union[str, int, float, None] = "sqrt",
        min_samples_leaf: int = 1,
        bootstrap: bool = True,
        seed: RngLike = None,
    ):
        self.n_estimators = require_int_in_range(
            n_estimators, 1, 100_000, "n_estimators"
        )
        self.max_depth = max_depth
        self.max_features = max_features
        self.min_samples_leaf = min_samples_leaf
        self.bootstrap = bool(bootstrap)
        self._rng = ensure_rng(seed)
        self.trees_: List[DecisionTreeClassifier] = []
        self.classes_: Optional[np.ndarray] = None
        self.feature_importances_: Optional[np.ndarray] = None
        # Padded node arrays for batched prediction, built on first use.
        self._aligned_probas: Optional[Tuple[np.ndarray, ...]] = None

    def _tree_params(self) -> Tuple[dict, bool]:
        tree_params = {
            "max_depth": self.max_depth,
            "max_features": self.max_features,
            "min_samples_leaf": self.min_samples_leaf,
        }
        return tree_params, self.bootstrap

    def _tree_seeds(self) -> np.ndarray:
        # One atomic draw decouples tree seeds from execution order.
        return self._rng.integers(
            0, np.iinfo(np.int64).max, size=self.n_estimators
        )

    def _adopt(self, labels: np.ndarray, codes: np.ndarray, trees) -> None:
        """Install grown trees (their ``classes_`` still codes into
        ``labels``); ``codes`` are those of the forest's fit rows."""
        for tree in trees:
            tree.classes_ = labels[tree.classes_]
        self.trees_ = list(trees)
        self.classes_ = labels[np.unique(codes)]
        importances = np.zeros(self.trees_[0].n_features_)
        for tree in self.trees_:
            importances += tree.feature_importances_
        self.feature_importances_ = importances / self.n_estimators
        self._aligned_probas = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForestClassifier":
        """Fit all trees on (bootstrapped) views of the data."""
        fit_forests([(self, X, y, None)])
        return self

    def _check_fitted(self):
        if not self.trees_:
            raise RuntimeError("forest is not fitted; call fit() first")

    def _batch_arrays(self) -> Tuple[np.ndarray, ...]:
        """Forest-level node arrays for batched prediction, built once
        per fit: every tree's node arrays padded to the widest tree
        (children with -1, thresholds with NaN), and its leaf
        probabilities scattered into the forest's class columns
        (bootstrap trees can miss rare classes).  Exact zero padding
        keeps the averaged probabilities bit-identical to accumulating
        each tree into its own columns (``x + 0.0`` is exact).
        """
        if self._aligned_probas is None:
            n_trees = len(self.trees_)
            width = max(tree.node_count for tree in self.trees_)
            left = np.full((n_trees, width), -1, dtype=np.int64)
            feature = np.zeros((n_trees, width), dtype=np.int64)
            threshold = np.full((n_trees, width), np.nan)
            proba = np.zeros((n_trees, width, self.classes_.size))
            for position, tree in enumerate(self.trees_):
                count = tree.node_count
                left[position, :count] = tree._left_arr
                feature[position, :count] = tree._feature_arr
                threshold[position, :count] = tree._threshold_arr
                columns = np.searchsorted(self.classes_, tree.classes_)
                proba[position, :count, columns] = tree._proba_matrix.T
            self._aligned_probas = (left, feature, threshold, proba)
        return self._aligned_probas

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Forest probability: average of tree probabilities, with each
        tree's (possibly partial) class set mapped onto the forest's.

        All trees descend together (:func:`repro.ml.tree.descend`), the
        leaf probabilities gather into one ``(n_trees, n_samples,
        n_classes)`` tensor, and the tree axis reduces in one pass (an
        axis-0 reduce accumulates sequentially, matching a per-tree
        loop bit for bit).
        """
        self._check_fitted()
        left, feature, threshold, proba = self._batch_arrays()
        leaves = descend(left, feature, threshold, np.asarray(X, dtype=np.float64))
        stacked = proba[np.arange(len(self.trees_))[:, np.newaxis], leaves]
        return np.add.reduce(stacked, axis=0) / self.n_estimators

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Majority (probability-averaged) class per row."""
        return self.classes_[np.argmax(self.predict_proba(X), axis=1)]

    def predict_topk(self, X: np.ndarray, k: int) -> np.ndarray:
        """The k most probable classes per row, best first."""
        self._check_fitted()
        k = require_int_in_range(k, 1, self.classes_.size, "k")
        proba = self.predict_proba(X)
        order = np.argsort(-proba, axis=1, kind="stable")[:, :k]
        return self.classes_[order]

    def __repr__(self) -> str:
        return (
            f"RandomForestClassifier(n_estimators={self.n_estimators}, "
            f"max_depth={self.max_depth})"
        )
