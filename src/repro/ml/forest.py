"""Random forest built on the from-scratch CART tree.

Matches the paper's classifier configuration (§IV-B): 100 trees,
maximum depth 32, Gini splitting, bootstrap sampling "so each tree is
trained on a unique subset of data by selecting samples with
replacement", with sqrt-feature subsampling per split (the standard
random-forest recipe the text's RForest refers to).

Tree fitting is embarrassingly parallel and the forest exploits it:
``fit`` draws one integer seed per tree in a single atomic RNG call,
then grows every tree from its own ``default_rng(tree_seed)``.  Each
tree is therefore a pure function of ``(X, y, params, tree_seed)``, so
the trees can grow in lockstep (:func:`repro.ml.tree.grow_trees`) —
all trees of one forest, or all fold forests of a Table III channel at
once (:func:`fit_forests`) — and serial and parallel fits, at any worker
count, produce bit-identical forests (trees, importances, and
predictions).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.ml.tree import DecisionTreeClassifier, check_fit_data, grow_trees
from repro.perf.config import resolve_workers
from repro.perf.executor import in_worker, parallel_map
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import require_int_in_range


def _seeded_trees(params, seeds, rows) -> List[tuple]:
    """``(unfitted tree, training rows)`` per seed.

    Each tree's generator first draws its bootstrap row map, then
    serves the tree's per-node feature draws, which the grower computes
    in blocks ahead but leaves the generator's stream as drawn per node.
    """
    tree_params, bootstrap = params
    trees = []
    for seed in seeds:
        rng = ensure_rng(int(seed))
        sample = rows
        if bootstrap:
            sample = rows[rng.integers(0, rows.size, size=rows.size)]
        trees.append((DecisionTreeClassifier(seed=rng, **tree_params), sample))
    return trees


def _grow_slice_task(task) -> List[DecisionTreeClassifier]:
    """Pool-worker entry: grow one slice of a forest's tree seeds."""
    X, codes, params, seeds = task
    trees = _seeded_trees(params, seeds, np.arange(X.shape[0]))
    grow_trees([(tree, X, codes, rows) for tree, rows in trees])
    return [tree for tree, _ in trees]


def fit_forests(jobs: Sequence[tuple]) -> None:
    """Fit several forests together, all their trees in lockstep.

    Each job is ``(forest, X, y, rows)``: the forest fits on
    ``X[rows]``, ``y[rows]`` (``rows=None`` for all of them), exactly as
    ``forest.fit(X[rows], y[rows])`` would, at any ``n_jobs``.  The
    folds of one CV cell share ``X`` and train on different rows, and
    the cells of one channel bring matrices of different widths;
    batching them multiplies the nodes every scoring step covers.
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
        n_jobs: worker processes for tree fitting; ``None`` honors the
            ``AMPEREBLEED_WORKERS`` environment variable (serial when
            unset), ``0``/negative uses every CPU.  The fitted forest
            is identical at every worker count.
    """

    def __init__(
        self,
        n_estimators: int = 100,
        max_depth: int = 32,
        max_features: Union[str, int, float, None] = "sqrt",
        min_samples_leaf: int = 1,
        bootstrap: bool = True,
        seed: RngLike = None,
        n_jobs: Optional[int] = None,
    ):
        self.n_estimators = require_int_in_range(
            n_estimators, 1, 100_000, "n_estimators"
        )
        self.max_depth = max_depth
        self.max_features = max_features
        self.min_samples_leaf = min_samples_leaf
        self.bootstrap = bool(bootstrap)
        self.n_jobs = n_jobs
        self._rng = ensure_rng(seed)
        self.trees_: List[DecisionTreeClassifier] = []
        self.classes_: Optional[np.ndarray] = None
        self.feature_importances_: Optional[np.ndarray] = None
        # Padded forest-level node arrays for batched prediction,
        # built lazily on first predict after a fit.
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
        workers = resolve_workers(self.n_jobs)
        if workers <= 1 or self.n_estimators <= 1 or in_worker():
            fit_forests([(self, X, y, None)])
            return self
        X, y = check_fit_data(X, y)
        classes, codes = np.unique(y, return_inverse=True)
        slices = np.array_split(
            self._tree_seeds(), min(workers, self.n_estimators)
        )
        parts = parallel_map(
            _grow_slice_task,
            [(X, codes, self._tree_params(), s) for s in slices],
            workers=workers,
        )
        self._adopt(classes, codes, [tree for part in parts for tree in part])
        return self

    def _check_fitted(self):
        if not self.trees_:
            raise RuntimeError("forest is not fitted; call fit() first")

    def _batch_arrays(self) -> Tuple[np.ndarray, ...]:
        """Forest-level node arrays for batched prediction.

        Every tree's flat node arrays are padded to the widest tree:
        children/features pad with -1, thresholds with NaN, and each
        tree's ``(node_count, n_classes)`` probability matrix scatters
        into the forest-wide class columns (bootstrap trees can miss
        rare classes).  Built once per fit; ``predict_proba`` then
        walks all trees simultaneously instead of looping per tree.
        Padding with exact zeros keeps the averaged probabilities
        bit-identical to the old accumulate-into-columns loop (tree
        probabilities are non-negative, so ``x + 0.0`` is exact).
        """
        if self._aligned_probas is None:
            n_trees = len(self.trees_)
            n_classes = self.classes_.size
            class_index = {
                value: i for i, value in enumerate(self.classes_)
            }
            width = max(tree.node_count for tree in self.trees_)
            left = np.full((n_trees, width), -1, dtype=np.int64)
            right = np.full((n_trees, width), -1, dtype=np.int64)
            feature = np.zeros((n_trees, width), dtype=np.int64)
            threshold = np.full((n_trees, width), np.nan)
            proba = np.zeros((n_trees, width, n_classes))
            for position, tree in enumerate(self.trees_):
                count = tree.node_count
                left[position, :count] = tree._left_arr
                right[position, :count] = tree._right_arr
                feature[position, :count] = tree._feature_arr
                threshold[position, :count] = tree._threshold_arr
                columns = [class_index[value] for value in tree.classes_]
                proba[position][
                    np.arange(count)[:, np.newaxis], columns
                ] = tree.node_proba_matrix
            self._aligned_probas = (left, right, feature, threshold, proba)
        return self._aligned_probas

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Forest probability: average of tree probabilities, with each
        tree's (possibly partial) class set mapped onto the forest's.

        Batched: all trees descend together over a ``(n_trees,
        n_samples)`` node frontier, the leaf probabilities gather into
        one ``(n_trees, n_samples, n_classes)`` tensor, and the tree
        axis reduces in one pass (an axis-0 reduce accumulates
        sequentially, matching the old per-tree loop bit for bit).
        """
        self._check_fitted()
        X = np.asarray(X, dtype=np.float64)
        left, right, feature, threshold, proba = self._batch_arrays()
        n_trees = len(self.trees_)
        n_rows = X.shape[0]
        tree_idx = np.arange(n_trees)[:, np.newaxis]
        row_idx = np.arange(n_rows)[np.newaxis, :]
        nodes = np.zeros((n_trees, n_rows), dtype=np.int64)
        while True:
            current_left = left[tree_idx, nodes]
            interior = current_left >= 0
            if not interior.any():
                break
            # Leaf rows read feature -1 / threshold NaN; the NaN
            # comparison is False and ``interior`` pins them in place.
            values = X[row_idx, feature[tree_idx, nodes]]
            goes_left = values <= threshold[tree_idx, nodes]
            descended = np.where(
                goes_left, current_left, right[tree_idx, nodes]
            )
            nodes = np.where(interior, descended, nodes)
        stacked = proba[tree_idx, nodes]
        total = np.add.reduce(stacked, axis=0)
        return total / self.n_estimators

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Majority (probability-averaged) class per row."""
        proba = self.predict_proba(X)
        return self.classes_[np.argmax(proba, axis=1)]

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
