"""CART decision tree with Gini impurity, implemented on numpy.

The paper's fingerprinting classifier is a random forest "with 100
trees and ... maximum depth ... 32", using "Gini impurity as the
splitting criterion" (§IV-B).  scikit-learn is not available offline,
so the tree (and the forest in :mod:`repro.ml.forest`) is implemented
from scratch: exact greedy CART with threshold splits and per-node
random feature subsampling.

The split search is the fit hot path and is fully vectorized
(sklearn-style presorting):

* every feature column is stable-argsorted **once per fit**; each node
  recovers the sorted order of its candidate columns by compacting its
  members out of the global presort (a mask/nonzero pass over the
  candidate columns only — no per-node re-sorting, no carrying
  per-node sorted matrices down the tree);
* all candidate features of a node are scored in **one**
  histogram/cumsum pass over a ``(features, samples, classes)`` tensor
  instead of a Python loop per feature;
* class counts ride the growth stack, split-size vectors are cached by
  node size, and the node-probability matrix is assembled in one
  vectorized division at the end of fit, so ``apply`` /
  ``predict_proba`` do no per-call list-to-array conversion.

The grown tree is bit-identical to the pre-vectorization
implementation (kept as ``LegacyDecisionTreeClassifier`` in
``tests/reference_kernels.py`` and pinned by
``tests/test_kernel_parity.py``): same RNG draw sequence, same
split ordering and tie-breaks, same floating-point operation order in
the impurity math.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

import numpy as np

from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import require_int_in_range


def gini_impurity(counts: np.ndarray) -> np.ndarray:
    """Gini impurity of class-count vectors (last axis = classes)."""
    counts = np.asarray(counts, dtype=np.float64)
    totals = counts.sum(axis=-1, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        proportions = np.where(totals > 0, counts / totals, 0.0)
    return 1.0 - (proportions**2).sum(axis=-1)


def _resolve_max_features(max_features, n_features: int) -> int:
    if max_features is None or max_features == "all":
        return n_features
    if max_features == "sqrt":
        return max(1, int(np.sqrt(n_features)))
    if max_features == "log2":
        return max(1, int(np.log2(n_features)))
    if isinstance(max_features, (int, np.integer)):
        return require_int_in_range(
            int(max_features), 1, n_features, "max_features"
        )
    if isinstance(max_features, float):
        if not (0.0 < max_features <= 1.0):
            raise ValueError("fractional max_features must be in (0, 1]")
        return max(1, int(max_features * n_features))
    raise ValueError(f"unsupported max_features: {max_features!r}")


class DecisionTreeClassifier:
    """A greedy CART classifier.

    Args:
        max_depth: maximum tree depth (root = depth 0).
        min_samples_split: smallest node that may be split further.
        min_samples_leaf: smallest allowed child node.
        max_features: features examined per split — ``"sqrt"`` (the
            random-forest default), ``"log2"``, ``"all"``/``None``, an
            integer count, or a fraction.
        seed: RNG for the per-node feature subsampling.
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
        # Flat node arrays, filled during fit().
        self._children_left: List[int] = []
        self._children_right: List[int] = []
        self._split_feature: List[int] = []
        self._split_threshold: List[float] = []
        self._node_proba: List[np.ndarray] = []
        # Prediction-time caches, built once at the end of fit().
        self._left_arr: Optional[np.ndarray] = None
        self._right_arr: Optional[np.ndarray] = None
        self._feature_arr: Optional[np.ndarray] = None
        self._threshold_arr: Optional[np.ndarray] = None
        self._proba_matrix: Optional[np.ndarray] = None
        self._depth: int = 0
        self.classes_: Optional[np.ndarray] = None
        self.n_features_: Optional[int] = None
        self.feature_importances_: Optional[np.ndarray] = None

    # ----------------------------------------------------------- fit

    def fit(self, X: np.ndarray, y: np.ndarray) -> "DecisionTreeClassifier":
        """Grow the tree on data ``X`` (n, d) and labels ``y`` (n,)."""
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
        n_total = X.shape[0]
        self._children_left = []
        self._children_right = []
        self._split_feature = []
        self._split_threshold = []
        node_counts: List[np.ndarray] = []
        importances = np.zeros(self.n_features_)

        n_subset = _resolve_max_features(self.max_features, self.n_features_)

        # Presort every feature column once; stable sort breaks value
        # ties by row index.  Node index sets stay ascending down the
        # whole tree (children are mask-selections of the parent), so
        # filtering a global column to a node's members preserves
        # exactly the order a per-node stable argsort would produce.
        presorted = np.argsort(X, axis=0, kind="stable")
        # Per-fit scratch reused by every node: node-local class codes
        # addressed by global sample index, the membership flags that
        # filter the presort down to a node, the present-class code
        # remap, and one arange whose slices serve as every index
        # vector a node needs (allocating fresh aranges per node costs
        # more than the node's actual math at this data scale).
        member_scratch = np.zeros(n_total, dtype=bool)
        class_remap = np.empty(n_classes, dtype=np.int64)
        ar = np.arange(max(n_total, self.n_features_, n_classes) + 1)
        # Split-size validity and child-size vectors depend only on the
        # node's sample count, so nodes of equal size share one cached
        # entry: (any_valid, size_valid, left_sizes, right_sizes,
        # left_sizes_col_f64, right_sizes_col_f64).
        size_cache: dict = {}

        def new_node(counts: np.ndarray) -> int:
            index = len(self._children_left)
            self._children_left.append(-1)
            self._children_right.append(-1)
            self._split_feature.append(-1)
            self._split_threshold.append(np.nan)
            node_counts.append(counts)
            return index

        # Iterative depth-first growth (avoids recursion limits at
        # depth 32 x wide trees).  Each entry carries the node's class
        # counts so no node recounts its own labels.
        stack: List[Tuple[np.ndarray, int, int, np.ndarray]] = []
        root_counts = np.bincount(encoded, minlength=n_classes)
        root = new_node(root_counts)
        stack.append((np.arange(n_total), root, 0, root_counts))
        max_depth_seen = 0

        while stack:
            indices, node, depth, counts = stack.pop()
            if (
                depth >= self.max_depth
                or indices.size < self.min_samples_split
                or np.count_nonzero(counts) <= 1
            ):
                continue
            split = self._best_split(
                X,
                encoded,
                indices,
                presorted,
                counts,
                n_subset,
                member_scratch,
                class_remap,
                ar,
                size_cache,
            )
            if split is None:
                continue
            feature, threshold, gain, left_idx, right_idx, left_counts = split
            self._split_feature[node] = feature
            self._split_threshold[node] = threshold
            importances[feature] += gain * indices.size
            right_counts = counts - left_counts
            left = new_node(left_counts)
            right = new_node(right_counts)
            self._children_left[node] = left
            self._children_right[node] = right
            stack.append((left_idx, left, depth + 1, left_counts))
            stack.append((right_idx, right, depth + 1, right_counts))
            if depth + 1 > max_depth_seen:
                max_depth_seen = depth + 1

        total = importances.sum()
        self.feature_importances_ = (
            importances / total if total > 0 else importances
        )
        self._depth = max_depth_seen
        self._left_arr = np.asarray(self._children_left, dtype=np.int64)
        self._right_arr = np.asarray(self._children_right, dtype=np.int64)
        self._feature_arr = np.asarray(self._split_feature, dtype=np.int64)
        self._threshold_arr = np.asarray(
            self._split_threshold, dtype=np.float64
        )
        # One vectorized division builds every node's class
        # probabilities (the count matrix is exact integers, so the
        # row totals equal the per-node float sums bit for bit).
        counts_matrix = np.asarray(node_counts, dtype=np.float64)
        row_totals = counts_matrix.sum(axis=1)
        self._proba_matrix = counts_matrix / row_totals[:, np.newaxis]
        self._node_proba = list(self._proba_matrix)
        return self

    def _best_split(
        self,
        X: np.ndarray,
        encoded: np.ndarray,
        indices: np.ndarray,
        presorted: np.ndarray,
        counts: np.ndarray,
        n_subset: int,
        member_scratch: np.ndarray,
        class_remap: np.ndarray,
        ar: np.ndarray,
        size_cache: dict,
    ):
        """Exact best Gini split over a random feature subset.

        Scores every candidate feature in one pass: the node's sorted
        sample order per candidate feature is recovered by masking the
        global presort down to the node's members (stable, so it
        matches a per-node stable argsort exactly), and one
        ``(features, samples, classes)`` one-hot/cumsum tensor yields
        the class prefix counts of all candidate split positions of
        all candidate features at once.

        The impurity math is inlined rather than routed through
        :func:`gini_impurity`: child class totals are the (exact,
        integer-valued) child sizes, so the guarded
        ``where(totals > 0, ...)`` division collapses to a plain
        division by the cached size vectors — same bits, no per-node
        ``errstate`` entry or totals reduction.

        Returns ``(feature, threshold, impurity_decrease, left, right,
        left_class_counts)`` or ``None`` if no valid split exists.
        """
        n = indices.size
        sizes = size_cache.get(n)
        if sizes is None:
            left_sizes = ar[1:n]
            right_sizes = n - left_sizes
            size_valid = (left_sizes >= self.min_samples_leaf) & (
                right_sizes >= self.min_samples_leaf
            )
            sizes = (
                bool(size_valid.any()),
                size_valid,
                left_sizes,
                right_sizes,
                left_sizes.astype(np.float64)[:, np.newaxis],
                right_sizes.astype(np.float64)[:, np.newaxis],
            )
            size_cache[n] = sizes
        any_valid, size_valid, left_sizes, right_sizes, lsf, rsf = sizes
        if not any_valid:
            return None

        # Work only with the classes present in this node: deep nodes
        # hold few classes, which shrinks the prefix-sum tensor.  The
        # node's counts arrive from the growth stack, so presence and
        # the dense code remap come from them, not a per-node unique().
        present = counts.nonzero()[0]
        n_present = present.size
        if n_present != counts.size:
            class_remap[present] = ar[:n_present]
            parent_counts = counts[present].astype(np.float64)
        else:
            parent_counts = counts.astype(np.float64)
        parent_p = parent_counts / n
        parent_gini = 1.0 - (parent_p**2).sum()

        features = self._rng.choice(
            self.n_features_, size=n_subset, replace=False
        )
        # Two bit-identical routes to the node's per-candidate sorted
        # order (stable sorts break value ties by node position either
        # way); pick by cost.  Small nodes sort their own few rows
        # directly — O(n·k·log n); large nodes filter the global
        # presort, whose mask/nonzero pass is O(N·k) regardless of
        # node size but beats re-sorting wide nodes.
        if 4 * n < member_scratch.size:
            node_values = X[indices[:, np.newaxis], features]
            order = node_values.argsort(axis=0, kind="stable")
            columns = indices[order]
            # Same gather as take_along_axis(..., axis=0) without its
            # per-call Python index assembly.
            sorted_values = node_values[order, ar[np.newaxis, :n_subset]]
        elif n == member_scratch.size:
            # Whole-population node (the root): the presort columns ARE
            # the node's sorted members, no filtering needed.
            columns = presorted[:, features]
            sorted_values = X[columns, features]
        else:
            # Mark members, walk each candidate column in global
            # sorted order, and keep the members (nonzero over the
            # transposed mask yields them feature-major,
            # position-ordered).
            member_scratch[indices] = True
            global_columns = presorted[:, features]
            member_rows = member_scratch[global_columns]
            feature_pos, sorted_pos = np.nonzero(member_rows.T)
            columns = global_columns[sorted_pos, feature_pos].reshape(
                n_subset, n
            ).T
            member_scratch[indices] = False
            sorted_values = X[columns, features]
        # Candidate split positions: between distinct values only (and
        # between legal child sizes; with the default leaf minimum of 1
        # every interior position is legal, so skip the mask there).
        distinct = sorted_values[1:] != sorted_values[:-1]
        if self.min_samples_leaf == 1:
            valid = distinct
        else:
            valid = distinct & size_valid[:, np.newaxis]

        # Class prefix counts for every candidate feature in one
        # cumsum over a one-hot tensor of the sorted class codes (the
        # dense remap is the identity when every class is present).
        sorted_labels = encoded[columns]
        if n_present != counts.size:
            sorted_labels = class_remap[sorted_labels]
        one_hot = np.zeros((n_subset, n, n_present))
        one_hot[
            ar[:n_subset, np.newaxis],
            ar[np.newaxis, :n],
            sorted_labels.T,
        ] = 1.0
        one_hot.cumsum(axis=1, out=one_hot)
        # Child impurities, allocation-lean: the right prefix counts
        # divide in place (they are a fresh array), both proportion
        # tensors square in place, and the weighted-impurity chain
        # reuses its operands.  Every in-place step performs the same
        # IEEE operation on the same values as the out-of-place
        # original, so the scores are bit-identical.
        left_counts = one_hot[:, :-1, :]
        left_p = left_counts / lsf
        right_p = parent_counts - left_counts
        right_p /= rsf
        left_p *= left_p
        right_p *= right_p
        weighted = np.add.reduce(left_p, axis=-1)
        right_sum = np.add.reduce(right_p, axis=-1)
        np.subtract(1.0, weighted, out=weighted)
        weighted *= left_sizes
        np.subtract(1.0, right_sum, out=right_sum)
        right_sum *= right_sizes
        weighted += right_sum
        weighted /= n
        weighted[~valid.T] = np.inf
        positions = weighted.argmin(axis=1)
        gains = parent_gini - weighted[ar[:n_subset], positions]

        # Feature order still breaks ties: scanning candidates in draw
        # order and keeping each strict improvement always ends on the
        # FIRST candidate attaining the maximal gain, which is exactly
        # what argmax returns.  A candidate with no valid position has
        # an all-inf weighted row, hence gain -inf — no separate
        # validity mask needed.
        candidate = int(gains.argmax())
        gain = float(gains[candidate])
        if not gain > 1e-12:
            return None
        position = int(positions[candidate])
        value_low = sorted_values[position, candidate]
        value_high = sorted_values[position + 1, candidate]
        threshold = 0.5 * (value_low + value_high)
        # Guard against float rounding: the midpoint of two very close
        # values can collapse onto the upper one, which would leave the
        # right child empty.  Splitting at the lower value keeps both
        # sides non-empty.
        if threshold >= value_high:
            threshold = value_low
        feature = int(features[candidate])
        threshold = float(threshold)
        mask = X[indices, feature] <= threshold
        n_left = np.count_nonzero(mask)
        if n_left == 0 or n_left == n:
            return None
        # The winning prefix row of the cumsum tensor is the left
        # child's class histogram (exact integer-valued floats), so the
        # caller skips re-bincounting the child's labels.
        left_child_counts = np.zeros(counts.size, dtype=np.int64)
        left_child_counts[present] = one_hot[candidate, position].astype(
            np.int64
        )
        return (
            feature,
            threshold,
            gain,
            indices[mask],
            indices[~mask],
            left_child_counts,
        )

    # ------------------------------------------------------- predict

    def _check_fitted(self):
        if self.classes_ is None:
            raise RuntimeError("tree is not fitted; call fit() first")

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Leaf index each row lands in."""
        self._check_fitted()
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.n_features_:
            raise ValueError(
                f"X must have shape (n, {self.n_features_}), got {X.shape}"
            )
        nodes = np.zeros(X.shape[0], dtype=np.int64)
        left = self._left_arr
        right = self._right_arr
        feature = self._feature_arr
        threshold = self._threshold_arr
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

    @property
    def node_proba_matrix(self) -> np.ndarray:
        """Stacked ``(node_count, n_classes)`` leaf probabilities.

        Built once at fit time; the forest indexes it directly when
        assembling its batched prediction tensor.
        """
        self._check_fitted()
        return self._proba_matrix

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Class-probability estimates, columns ordered as classes_."""
        leaves = self.apply(X)
        return self._proba_matrix[leaves]

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Most probable class per row."""
        proba = self.predict_proba(X)
        return self.classes_[np.argmax(proba, axis=1)]

    @property
    def node_count(self) -> int:
        """Total nodes in the grown tree."""
        return len(self._children_left)

    @property
    def depth(self) -> int:
        """Actual depth of the grown tree (tracked during growth)."""
        self._check_fitted()
        return self._depth
