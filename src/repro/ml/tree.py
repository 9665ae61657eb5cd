"""CART decision tree with Gini impurity, implemented on numpy.

The paper's fingerprinting classifier is a random forest "with 100
trees and ... maximum depth ... 32", using "Gini impurity as the
splitting criterion" (§IV-B).  scikit-learn is not available offline,
so the tree (and the forest in :mod:`repro.ml.forest`) is implemented
from scratch: exact greedy CART with threshold splits and per-node
random feature subsampling.

Trees grow in lockstep (:func:`grow_trees`).  Each tree keeps its own
depth-first stack and generator, whose stream gives one candidate-feature
``choice`` per node the tree tries to split.  The subsets come in blocks
computed across trees (:func:`repro.utils.rng.fill_subsets` mirrors
numpy's Floyd and Fisher–Yates draws on PCG64 words, falling back to
``choice`` for other generators and populations over 10 000) and the
generator is rewound to the per-node state, so node numbering, the RNG
stream, tie-breaks and importance order are those of the tree grown
alone.  Per step, every live tree pops its next such *drawing* node
and all of them are scored together: one stable argsort of the node
values (ragged nodes padded with NaN, which sorts after every real
value), then an exact integer score per split position from cumsums
over the sorted rows, with no class axis (:func:`_split`).  Batching a
forest, or every fold forest of a Table III channel, spreads numpy's
per-call cost over the ~10-row nodes of deep trees.

The grown tree is bit-identical to the per-node implementation
(``LegacyDecisionTreeClassifier`` in ``tests/reference_kernels.py``,
pinned by ``tests/test_kernel_parity.py``): the float Gini criterion
is replayed, as the same IEEE operations on the same values summed in
the same order (:func:`_class_sum`), at every position whose exact
score lies within its proven rounding error of the node's best.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.utils.rng import RngLike, SubsetDraws, ensure_rng, fill_subsets
from repro.utils.validation import require_int_in_range

#: ``(nodes, features, rows)`` elements of one scoring call; about ten
#: 8-byte arrays of that shape are alive at once.  Larger batches are
#: scored in chunks, which bounds the grower's scratch memory at ~10 MiB
#: whatever the number of trees.
_SCORE_ELEMENTS = 1 << 17


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


def check_fit_data(X, y) -> Tuple[np.ndarray, np.ndarray]:
    """``(X, y)`` as a float64 matrix and one label per row."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    if X.ndim != 2:
        raise ValueError(f"X must be 2-D, got shape {X.shape}")
    if y.shape != (X.shape[0],):
        raise ValueError("y must be 1-D with one label per row of X")
    if X.shape[0] == 0:
        raise ValueError("cannot fit on an empty dataset")
    return X, y



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
        # Flat node arrays and leaf probabilities, written by the grower.
        self._left_arr: Optional[np.ndarray] = None
        self._right_arr: Optional[np.ndarray] = None
        self._feature_arr: Optional[np.ndarray] = None
        self._threshold_arr: Optional[np.ndarray] = None
        self._proba_matrix: Optional[np.ndarray] = None
        self._depth: int = 0
        self.classes_: Optional[np.ndarray] = None
        self.n_features_: Optional[int] = None
        self.feature_importances_: Optional[np.ndarray] = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "DecisionTreeClassifier":
        """Grow the tree on data ``X`` (n, d) and labels ``y`` (n,)."""
        X, y = check_fit_data(X, y)
        classes, codes = np.unique(y, return_inverse=True)
        grow_trees([(self, X, codes, np.arange(X.shape[0]))])
        self.classes_ = classes[self.classes_]
        return self

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
        """Total nodes in the grown tree (0 before fit)."""
        return 0 if self._left_arr is None else int(self._left_arr.size)

    @property
    def depth(self) -> int:
        """Actual depth of the grown tree (tracked during growth)."""
        self._check_fitted()
        return self._depth


def _class_sum(terms: np.ndarray) -> np.ndarray:
    """Sum over the first axis in ``np.add.reduce``'s order; reuses ``terms``.

    The Gini sums run over classes, which numpy reduces pairwise:
    fewer than 8 terms in sequence, up to 128 as 8 interleaved partial
    sums plus a sequential tail, more by halving at a multiple of 8.
    Replaying that order with whole-array adds over a leading class
    axis gives the reduction's bits without its per-row loop.  Zero
    terms padded after the real ones change no bits as long as the
    width stays in the same block of 8 (below 128).
    """
    n = terms.shape[0]
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _class_sum(terms[:half]) + _class_sum(terms[half:])
    if n < 8:
        total = terms[0]
        for term in terms[1:]:
            total += term
        return total
    partial = terms[:8]
    tail = n - n % 8
    for start in range(8, tail, 8):
        partial += terms[start:start + 8]
    total = (partial[0] + partial[1]) + (partial[2] + partial[3])
    total += (partial[4] + partial[5]) + (partial[6] + partial[7])
    for term in terms[tail:]:
        total += term
    return total


class _Growth:
    """One tree's growth state: its stack, feature subsets and node records.

    A stack entry is ``(rows, node, depth, class counts, classes
    present)``; only nodes that may split are stacked, since popping
    any other node draws nothing from the generator.  ``subsets``
    serves the generator's per-node draws from blocks filled ahead;
    :meth:`finish` rewinds the generator to the per-node state.
    """

    def __init__(self, tree, n_features, rows, counts):
        self.tree = tree
        self.n_features = n_features
        n_subset = _resolve_max_features(tree.max_features, n_features)
        self.subsets = SubsetDraws(tree._rng, n_features, n_subset)
        self.stack: List[tuple] = []
        self.counts: List[np.ndarray] = []
        self.splits: List[Tuple[int, int, int, float]] = []
        self.importances = [0.0] * n_features
        self.depth = 0
        self.add_node(rows, 0, counts, np.count_nonzero(counts))

    def add_node(self, rows, depth, counts, n_present) -> int:
        """Number a new node and stack it if it may split."""
        node = len(self.counts)
        self.counts.append(counts)
        tree = self.tree
        if (
            depth < tree.max_depth
            and rows.size >= tree.min_samples_split
            and n_present > 1
            and rows.size >= 2 * tree.min_samples_leaf
        ):
            self.stack.append((rows, node, depth, counts, n_present))
        return node

    def pop(self) -> tuple:
        """Pop the next drawing node with its candidate features, the
        next row of a block :func:`fill_subsets` refilled this step:
        ``(self, rows, node, depth, counts, n_present, features)``."""
        return (self,) + self.stack.pop() + (self.subsets.take(),)

    def finish(self) -> None:
        """Rewind the generator over the subsets drawn ahead, then write
        the flat node arrays and importances onto the tree."""
        self.subsets.sync()
        tree = self.tree
        count = len(self.counts)
        links = np.full((3, count), -1, dtype=np.int64)
        threshold = np.full(count, np.nan)
        if self.splits:
            nodes, lefts, features, thresholds = map(
                np.asarray, zip(*self.splits)
            )
            links[:, nodes] = lefts, lefts + 1, features
            threshold[nodes] = thresholds
        tree._left_arr, tree._right_arr, tree._feature_arr = links
        tree._threshold_arr = threshold
        counts = np.asarray(self.counts, dtype=np.float64)
        present = np.flatnonzero(counts[0])
        counts = counts[:, present]
        importances = np.asarray(self.importances)
        total = importances.sum()
        tree.classes_ = present
        tree.n_features_ = self.n_features
        tree.feature_importances_ = (
            importances / total if total > 0 else importances
        )
        tree._depth = self.depth
        # Exact integer counts, so the row totals are exact too.
        tree._proba_matrix = counts / counts.sum(axis=1)[:, np.newaxis]


def _stack_blocks(tasks) -> Tuple[np.ndarray, np.ndarray, List[int]]:
    """One matrix and code vector over every distinct ``(X, codes)``.

    A trailing all-NaN row serves as the padding row of every node;
    narrower matrices pad their columns with NaN (no tree reads them).
    The padding row's code is one past the last class code, so it
    sorts after every real row by class too.  Returns the stacked
    matrix, the codes (the narrowest integer type that holds them) and
    each task's row offset.
    """
    blocks = {}
    for _, X, codes, _ in tasks:
        blocks.setdefault((id(X), id(codes)), (X, codes))
    n_rows = sum(X.shape[0] for X, _ in blocks.values())
    width = max(X.shape[1] for X, _ in blocks.values())
    n_codes = 1 + max(int(codes.max()) for _, codes in blocks.values())
    stacked = np.full((n_rows + 1, width), np.nan)
    all_codes = np.full(n_rows + 1, n_codes, dtype=np.min_scalar_type(n_codes))
    starts = {}
    start = 0
    for key, (X, codes) in blocks.items():
        stacked[start:start + X.shape[0], :X.shape[1]] = X
        all_codes[start:start + X.shape[0]] = codes
        starts[key] = start
        start += X.shape[0]
    return stacked, all_codes, [starts[id(X), id(c)] for _, X, c, _ in tasks]


def grow_trees(tasks: Sequence[tuple]) -> None:
    """Fit unfitted trees together, in lockstep.

    Each task is ``(tree, X, codes, rows)``: the tree grows on
    ``X[rows]`` with integer class codes ``codes[rows]``, in that row
    order, which breaks value ties exactly as the row order of a copied
    ``X[rows]`` would (so a bootstrap passes its row map, not a copy).
    Tasks may bring matrices of different widths.  A fitted tree's
    ``classes_`` holds the codes its rows contain.
    """
    if not tasks:
        return
    X, codes, offsets = _stack_blocks(tasks)
    n_codes = int(codes[-1])
    growths = []
    for (tree, X_task, _, rows), offset in zip(tasks, offsets):
        rows = np.asarray(rows, dtype=np.int64) + offset
        counts = np.bincount(codes[rows], minlength=n_codes)
        growths.append(_Growth(tree, X_task.shape[1], rows, counts))
    live = [growth for growth in growths if growth.stack]
    while live:
        fill_subsets([growth.subsets for growth in live])
        # Nodes of one group share a padded row axis: their row counts
        # lie within one power of two.
        groups = {}
        for growth in live:
            entry = growth.pop()
            groups.setdefault((entry[1].size - 1).bit_length(), []).append(entry)
        for group in groups.values():
            width = max(entry[1].size for entry in group)
            width *= max(entry[6].size for entry in group)
            step = max(1, _SCORE_ELEMENTS // width)
            for start in range(0, len(group), step):
                _split(X, codes, group[start:start + step])
        live = [growth for growth in live if growth.stack]
    for growth in growths:
        growth.finish()


def criterion_error_bound(n_classes):
    """``γ(k + 6)``: how far the float criterion can be from the exact
    one at a node of ``k`` classes (derived in :func:`_split`)."""
    steps = (np.asarray(n_classes) + 6) * 2.0**-53
    return steps / (1.0 - steps)


def _float_criterion(counts: np.ndarray, sizes: np.ndarray):
    """The shipped float criterion: ``(weighted child Gini, parent Gini)``.

    ``counts`` is ``(classes, 3, m)``: the left, right and parent class
    counts of ``m`` split positions, present classes first in ascending
    code order and zero-padded within one block of :func:`_class_sum`;
    ``sizes`` is ``(3, m)``: left, right and node row counts.  Every
    step is the IEEE operation of the per-node CART, in its order.
    """
    squares = counts / sizes
    squares *= squares
    gini = _class_sum(squares)
    np.subtract(1.0, gini, out=gini)
    weighted = gini[0] * sizes[0]
    weighted += gini[1] * sizes[1]
    weighted /= sizes[2]
    return weighted, gini[2]


def _split(X: np.ndarray, codes: np.ndarray, chunk: Sequence[tuple]) -> None:
    """Score one chunk of drawing nodes together and apply the splits.

    Per node this is the exact best Gini split over its candidate
    features: every position between distinct sorted values that
    leaves both children at least ``min_samples_leaf`` rows is scored,
    the best position per feature is the first minimum of the weighted
    child impurity ``w``, and the best feature the first maximum of the
    gain in draw order.  The threshold is the midpoint of the two values
    around the winning position (the lower value if rounding lifts the
    midpoint onto the upper one).

    *Search.*  With ``S`` the sum of squared class counts, exactly ``w*
    = 1 − (S_l/n_l + S_r/n_r)/n``.  Along sorted rows ``S_l`` grows by
    ``2·r + 1``, ``r`` being the row's rank within its class, and ``S_r
    = S_P − 2·cumsum(P[label]) + S_l``: integer cumsums, no class axis.

    *Replay.*  With ``u = 2⁻⁵³``, ``γ(j) = j·u/(1 − j·u)`` and ``k``
    classes, ``|w − w*| ≤ E = γ(k + 6)`` at any node size (``n <
    2⁵³``): each ``p²`` takes two roundings and the sum of ``k`` of
    them ``k − 1`` more (``Σp²`` is off by ``γ(k + 1)``); ``1 − Σp²``
    and the product with ``n_l`` or ``n_r`` two more; their sum and the
    division by ``n`` two more.  A feature wins only if its gain
    ``fl(gini − w)`` rounds to the best gain, so its least ``w`` is
    within ``2u`` (an ulp below 2) of the node's least, which is within
    ``E`` of the least ``w*``: its minimal positions have ``w*`` within
    ``2E + 2u`` of the best.  The float score ``S_l/n_l + S_r/n_r`` is
    off by ``γ(2)·n`` at most.  So every valid position whose score is
    within ``4E·n`` of its node's best (``E ≥ γ(8)`` covers the rest)
    is replayed through :func:`_float_criterion` and every other one
    counts as ``w = inf``: each feature that can win sees all its
    minimal positions, and no other feature can win.  The winner's left
    class counts come from the replay.
    """
    b = len(chunk)
    nodes = np.arange(b)
    sizes = np.array([entry[1].size for entry in chunk])
    n = int(sizes.max())
    real = np.arange(n) < sizes[:, np.newaxis]
    rows = np.full((b, n), X.shape[0] - 1)
    rows[real] = np.concatenate([entry[1] for entry in chunk])
    n_subsets = np.array([entry[6].size for entry in chunk])
    n_features = int(n_subsets.max())
    real_features = np.arange(n_features) < n_subsets[:, np.newaxis]
    features = np.zeros(real_features.shape, dtype=np.int64)
    features[real_features] = np.concatenate([entry[6] for entry in chunk])
    leaf = np.array([[entry[0].tree.min_samples_leaf] for entry in chunk])
    counts = np.stack([entry[4] for entry in chunk])
    n_present = np.array([entry[5] for entry in chunk])

    values = X[rows[:, np.newaxis, :], features[:, :, np.newaxis]]
    order = values.argsort(axis=2, kind="stable")
    values = np.take(values, order + n * np.arange(b * n_features).reshape(b, -1, 1))
    labels = np.take(codes[rows], order + (nodes * n)[:, np.newaxis, np.newaxis])

    # In class order every feature of a node reads the same rows: class
    # 0's ranked 0, 1, ..., then class 1's, ..., then the padding.  A
    # row at place q of class c steps S_l by 2·(q − start_c) + 1 and
    # S_r − S_P by 2·(q − end_c) + 1; both go back to value order
    # through the inverse of the class sort.
    blocks = np.concatenate([counts, (n - sizes)[:, np.newaxis]], axis=1)
    ends = blocks.cumsum(axis=1)
    bounds = np.stack([ends - blocks, ends]).reshape(2, -1)
    step = 2 * (np.arange(b * n) % n - np.repeat(bounds, blocks.ravel(), axis=1)) + 1
    by_class = labels.argsort(axis=2, kind="stable").reshape(b * n_features, n)
    inverse = np.empty_like(by_class)
    inverse[np.arange(b * n_features)[:, np.newaxis], by_class] = (
        np.arange(n) + np.repeat(nodes * n, n_features)[:, np.newaxis]
    )
    steps = np.take(step, inverse, axis=1)
    np.cumsum(steps, axis=2, out=steps)
    steps = steps.reshape(2, b, n_features, n)[..., :-1]
    left_sizes = np.arange(1, n)
    right_sizes = sizes[:, np.newaxis] - left_sizes
    # Positions past a node's last row divide by zero or negative
    # sizes; they are masked out below.
    with np.errstate(divide="ignore", invalid="ignore"):
        score = steps[0] / left_sizes
        steps[1] += (counts * counts).sum(axis=1)[:, np.newaxis, np.newaxis]
        score += steps[1] / right_sizes[:, np.newaxis, :]
    valid = values[:, :, 1:] != values[:, :, :-1]
    valid &= ((left_sizes >= leaf) & (right_sizes >= leaf))[:, np.newaxis]
    valid &= real_features[:, :, np.newaxis]
    score[~valid] = -np.inf
    floor = score.max(axis=(1, 2)) - 4 * criterion_error_bound(n_present) * sizes
    near = valid & (score >= floor[:, np.newaxis, np.newaxis])
    at_node, at_feature, at_position = np.nonzero(near)
    m = at_node.size
    if m == 0:
        return

    # Class counts left of every replayed position.
    width = counts.shape[1] + 1
    tagged = labels[at_node, at_feature] + width * np.arange(m)[:, np.newaxis]
    left_counts = np.bincount(
        tagged[np.arange(n) <= at_position[:, np.newaxis]], minlength=m * width
    ).reshape(m, width)[:, :-1]
    parents = counts[at_node]
    present_first = np.argsort(parents == 0, axis=1, kind="stable")
    terms = np.take_along_axis(
        np.stack([left_counts, parents - left_counts, parents]),
        present_first[np.newaxis],
        axis=2,
    ).transpose(2, 0, 1).astype(np.float64)
    left_size = at_position + 1
    replay_sizes = np.stack([left_size, sizes[at_node] - left_size, sizes[at_node]])
    n_classes = n_present[at_node]
    # One reduction order per block of :func:`_class_sum`.
    sum_blocks = np.where(n_classes < 128, n_classes // 8, -n_classes)
    weighted = np.empty(m)
    parent_gini = np.empty(m)
    for block in np.unique(sum_blocks).tolist():
        pick = np.flatnonzero(sum_blocks == block)
        weighted[pick], parent_gini[pick] = _float_criterion(
            terms[:n_classes[pick].max(), :, pick], replay_sizes[:, pick]
        )

    # Per (node, feature) the first replayed minimum; replayed
    # positions come in (node, feature, position) order.
    pair = at_node * n_features + at_feature
    by_pair = np.lexsort((weighted, pair))
    firsts = by_pair[np.flatnonzero(np.diff(pair, prepend=-1))]
    gains = np.full((b, n_features), -np.inf)
    winners = np.zeros((b, n_features), dtype=np.int64)
    gains[at_node[firsts], at_feature[firsts]] = (
        parent_gini[firsts] - weighted[firsts]
    )
    winners[at_node[firsts], at_feature[firsts]] = firsts
    best = gains.argmax(axis=1)
    gain = gains[nodes, best]
    winner = winners[nodes, best]
    position = at_position[winner]
    low = values[nodes, best, position]
    high = values[nodes, best, position + 1]
    threshold = 0.5 * (low + high)
    threshold = np.where(threshold >= high, low, threshold)
    feature = features[nodes, best]

    goes_left = X[rows, feature[:, np.newaxis]] <= threshold[:, np.newaxis]
    n_left = goes_left.sum(axis=1)
    child_counts = left_counts[winner]
    right_counts = counts - child_counts
    left_present = np.count_nonzero(child_counts, axis=1).tolist()
    right_present = np.count_nonzero(right_counts, axis=1).tolist()
    left_rows = rows[goes_left]
    right_rows = rows[real & ~goes_left]
    left_end = np.cumsum(n_left).tolist()
    right_end = np.cumsum(sizes - n_left).tolist()
    accepted = (gain > 1e-12) & (n_left > 0) & (n_left < sizes)
    gain, feature, threshold, n_left, sizes = (
        array.tolist() for array in (gain, feature, threshold, n_left, sizes)
    )
    for i in np.flatnonzero(accepted).tolist():
        growth, _, node, depth = chunk[i][:4]
        growth.importances[feature[i]] += gain[i] * sizes[i]
        depth += 1
        left = growth.add_node(
            left_rows[left_end[i] - n_left[i]:left_end[i]],
            depth, child_counts[i], left_present[i],
        )
        growth.add_node(
            right_rows[right_end[i] - sizes[i] + n_left[i]:right_end[i]],
            depth, right_counts[i], right_present[i],
        )
        growth.splits.append((node, left, feature[i], threshold[i]))
        growth.depth = max(growth.depth, depth)
