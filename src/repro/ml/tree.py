"""CART decision tree with Gini impurity, implemented on numpy.

The paper's classifier is a random forest "with 100 trees and ...
maximum depth ... 32", using "Gini impurity as the splitting criterion"
(§IV-B).  Without scikit-learn offline, the tree is exact greedy CART
from scratch, with threshold splits and per-node feature subsampling.

Trees grow in lockstep (:func:`grow_trees`), their state in arrays
shared by every tree of one growth: a node table, one depth-first stack
of table rows per tree, and one flat sample array in which each node's
rows are a ``(start, size)`` segment that its split partitions stably
in place.  Per step, every live tree pops its next node that may split
and all of them are scored together (:func:`_split`).  Each tree's
generator gives one candidate-feature ``choice`` per such node, served
from blocks computed across trees (:func:`repro.utils.rng.fill_subsets`)
and rewound to the per-node state at the end, so node numbering, the
RNG stream, tie-breaks and importance order are those of the tree grown
alone.  Scoring sorts each matrix column's integer value ranks (NaN and
the padding row of ragged nodes rank last), which a stable sort orders
exactly as a stable float argsort, and scores every split position
exactly in integers, with no class axis.

The grown tree is bit-identical to the per-node CART in
``tests/reference_kernels.py``: the float Gini criterion is replayed,
as the same IEEE operations in the same order (:func:`_class_sum`), at
every position whose exact score is within its rounding error of the
node's best.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, Union

import numpy as np

from repro.utils.rng import RngLike, SubsetBlocks, SubsetDraws, ensure_rng
from repro.utils.validation import require_int_in_range

#: ``(nodes, features, rows)`` elements of one scoring call; about ten
#: 8-byte arrays of that shape are alive at once.  Larger batches are
#: scored in chunks, which bounds the grower's scratch memory at ~10 MiB
#: whatever the number of trees.
_SCORE_ELEMENTS = 1 << 17

#: Keys of buckets narrower than this sort as ``int32`` (timsort); wider
#: ones by radix on their uint8/uint16 type, whose cost per row is flat:
#: on ``table3``, 16-row keys sort in ~0.6× the radix time, 32-row ~1.4×.
_RADIX_ROWS = 32


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
        self._feature_arr: Optional[np.ndarray] = None
        self._threshold_arr: Optional[np.ndarray] = None
        self._proba_matrix: Optional[np.ndarray] = None
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
        return descend(
            self._left_arr[np.newaxis], self._feature_arr[np.newaxis],
            self._threshold_arr[np.newaxis], X,
        )[0]

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Class-probability estimates, columns ordered as classes_."""
        return self._proba_matrix[self.apply(X)]

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Most probable class per row."""
        return self.classes_[np.argmax(self.predict_proba(X), axis=1)]

    @property
    def node_count(self) -> int:
        """Total nodes in the grown tree (0 before fit)."""
        return 0 if self._left_arr is None else int(self._left_arr.size)


def descend(left, feature, threshold, X: np.ndarray) -> np.ndarray:
    """The leaf each row of ``X`` reaches in each tree, all trees at once.

    The node arrays are ``(trees, nodes)``; a right child's id is its left
    sibling's + 1, and leaves (feature -1, threshold NaN) stay put.
    """
    trees = np.arange(left.shape[0])[:, np.newaxis]
    rows = np.arange(X.shape[0])
    nodes = np.zeros((left.shape[0], X.shape[0]), dtype=np.int64)
    while True:
        children = left[trees, nodes]
        interior = children >= 0
        if not interior.any():
            return nodes
        goes_left = X[rows, feature[trees, nodes]] <= threshold[trees, nodes]
        nodes = np.where(interior, children + ~goes_left, nodes)


def _class_sum(terms: np.ndarray) -> np.ndarray:
    """Sum over the first axis in ``np.add.reduce``'s order; reuses ``terms``.

    numpy reduces fewer than 8 terms in sequence, up to 128 as 8
    interleaved partial sums plus a sequential tail, more by halving at
    a multiple of 8; whole-array adds over a leading class axis replay
    that order.  Zero terms padded after the real ones change no bits
    while the width stays in one block of 8 (below 128).
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


def _dense_ranks(X: np.ndarray) -> np.ndarray:
    """Each value's rank among its column's distinct values; NaN is -1."""
    order = X.argsort(axis=0, kind="stable")
    ordered = np.take_along_axis(X, order, axis=0)
    steps = np.zeros(X.shape, dtype=np.intp)
    steps[1:] = ordered[1:] != ordered[:-1]
    ranks = np.empty_like(steps)
    np.put_along_axis(ranks, order, steps.cumsum(axis=0), axis=0)
    ranks[np.isnan(X)] = -1
    return ranks


def _stack_blocks(tasks) -> Tuple[np.ndarray, np.ndarray, np.ndarray, list]:
    """Every distinct ``(X, codes)`` stacked: one matrix, its value ranks
    (:func:`_dense_ranks`), one code vector, and each task's row offset.

    A trailing all-NaN row is every node's padding row, and narrower
    matrices pad their columns with NaN.  NaN, padding and padded
    columns share the last rank, and the padding row's code is one past
    the last class, so padding sorts after every real row both ways.
    Ranks and codes take the narrowest type that holds them.
    """
    blocks = {}
    for _, X, codes, _ in tasks:
        if (id(X), id(codes)) not in blocks:
            blocks[id(X), id(codes)] = (X, codes, _dense_ranks(X))
    parts = blocks.values()
    n_rows = sum(X.shape[0] for X, _, _ in parts)
    n_codes = 1 + max(int(codes.max()) for _, codes, _ in parts)
    last = 1 + max(int(ranks.max(initial=-1)) for _, _, ranks in parts)
    stacked = np.full((n_rows + 1, max(X.shape[1] for X, _, _ in parts)), np.nan)
    all_ranks = np.full(stacked.shape, last, dtype=np.min_scalar_type(last))
    all_codes = np.full(n_rows + 1, n_codes, dtype=np.min_scalar_type(n_codes))
    starts, start = {}, 0
    for key, (X, codes, ranks) in blocks.items():
        rows = slice(start, start + X.shape[0])
        stacked[rows, :X.shape[1]] = X
        all_ranks[rows, :X.shape[1]] = np.where(ranks < 0, last, ranks)
        all_codes[rows] = codes
        starts[key], start = start, rows.stop
    offsets = [starts[id(X), id(c)] for _, X, c, _ in tasks]
    return stacked, all_ranks, all_codes, offsets


def grow_trees(tasks: Sequence[tuple]) -> None:
    """Fit unfitted trees together, in lockstep.

    Each task is ``(tree, X, codes, rows)``: the tree grows on
    ``X[rows]`` with integer class codes ``codes[rows]``, in that row
    order, which breaks value ties exactly as the row order of a copied
    ``X[rows]`` would (so a bootstrap passes its row map, not a copy).
    Tasks may bring matrices of different widths.  A fitted tree's
    ``classes_`` holds the codes its rows contain.
    """
    if tasks:
        _Lockstep(tasks).run()


class _Lockstep:
    """One lockstep growth, its state in arrays shared by all its trees.

    ``table`` has a row per node: tree, depth, row segment ``(start,
    size)`` of ``samples``, class counts, and once it splits the left
    child's id (the right one's is next), feature and threshold (-1, -1,
    NaN on a leaf).  Row ``t`` is tree ``t``'s root; a tree's rows come
    in id order.  ``stack[t, :top[t]]`` is its depth-first stack of the
    table rows that may split.
    """

    def __init__(self, tasks):
        self.X, self.ranks, self.codes, offsets = _stack_blocks(tasks)
        self.trees = [task[0] for task in tasks]
        self.widths = [task[1].shape[1] for task in tasks]
        self.subsets = SubsetBlocks([
            SubsetDraws(tree._rng, d, _resolve_max_features(tree.max_features, d))
            for tree, d in zip(self.trees, self.widths)
        ])
        self.max_depth, self.min_size, self.leaf = np.array([
            (t.max_depth, max(t.min_samples_split, 2 * t.min_samples_leaf),
             t.min_samples_leaf) for t in self.trees
        ]).T
        self.samples = np.concatenate([
            np.asarray(task[3], dtype=np.intp) + offset
            for task, offset in zip(tasks, offsets)
        ])
        sizes = np.array([len(task[3]) for task in tasks])
        n_trees, n_codes = len(tasks), int(self.codes[-1])
        tagged = np.repeat(np.arange(n_trees), sizes) * (n_codes + 1)
        tagged += self.codes[self.samples]
        counts = np.bincount(tagged, minlength=n_trees * (n_codes + 1))
        self.table = np.empty(4 * n_trees, dtype=[
            ("tree", np.intp), ("depth", np.intp), ("start", np.intp),
            ("size", np.intp), ("left", np.intp), ("feature", np.intp),
            ("threshold", np.float64),
            ("counts", np.min_scalar_type(int(sizes.max())), (n_codes,)),
        ])
        self.used = 0
        self.n_nodes, self.top = np.zeros((2, n_trees), dtype=np.intp)
        self.stack = np.zeros((n_trees, 8), dtype=np.intp)
        self._add(np.arange(n_trees), 0, np.cumsum(sizes) - sizes, sizes,
                  counts.reshape(n_trees, -1)[:, :-1])
        self.importances = np.zeros((n_trees, max(self.widths)))

    def _add(self, owners, depth, starts, sizes, counts) -> np.ndarray:
        """Number, record and stack the same number of new nodes for
        each owner tree, a left child before its right sibling; returns
        each owner's first new id."""
        per = sizes.size // owners.size
        if self.used + sizes.size > self.table.size:
            self.table = np.concatenate([self.table, np.empty_like(self.table)])
        nodes = self.table[self.used:self.used + sizes.size]
        nodes["tree"] = tree = np.repeat(owners, per)
        nodes["depth"], nodes["start"], nodes["size"] = depth, starts, sizes
        nodes["counts"] = counts
        nodes["left"] = nodes["feature"] = -1
        nodes["threshold"] = np.nan
        ids = self.n_nodes[owners]
        self.n_nodes[owners] += per
        pushed = (depth < self.max_depth[tree]) & (sizes >= self.min_size[tree])
        pushed &= np.count_nonzero(counts, axis=1) > 1
        if self.top.max() + per > self.stack.shape[1]:
            self.stack = np.concatenate([self.stack, np.zeros_like(self.stack)], axis=1)
        index = (self.used + np.arange(sizes.size)).reshape(-1, per)
        for push, child in zip(pushed.reshape(-1, per).T, index.T):
            self.stack[owners[push], self.top[owners[push]]] = child[push]
            self.top[owners] += push
        self.used += sizes.size
        return ids

    def run(self) -> None:
        """Per step, pop every live tree's next node and subset and split
        them all, grouped by row count within a power of two; then give
        each tree compact arrays of its own."""
        while self.top.any():
            live = np.flatnonzero(self.top)
            drawn = self.subsets.take(live)
            self.top[live] -= 1
            popped = self.stack[live, self.top[live]]
            size = self.table["size"][popped]
            bucket = np.frexp(size - 1)[1]
            for value in np.unique(bucket):
                group = np.flatnonzero(bucket == value)
                width = size[group].max() * self.subsets.k[live[group]].max()
                step = max(1, _SCORE_ELEMENTS // width)
                for first in range(0, group.size, step):
                    chunk = group[first:first + step]
                    self._split_nodes(popped[chunk], live[chunk], drawn[chunk])
        self.subsets.sync()
        table = self.table[:self.used]
        order = np.argsort(table["tree"], kind="stable")
        groups = np.split(order, np.cumsum(self.n_nodes)[:-1])
        for t, (tree, nodes) in enumerate(zip(self.trees, groups)):
            tree._left_arr = table["left"][nodes]
            tree._feature_arr = table["feature"][nodes]
            tree._threshold_arr = table["threshold"][nodes]
            tree.classes_ = present = np.flatnonzero(table["counts"][t])
            # Exact integer counts over exact node sizes.
            tree._proba_matrix = (
                table["counts"][np.ix_(nodes, present)]
                / table["size"][nodes, np.newaxis]
            )
            tree.n_features_ = width = self.widths[t]
            importance = self.importances[t, :width].copy()
            total = importance.sum()
            tree.feature_importances_ = importance / total if total > 0 else importance

    def _split_nodes(self, nodes, owners, drawn) -> None:
        """Score nodes of different trees together and make their splits."""
        starts, sizes = self.table["start"][nodes], self.table["size"][nodes]
        n = int(sizes.max())
        real = np.arange(n) < sizes[:, np.newaxis]
        rows = self.samples.take(starts[:, np.newaxis] + np.arange(n), mode="clip")
        rows[~real] = self.X.shape[0] - 1
        counts = self.table["counts"][nodes].astype(np.intp)
        k = self.subsets.k[owners]
        split = _split(
            self.X, self.ranks, self.codes, rows, sizes, drawn[:, :k.max()], k,
            counts, self.leaf[owners],
        )
        if split is None:
            return
        picked, feature, threshold, gain, goes_left, left_counts = split
        nodes, owners, starts, sizes, real, rows = (
            array[picked] for array in (nodes, owners, starts, sizes, real, rows)
        )
        # Partition each segment stably in place, left rows first.
        n_left = goes_left.sum(axis=1)
        place = np.where(
            goes_left, goes_left.cumsum(axis=1),
            (real & ~goes_left).cumsum(axis=1) + n_left[:, np.newaxis],
        )
        self.samples[(place + starts[:, np.newaxis] - 1)[real]] = rows[real]
        self.importances[owners, feature] += gain * sizes
        left = self._add(
            owners, self.table["depth"][nodes].repeat(2) + 1,
            np.stack([starts, starts + n_left], axis=1).ravel(),
            np.stack([n_left, sizes - n_left], axis=1).ravel(),
            np.stack([left_counts, counts[picked] - left_counts], axis=1)
            .reshape(2 * picked.size, -1),
        )
        table = self.table
        table["left"][nodes], table["feature"][nodes] = left, feature
        table["threshold"][nodes] = threshold


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


def _split(X, ranks, codes, rows, sizes, features, n_subsets, counts,
           leaf) -> Optional[tuple]:
    """Score ``b`` drawing nodes together; return the splits to make.

    Node ``i`` has ``sizes[i]`` rows (``rows[i]``, then padding), class
    ``counts[i]``, ``min_samples_leaf`` ``leaf[i]`` and candidate
    ``features[i]``, the first ``n_subsets[i]`` real.  Returns None if
    no node splits, else ``(picked, feature, threshold, gain, goes_left,
    left_counts)`` over the nodes that do.

    Per node this is the exact best Gini split over its candidate
    features: every position between distinct sorted values that
    leaves both children at least ``min_samples_leaf`` rows is scored,
    the best position per feature is the first minimum of the weighted
    child impurity ``w``, and the best feature the first maximum of the
    gain in draw order.  The threshold is the midpoint of the two values
    around the winning position (the lower value if rounding lifts the
    midpoint onto the upper one).

    *Sort.*  Rows sort stably by rank, which orders them as a stable
    float argsort would; NaN ranks last with the padding row, and a
    boundary between two NaNs stays valid since NaN ≠ NaN.

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
    b, n = rows.shape
    nodes = np.arange(b)
    leaf = leaf[:, np.newaxis]
    n_present = np.count_nonzero(counts, axis=1)
    n_features = features.shape[1]
    real_features = np.arange(n_features) < n_subsets[:, np.newaxis]

    keys = ranks[rows[:, np.newaxis, :], features[:, :, np.newaxis]]
    order = _stable_order(keys)
    keys = np.take(keys, order + n * np.arange(b * n_features).reshape(b, -1, 1))
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
    by_class = _stable_order(labels)
    by_class += n * np.arange(b * n_features).reshape(b, -1, 1)
    inverse = np.empty(by_class.size, dtype=np.intp)
    inverse[by_class.ravel()] = np.broadcast_to(
        np.arange(n) + (nodes * n)[:, np.newaxis, np.newaxis], by_class.shape
    ).ravel()
    steps = np.take(step, inverse.reshape(b, n_features, n), axis=1)
    np.cumsum(steps, axis=3, out=steps)
    steps = steps[..., :-1]
    left_sizes = np.arange(1, n)
    right_sizes = sizes[:, np.newaxis] - left_sizes
    # Positions past a node's last row divide by zero or negative
    # sizes; they are masked out below.
    with np.errstate(divide="ignore", invalid="ignore"):
        score = steps[0] / left_sizes
        steps[1] += (counts * counts).sum(axis=1)[:, np.newaxis, np.newaxis]
        score += steps[1] / right_sizes[:, np.newaxis, :]
    valid = keys[:, :, 1:] != keys[:, :, :-1]
    valid |= keys[:, :, :-1] == ranks[-1, 0]
    valid &= ((left_sizes >= leaf) & (right_sizes >= leaf))[:, np.newaxis]
    valid &= real_features[:, :, np.newaxis]
    score[~valid] = -np.inf
    floor = score.max(axis=(1, 2)) - 4 * criterion_error_bound(n_present) * sizes
    near = valid & (score >= floor[:, np.newaxis, np.newaxis])
    at_node, at_feature, at_position = np.nonzero(near)
    m = at_node.size
    if m == 0:
        return None

    # Class counts left of every replayed position.
    width = counts.shape[1] + 1
    tagged = labels[at_node, at_feature] + width * np.arange(m)[:, np.newaxis]
    left_counts = np.bincount(
        tagged[np.arange(n) <= at_position[:, np.newaxis]], minlength=m * width
    ).reshape(m, width)[:, :-1]
    parents = counts[at_node]
    present_first = np.argsort(counts == 0, axis=1, kind="stable")[at_node]
    terms = np.take_along_axis(
        np.stack([left_counts, parents - left_counts, parents]),
        present_first[np.newaxis],
        axis=2,
    ).transpose(2, 0, 1)
    left_size = at_position + 1
    replay_sizes = np.stack([left_size, sizes[at_node] - left_size, sizes[at_node]])
    n_classes = n_present[at_node]
    # One reduction order per block of :func:`_class_sum`.
    sum_blocks = np.where(n_classes < 128, n_classes // 8, -n_classes)
    weighted, parent_gini = np.empty((2, m))
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
    at = at_node[firsts], at_feature[firsts]
    gains[at] = parent_gini[firsts] - weighted[firsts]
    winners[at] = firsts
    best = gains.argmax(axis=1)
    gain = gains[nodes, best]
    winner = winners[nodes, best]
    position = at_position[winner]
    feature = features[nodes, best]
    low = X[rows[nodes, order[nodes, best, position]], feature]
    high = X[rows[nodes, order[nodes, best, position + 1]], feature]
    threshold = 0.5 * (low + high)
    threshold = np.where(threshold >= high, low, threshold)

    goes_left = X[rows, feature[:, np.newaxis]] <= threshold[:, np.newaxis]
    n_left = goes_left.sum(axis=1)
    picked = np.flatnonzero((gain > 1e-12) & (n_left > 0) & (n_left < sizes))
    if not picked.size:
        return None
    return (
        picked, feature[picked], threshold[picked], gain[picked],
        goes_left[picked], left_counts[winner[picked]],
    )


def _stable_order(keys: np.ndarray) -> np.ndarray:
    """Stable argsort over the last axis (see :data:`_RADIX_ROWS`)."""
    if keys.shape[-1] < _RADIX_ROWS:
        keys = keys.astype(np.int32)
    return keys.argsort(axis=-1, kind="stable")
