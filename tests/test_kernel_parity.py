"""Bit-parity pins for the vectorized batch kernels.

Every batch kernel — lockstep CART growth, batched forest prediction,
grouped trace resampling, vectorized stratified folds, memory-mapped
archive loads — is pinned here against its frozen legacy twin in
``tests/reference_kernels.py``, twice over:

* on the checked-in fixture archives (``tests/data/collect_seed3``,
  ``tests/data/traceset``) so the comparison covers real recorded
  traces, not just synthetic noise;
* on randomized inputs across seeds, shapes, and hyperparameters.

"Parity" always means *bitwise*: exact array equality, never
``allclose``.  The legacy implementations define correctness; any
difference is a bug in the fast path.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from reference_kernels import (
    LegacyDecisionTreeClassifier,
    legacy_forest_predict_proba,
    legacy_resample_loop,
    legacy_stratified_kfold_indices,
    tree_depth,
)

from repro.core.features import resample_batch
from repro.core.io import TraceArchiveReader, TraceArchiveWriter
from repro.core.traces import Trace
from repro.ml.forest import RandomForestClassifier, fit_forests
from repro.ml.tree import (
    _RADIX_ROWS,
    DecisionTreeClassifier,
    _class_sum,
    _stable_order,
    _stack_blocks,
    grow_trees,
)
from repro.ml.validation import (
    make_fold_jobs,
    score_fold,
    score_fold_batch,
    stratified_kfold_indices,
)
from repro.utils.rng import (
    BLOCK_ROWS,
    SubsetBlocks,
    SubsetDraws,
    ensure_rng,
    fill_subsets,
)

DATA = Path(__file__).parent / "data"
COLLECT_FIXTURE = DATA / "collect_seed3"
TRACESET_FIXTURE = DATA / "traceset"


def _fixture_values():
    """All value series from both fixtures, as float64 arrays."""
    traces = list(TraceArchiveReader(COLLECT_FIXTURE).load_traceset()) + list(
        TraceArchiveReader(TRACESET_FIXTURE).load_traceset()
    )
    return [np.asarray(trace.values, dtype=np.float64) for trace in traces]


def _fixture_matrix(n_features=64):
    return resample_batch(_fixture_values(), n_features)


def _assert_bitwise(old, new, context):
    old = np.asarray(old)
    new = np.asarray(new)
    assert old.shape == new.shape, context
    assert np.array_equal(old, new), (
        f"{context}: max abs diff "
        f"{np.max(np.abs(old - new)) if old.size else 0.0}"
    )


# ------------------------------------------------------------ resample


class TestResampleParity:
    @pytest.mark.parametrize("n_features", [1, 2, 16, 64, 160, 333])
    def test_fixture_traces(self, n_features):
        values_list = _fixture_values()
        old = legacy_resample_loop(values_list, n_features)
        new = resample_batch(values_list, n_features)
        _assert_bitwise(old, new, f"resample fixtures @ {n_features}")

    def test_randomized(self):
        for seed in range(5):
            rng = ensure_rng(seed)
            lengths = rng.integers(1, 400, size=30)
            # Force repeated lengths so the grouped path actually
            # batches, plus the degenerate single-sample case.
            lengths[::3] = 37
            lengths[1] = 1
            values_list = [rng.normal(size=int(n)) for n in lengths]
            n_features = int(rng.integers(1, 200))
            old = legacy_resample_loop(values_list, n_features)
            new = resample_batch(values_list, n_features)
            _assert_bitwise(old, new, f"resample seed={seed}")

    def test_rejects_empty_trace(self):
        with pytest.raises(ValueError):
            resample_batch([np.array([])], 8)


# ---------------------------------------------------------------- tree


def _tree_pair(X, y, seed, **params):
    old = LegacyDecisionTreeClassifier(seed=seed, **params).fit(X, y)
    new = DecisionTreeClassifier(seed=seed, **params).fit(X, y)
    return old, new


def _assert_tree_parity(old, new, X_eval, context):
    assert old.node_count == new.node_count, context
    assert old.depth == tree_depth(new), context
    _assert_bitwise(old.classes_, new.classes_, context)
    # Every node, including those no row of X_eval reaches: children,
    # split feature, threshold bits and leaf probabilities, the tree's
    # present classes mapped onto the legacy columns.
    _assert_bitwise(old._children_left, new._left_arr, context)
    _assert_bitwise(
        old._children_right,
        np.where(new._left_arr < 0, -1, new._left_arr + 1),
        context,
    )
    _assert_bitwise(old._split_feature, new._feature_arr, context)
    _assert_bitwise(
        np.asarray(old._split_threshold).view(np.int64),
        new._threshold_arr.view(np.int64),
        context,
    )
    columns = np.searchsorted(old.classes_, new.classes_)
    _assert_bitwise(
        np.stack(old._node_proba)[:, columns], new._proba_matrix, context
    )
    _assert_bitwise(
        old.feature_importances_, new.feature_importances_, context
    )
    _assert_bitwise(
        old.predict_proba(X_eval), new.predict_proba(X_eval), context
    )
    _assert_same_state(old._rng, new._rng, context)


def _assert_same_state(old_rng, new_rng, context):
    """The whole bit-generator state, buffered half included."""
    np.testing.assert_equal(
        new_rng.bit_generator.state, old_rng.bit_generator.state, context
    )


def _fixture_problem(n_rows=36, seed=0):
    """A labeled dataset grown from the fixture traces.

    Each fixture trace contributes its resampled profile plus seeded
    jitter, so the matrix has the real traces' structure while giving
    the trees enough rows to grow several levels deep.
    """
    base = _fixture_matrix(n_features=24)
    rng = ensure_rng(seed)
    rows = []
    labels = []
    for i in range(n_rows):
        source = i % base.shape[0]
        rows.append(base[source] + rng.normal(scale=0.5, size=base.shape[1]))
        labels.append(f"trace-{source}")
    return np.asarray(rows), np.asarray(labels)


class TestTreeParity:
    def test_fixture_problem(self):
        X, y = _fixture_problem()
        old, new = _tree_pair(X, y, seed=3, max_features="sqrt")
        _assert_tree_parity(old, new, X, "tree on fixture problem")

    def test_randomized(self):
        for seed in range(8):
            rng = ensure_rng(100 + seed)
            n = int(rng.integers(4, 120))
            d = int(rng.integers(1, 40))
            k = int(rng.integers(2, 9))
            X = rng.normal(size=(n, d))
            # Duplicate some rows so ties and zero-gain splits occur.
            if n > 6:
                X[-3:] = X[:3]
            y = rng.integers(0, k, size=n)
            params = {
                "max_features": [None, "sqrt", 0.5][seed % 3],
                "min_samples_leaf": 1 + seed % 3,
                "max_depth": [32, 3][seed % 2],
            }
            old, new = _tree_pair(X, y, seed=seed, **params)
            X_eval = rng.normal(size=(25, d))
            _assert_tree_parity(old, new, X_eval, f"tree seed={seed}")

    def test_randomized_many_classes(self):
        """9-16 classes: nodes cross numpy's 8-wide summation switch."""
        for seed in range(8):
            rng = ensure_rng(300 + seed)
            n = int(rng.integers(40, 160))
            d = int(rng.integers(2, 40))
            k = int(rng.integers(9, 17))
            X = rng.normal(size=(n, d))
            X[-4:] = X[:4]
            y = rng.integers(0, k, size=n)
            params = {
                "max_features": [None, "sqrt", 0.5][seed % 3],
                "min_samples_leaf": 1 + seed % 3,
                "max_depth": [32, 3][seed % 2],
            }
            old, new = _tree_pair(X, y, seed=seed, **params)
            X_eval = rng.normal(size=(25, d))
            _assert_tree_parity(old, new, X_eval, f"tree k={k} seed={seed}")

    def test_depth_matches_legacy_traversal(self):
        X, y = _fixture_problem(seed=7)
        old, new = _tree_pair(X, y, seed=11, max_features="sqrt")
        assert tree_depth(new) == old.depth
        assert tree_depth(new) >= 1


class TestGrowerEdges:
    """Inputs at the edges of the array-state grower: NaN beside the
    padding row, signed zeros, duplicate rows, the sort dispatch, wide
    rank types, unsplittable roots, depth 1 and task order."""

    def test_nan_rows_next_to_the_padding_row(self):
        for seed in range(4):
            rng = ensure_rng(700 + seed)
            X = np.round(rng.normal(size=(40, 5)), 1)
            X[rng.random(X.shape) < 0.25] = np.nan
            X[:, 4] = np.nan
            X[30:] = X[:10]
            y = rng.integers(0, 3, size=40)
            old, new = _tree_pair(X, y, seed=seed, max_features=[None, 2][seed % 2])
            _assert_tree_parity(old, new, X, f"NaN seed={seed}")
            forest = RandomForestClassifier(
                n_estimators=4, max_features=None, seed=seed
            ).fit(X, y)
            _assert_forest_matches_legacy(
                forest, X, y, np.arange(y.size), seed, f"NaN forest seed={seed}"
            )

    def test_signed_zero_ties(self):
        tiny = np.finfo(np.float64).smallest_subnormal
        values = np.array([-0.0, 0.0, tiny, 2 * tiny, -tiny, 1.0, -1.0])
        for seed in range(4):
            rng = ensure_rng(710 + seed)
            X = rng.choice(values, size=(36, 4))
            y = rng.integers(0, 2, size=36)
            old, new = _tree_pair(X, y, seed=seed)
            _assert_tree_parity(old, new, X, f"signed zeros seed={seed}")

    def test_bootstrap_duplicate_rows(self):
        rng = ensure_rng(720)
        X = np.repeat(rng.normal(size=(9, 6)), 4, axis=0)
        X[::5, 2] = np.nan
        y = np.repeat(rng.integers(0, 4, size=9), 4)
        y[::7] = 3
        forest = RandomForestClassifier(n_estimators=6, seed=8).fit(X, y)
        _assert_forest_matches_legacy(
            forest, X, y, np.arange(y.size), 8, "duplicates"
        )

    @pytest.mark.parametrize("n_rows", [15, 16, 17, 31, 32, 33])
    def test_nodes_at_the_sort_dispatch_edges(self, n_rows):
        for seed in range(3):
            rng = ensure_rng(730 + seed)
            X = np.round(rng.normal(size=(n_rows, 7)), 1)
            y = rng.integers(0, 1 + n_rows // 4, size=n_rows)
            old, new = _tree_pair(
                X, y, seed=seed, max_features=[None, "sqrt", 3][seed]
            )
            _assert_tree_parity(old, new, X, f"{n_rows} rows seed={seed}")

    @pytest.mark.parametrize("width", [_RADIX_ROWS - 1, _RADIX_ROWS, 15, 16, 17])
    def test_stable_order_either_side_of_the_dispatch(self, width):
        rng = ensure_rng(width)
        for dtype in (np.uint8, np.uint16):
            keys = rng.integers(0, 6, size=(5, 3, width)).astype(dtype)
            _assert_bitwise(
                keys.astype(np.float64).argsort(axis=2, kind="stable"),
                _stable_order(keys),
                f"width={width} {dtype}",
            )

    def test_more_than_256_distinct_values(self):
        rng = ensure_rng(740)
        X = rng.normal(size=(400, 6))
        X[:, 1] = np.round(X[:, 1])
        y = rng.integers(0, 5, size=400)
        _, ranks, _, _ = _stack_blocks([(None, X, y, None)])
        assert ranks.dtype == np.uint16
        old, new = _tree_pair(X, y, seed=4, max_features="sqrt")
        _assert_tree_parity(old, new, X, "uint16 ranks")

    def test_roots_that_cannot_split(self):
        rng = ensure_rng(750)
        X = rng.normal(size=(20, 4))
        one_class = np.zeros(20, dtype=int)
        old, new = _tree_pair(X, one_class, seed=1, max_features=2)
        _assert_tree_parity(old, new, X, "one class")
        constant = np.ones((20, 4))
        y = rng.integers(0, 3, size=20)
        old, new = _tree_pair(constant, y, seed=1, max_features=2)
        _assert_tree_parity(old, new, constant, "constant features")
        assert new.node_count == 1

    def test_max_depth_one(self):
        X, y = _table3_problem(seed=6)
        old, new = _tree_pair(X, y, seed=2, max_features="sqrt", max_depth=1)
        _assert_tree_parity(old, new, X, "max_depth=1")
        assert new.node_count == 3
        forest = RandomForestClassifier(
            n_estimators=5, max_depth=1, seed=3
        ).fit(X, y)
        _assert_forest_matches_legacy(
            forest, X, y, np.arange(y.size), 3, "forest max_depth=1"
        )

    def test_task_order_does_not_change_trees(self):
        X, y = _table3_problem(seed=7)
        codes = np.unique(y, return_inverse=True)[1]
        narrow = np.ascontiguousarray(X[:, :30])
        rng = ensure_rng(760)

        def tasks():
            grown = []
            for index in range(12):
                data = (X, narrow)[index % 2]
                rows = ensure_rng(index).integers(0, y.size, size=y.size - index)
                tree = DecisionTreeClassifier(
                    max_depth=(32, 4, 2)[index % 3],
                    min_samples_leaf=1 + index % 2,
                    max_features="sqrt",
                    seed=50 + index,
                )
                grown.append((tree, data, codes, rows))
            return grown

        in_order = tasks()
        grow_trees(in_order)
        shuffled = tasks()
        grow_trees([shuffled[i] for i in rng.permutation(len(shuffled))])
        for index, ((a, *_), (b, *_)) in enumerate(zip(in_order, shuffled)):
            context = f"task {index}"
            for name in ("_left_arr", "_feature_arr",
                         "_proba_matrix", "feature_importances_", "classes_"):
                _assert_bitwise(getattr(a, name), getattr(b, name), context)
            _assert_bitwise(
                a._threshold_arr.view(np.int64),
                b._threshold_arr.view(np.int64),
                context,
            )
            assert tree_depth(a) == tree_depth(b), context
            _assert_same_state(a._rng, b._rng, context)


# -------------------------------------------------------------- forest


class TestForestParity:
    def test_forest_trees_match_legacy_grown_trees(self):
        X, y = _fixture_problem(n_rows=48, seed=1)
        forest = RandomForestClassifier(
            n_estimators=8, seed=5
        ).fit(X, y)
        # Regrow every tree with the legacy CART from the same seed
        # stream the forest used.
        forest_rng = ensure_rng(5)
        tree_seeds = forest_rng.integers(0, np.iinfo(np.int64).max, size=8)
        for tree, tree_seed in zip(forest.trees_, tree_seeds):
            rng = ensure_rng(int(tree_seed))
            sample = rng.integers(0, X.shape[0], size=X.shape[0])
            legacy = LegacyDecisionTreeClassifier(
                max_depth=forest.max_depth,
                max_features=forest.max_features,
                min_samples_leaf=forest.min_samples_leaf,
                seed=rng,
            ).fit(X[sample], y[sample])
            _assert_tree_parity(legacy, tree, X, f"tree seed={tree_seed}")

    def test_table3_shape_matches_legacy_grown_trees(self):
        """12 classes x 140 features x 58 rows, as one Table III cell."""
        X, y = _table3_problem()
        forest = RandomForestClassifier(
            n_estimators=10, max_depth=32, seed=17
        ).fit(X, y)
        tree_seeds = ensure_rng(17).integers(
            0, np.iinfo(np.int64).max, size=10
        )
        for tree, tree_seed in zip(forest.trees_, tree_seeds):
            rng = ensure_rng(int(tree_seed))
            sample = rng.integers(0, X.shape[0], size=X.shape[0])
            legacy = LegacyDecisionTreeClassifier(
                max_depth=32, max_features="sqrt", seed=rng
            ).fit(X[sample], y[sample])
            _assert_tree_parity(legacy, tree, X, f"tree seed={tree_seed}")

    def test_batched_predict_matches_legacy_reduction(self):
        X, y = _fixture_problem(n_rows=48, seed=2)
        forest = RandomForestClassifier(
            n_estimators=12, seed=9
        ).fit(X, y)
        rng = ensure_rng(42)
        X_eval = rng.normal(size=(30, X.shape[1]))
        _assert_bitwise(
            legacy_forest_predict_proba(forest, X_eval),
            forest.predict_proba(X_eval),
            "forest predict",
        )


def _table3_problem(n_rows=58, n_features=140, n_classes=12, seed=0):
    """Rows shaped like one Table III cell, with some duplicated rows."""
    rng = ensure_rng(seed)
    y = np.array([f"model-{i % n_classes:02d}" for i in range(n_rows)])
    X = rng.normal(size=(n_rows, n_features))
    X += np.repeat(rng.normal(size=(n_classes, n_features)), 5, axis=0)[
        np.arange(n_rows) % n_classes
    ]
    X[-3:] = X[:3]
    return X, y


def _assert_same_trees(alone, together, context):
    assert len(alone.trees_) == len(together.trees_), context
    _assert_bitwise(alone.classes_, together.classes_, context)
    _assert_bitwise(
        alone.feature_importances_, together.feature_importances_, context
    )
    for a, b in zip(alone.trees_, together.trees_):
        for name in ("_left_arr", "_feature_arr",
                     "_proba_matrix", "feature_importances_", "classes_"):
            _assert_bitwise(getattr(a, name), getattr(b, name), context)
        assert np.array_equal(
            a._threshold_arr, b._threshold_arr, equal_nan=True
        ), context
        assert tree_depth(a) == tree_depth(b), context


class TestLockstepParity:
    """Forests grown together equal each forest grown alone, bit for bit."""

    def test_mixed_forests_match_solo_fits(self):
        rng = ensure_rng(7)
        jobs = []
        solo = []
        configs = [
            # (rows, features, classes, min_samples_leaf, depth, bootstrap)
            (60, 140, 12, 1, 32, True),
            (45, 9, 3, 3, 32, True),
            (80, 30, 10, 1, 3, False),
            (33, 4, 2, 3, 3, True),
            (50, 17, 9, 1, 32, False),
        ]
        for index, (n, d, k, leaf, depth, bootstrap) in enumerate(configs):
            X = rng.normal(size=(n, d))
            # Duplicated rows and a coarse grid force value ties.
            X[-5:] = X[:5]
            X[:, 0] = np.round(X[:, 0])
            y = rng.integers(0, k, size=n)
            if index % 2:
                y = np.array([f"label-{value}" for value in y])
            rows = None if index % 2 else np.sort(
                rng.choice(n, size=n - n // 5, replace=False)
            )
            params = dict(
                n_estimators=6, max_depth=depth, min_samples_leaf=leaf,
                bootstrap=bootstrap, seed=100 + index,
            )
            jobs.append((RandomForestClassifier(**params), X, y, rows))
            picked = slice(None) if rows is None else rows
            solo.append(
                RandomForestClassifier(**params).fit(X[picked], y[picked])
            )
        fit_forests(jobs)
        for index, ((together, X, _, _), alone) in enumerate(zip(jobs, solo)):
            context = f"forest {index}"
            _assert_same_trees(alone, together, context)
            _assert_bitwise(
                alone.predict_proba(X), together.predict_proba(X), context
            )

    def test_cell_batch_matches_per_fold_scores(self):
        X, y = _table3_problem(seed=3)

        def factory():
            return RandomForestClassifier(n_estimators=8, seed=5)

        jobs = make_fold_jobs(X, y, n_folds=5, classifier_factory=factory,
                              seed=1)
        batched = score_fold_batch(jobs)
        jobs = make_fold_jobs(X, y, n_folds=5, classifier_factory=factory,
                              seed=1)
        assert batched == [score_fold(job) for job in jobs]


def _assert_forest_matches_legacy(forest, X, y, rows, seed, context):
    """Regrow every tree of a fitted forest with the legacy CART."""
    tree_seeds = ensure_rng(seed).integers(
        0, np.iinfo(np.int64).max, size=forest.n_estimators
    )
    for tree, tree_seed in zip(forest.trees_, tree_seeds):
        rng = ensure_rng(int(tree_seed))
        sample = rows[rng.integers(0, rows.size, size=rows.size)]
        legacy = LegacyDecisionTreeClassifier(
            max_depth=forest.max_depth,
            max_features=forest.max_features,
            min_samples_leaf=forest.min_samples_leaf,
            seed=rng,
        ).fit(X[sample], y[sample])
        _assert_tree_parity(legacy, tree, X, f"{context} tree={tree_seed}")


def _many_class_problem(n_classes, per_class, n_features, seed):
    """Class-structured rows with rounded columns and duplicated rows."""
    rng = ensure_rng(seed)
    y = np.repeat(np.arange(n_classes), per_class)
    X = rng.normal(size=(y.size, n_features))
    X += 0.8 * rng.normal(size=(n_classes, n_features))[y]
    X[:, ::3] = np.round(X[:, ::3], 1)
    X[-6:] = X[:6]
    return X, y


class TestClassFreeParity:
    """Nodes the exact-score search and its float replay must agree on."""

    def test_nodes_without_a_valid_position(self):
        """>= 2 classes, yet no split: twin rows with conflicting labels,
        every drawn feature constant, or every boundary between distinct
        values too close to an end for ``min_samples_leaf``."""
        for seed in range(6):
            rng = ensure_rng(500 + seed)
            X = np.round(rng.normal(size=(48, 6)))
            X[:, 3:] = 1.5
            X[24:36] = X[:12]
            y = rng.integers(0, 3, size=48)
            y[24:36] = (y[:12] + 1) % 3
            old, new = _tree_pair(
                X, y, seed=seed, max_features=1 + seed % 2,
                min_samples_leaf=1 + seed % 3,
            )
            _assert_tree_parity(old, new, X, f"no valid position seed={seed}")
            leaves = new._proba_matrix[new._left_arr < 0]
            assert (np.count_nonzero(leaves, axis=1) > 1).any()

    @pytest.mark.parametrize("max_features, leaf", [("sqrt", 1), (None, 3)])
    def test_39_classes_702_rows(self, max_features, leaf):
        X, y = _many_class_problem(39, 18, 30, seed=7)
        assert X.shape == (702, 30)
        old, new = _tree_pair(
            X, y, seed=13, max_features=max_features, min_samples_leaf=leaf
        )
        _assert_tree_parity(old, new, X, f"39 x 702 {max_features} {leaf}")

    def test_class_sum_order_and_padding(self):
        """``_class_sum`` adds in numpy's order, and zero padding within
        one block of 8 classes, below 128, keeps its bits."""
        rng = ensure_rng(21)
        for k in range(1, 300):
            terms = (rng.integers(0, 9, size=(k, 40)) / 701.0) ** 2
            expected = np.add.reduce(np.ascontiguousarray(terms.T), axis=1)
            _assert_bitwise(expected, _class_sum(terms.copy()), f"k={k}")
            if k < 128:
                padded = np.zeros((max(7, k - k % 8 + 7), 40))
                padded[:k] = terms
                _assert_bitwise(expected, _class_sum(padded), f"k={k} padded")

    def test_more_than_128_classes(self):
        """Past 128 terms numpy halves the class sum; no block padding."""
        X, y = _many_class_problem(150, 4, 6, seed=11)
        forest = RandomForestClassifier(
            n_estimators=3, max_features=None, seed=4
        ).fit(X, y)
        _assert_forest_matches_legacy(
            forest, X, y, np.arange(y.size), 4, "150 classes"
        )

    @pytest.mark.parametrize("leaf", [2, 4, 7])
    def test_min_samples_leaf_above_one(self, leaf):
        for seed in range(3):
            X, y = _many_class_problem(13, 9, 12, seed=600 + seed)
            forest = RandomForestClassifier(
                n_estimators=4, min_samples_leaf=leaf, seed=seed
            ).fit(X, y)
            _assert_forest_matches_legacy(
                forest, X, y, np.arange(y.size), seed, f"leaf={leaf}"
            )

    def test_one_growth_over_blocks_of_different_widths(self):
        """A fused Table III channel: one grow over 28- to 140-wide X."""
        X, y = _table3_problem(seed=5)
        train = np.sort(ensure_rng(9).choice(y.size, size=46, replace=False))
        jobs = []
        for index, width in enumerate((28, 56, 140, 28)):
            forest = RandomForestClassifier(n_estimators=5, seed=20 + index)
            jobs.append((forest, np.ascontiguousarray(X[:, :width]), y, train))
        fit_forests(jobs)
        for index, (forest, X_block, _, rows) in enumerate(jobs):
            _assert_forest_matches_legacy(
                forest, X_block, y, rows, 20 + index, f"width {X_block.shape[1]}"
            )


# ----------------------------------------------------- feature subsets


def _streams_and_references(specs, pre):
    """Per spec ``(seed, n, k)``: a block stream and a same-state twin
    generator, both after ``pre`` buffered 32-bit draws."""
    streams, references = [], []
    for seed, n, k in specs:
        pair = [ensure_rng(seed), ensure_rng(seed)]
        for rng in pair:
            rng.integers(0, 2**32, size=pre, dtype=np.uint32)
        assert pair[0].bit_generator.state["has_uint32"] == pre % 2
        streams.append(SubsetDraws(pair[0], n, k))
        references.append(pair[1])
    return streams, references


def _assert_blocks_match_choice(streams, references, nodes, context):
    """``nodes`` rows of every stream, taken through ``SubsetBlocks``,
    equal per-node ``choice`` calls, and the synced generators equal the
    per-node ones."""
    blocks = SubsetBlocks(streams)
    for node in range(nodes):
        rows = blocks.take(np.arange(len(streams)))
        for index, (stream, reference) in enumerate(zip(streams, references)):
            expected = reference.choice(stream.n, size=stream.k, replace=False)
            _assert_bitwise(
                expected, rows[index, :stream.k],
                f"{context} stream={index} node={node}",
            )
    blocks.sync()
    for index, (stream, reference) in enumerate(zip(streams, references)):
        _assert_same_state(reference, stream.rng, f"{context} stream={index}")


class TestBlockChoiceParity:
    """Block-drawn subsets equal ``Generator.choice`` called per node."""

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 12, 28, 56, 84, 112, 140, 702])
    def test_subsets_and_state(self, n):
        for k in sorted({1, math.isqrt(n), n}):
            for pre in (0, 1, 2):
                # 5 rows end inside the first block, 24 at the second's
                # end; 61 span four refills.
                for nodes in (5, 24, 61):
                    streams, references = _streams_and_references(
                        [(seed, n, k) for seed in range(3)], pre
                    )
                    _assert_blocks_match_choice(
                        streams, references, nodes, f"n={n} k={k} pre={pre}"
                    )

    def test_groups_of_different_shapes_in_one_fill(self):
        specs = [(40 + i, n, k) for i, (n, k) in enumerate(
            [(140, 11), (28, 5), (140, 11), (702, 26), (28, 28), (1, 1)]
        )]
        for pre in (0, 1):
            streams, references = _streams_and_references(specs, pre)
            _assert_blocks_match_choice(streams, references, 70, f"pre={pre}")

    @pytest.mark.parametrize("seed, node", [(42101, 130), (53780, 67), (68256, 123)])
    def test_rejected_draw_cuts_the_block(self, seed, node):
        """``choice(140, 11)`` on these seeds has one Lemire rejection,
        at ``node``: the block ends there and ``choice`` serves it."""
        (stream,), _ = _streams_and_references([(seed, 140, 11)], 0)
        served = 0
        while not stream.cut and served < node:
            served += len(stream.rows)
            stream.taken = len(stream.rows)
            fill_subsets([stream])
        assert stream.cut and served + len(stream.rows) == node
        for nodes in (node, node + 1, node + 40):
            streams, references = _streams_and_references(
                [(seed, 140, 11), (seed + 1, 140, 11)], 0
            )
            _assert_blocks_match_choice(
                streams, references, nodes, f"seed={seed} nodes={nodes}"
            )

    def test_fallbacks_match_choice(self):
        """Other bit generators, populations over 10 000 and two streams
        on one generator all take ``choice`` per row."""
        for bit_generator in (np.random.MT19937, np.random.SFC64):
            rng = np.random.Generator(bit_generator(5))
            reference = np.random.Generator(bit_generator(5))
            stream = SubsetDraws(rng, 140, 11)
            assert not stream.blocked
            _assert_blocks_match_choice([stream], [reference], 20, "non-PCG64")
        (stream,), references = _streams_and_references([(5, 20_000, 141)], 0)
        assert not stream.blocked
        _assert_blocks_match_choice([stream], references, 3, "n=20000")
        rng, reference = ensure_rng(8), ensure_rng(8)
        shared = [SubsetDraws(rng, 140, 11), SubsetDraws(rng, 56, 7)]
        _assert_blocks_match_choice(shared, [reference, reference], 20, "shared")

    def test_subset_blocks_serve_live_streams(self):
        """``SubsetBlocks`` takes the next subset of any ascending set of
        streams at once, zero-padded, and syncs every generator."""
        specs = [(80 + i, n, k) for i, (n, k) in enumerate(
            [(140, 11), (28, 5), (702, 26), (1, 1), (140, 11)]
        )]
        for pre in (0, 1):
            streams, references = _streams_and_references(specs, pre)
            blocks = SubsetBlocks(streams)
            rng = ensure_rng(pre)
            for node in range(70):
                live = np.flatnonzero(rng.random(len(specs)) < 0.7)
                rows = blocks.take(live)
                for row, index in zip(rows, live.tolist()):
                    _, n, k = specs[index]
                    expected = references[index].choice(n, size=k, replace=False)
                    context = f"pre={pre} node={node} stream={index}"
                    _assert_bitwise(expected, row[:k], context)
                    assert not row[k:].any(), context
            blocks.sync()
            for index, (stream, reference) in enumerate(zip(streams, references)):
                _assert_same_state(reference, stream.rng, f"pre={pre} {index}")

    def test_blocks_use_the_narrowest_integer_type(self):
        for n, dtype in ((140, np.uint8), (256, np.uint8), (702, np.uint16)):
            (stream,), _ = _streams_and_references([(1, n, 9)], 0)
            fill_subsets([stream])
            assert stream.rows.dtype == dtype
            assert stream.rows.shape == (BLOCK_ROWS[0], 9)


class TestFitRngContract:
    """A fit leaves each tree's generator where per-node draws would."""

    def test_second_fit_continues_the_stream(self):
        X, y = _table3_problem(seed=2)
        for max_features in ("sqrt", 3, None):
            old, new = _tree_pair(X, y, seed=6, max_features=max_features)
            _assert_same_state(old._rng, new._rng, f"{max_features} first fit")
            old.fit(X[::2], y[::2])
            new.fit(X[::2], y[::2])
            _assert_tree_parity(old, new, X, f"{max_features} second fit")

    def test_batched_fit_forests(self):
        """Trees grown in one lockstep batch, across widths and seeds."""
        X, y = _table3_problem(seed=4)
        jobs = []
        for index, width in enumerate((28, 140, 84)):
            forest = RandomForestClassifier(n_estimators=6, seed=30 + index)
            jobs.append((forest, np.ascontiguousarray(X[:, :width]), y, None))
        fit_forests(jobs)
        rows = np.arange(y.size)
        for index, (forest, X_block, _, _) in enumerate(jobs):
            # Compares every tree's generator state with the legacy fit's.
            _assert_forest_matches_legacy(
                forest, X_block, y, rows, 30 + index, f"width {X_block.shape[1]}"
            )

    def test_non_pcg64_generator_falls_back_to_choice(self):
        X, y = _table3_problem(seed=1)
        old = LegacyDecisionTreeClassifier(
            max_features="sqrt", seed=np.random.Generator(np.random.MT19937(3))
        ).fit(X, y)
        new = DecisionTreeClassifier(
            max_features="sqrt", seed=np.random.Generator(np.random.MT19937(3))
        ).fit(X, y)
        _assert_tree_parity(old, new, X, "MT19937")


# --------------------------------------------------------------- kfold


class TestKfoldParity:
    @pytest.mark.parametrize("seed", range(6))
    def test_randomized(self, seed):
        rng = ensure_rng(200 + seed)
        k = int(rng.integers(2, 9))
        # Unbalanced classes: fold sizes differ per class.
        y = np.concatenate(
            [
                np.full(int(rng.integers(n_folds, 20)), value)
                for value, n_folds in zip(range(k), [4] * k)
            ]
        )
        rng.shuffle(y)
        for n_folds in (2, 3, 4):
            old = legacy_stratified_kfold_indices(y, n_folds, seed=seed)
            new = stratified_kfold_indices(y, n_folds, seed=seed)
            assert len(old) == len(new)
            for fold, (old_fold, new_fold) in enumerate(zip(old, new)):
                _assert_bitwise(
                    old_fold, new_fold, f"fold {fold} seed={seed}"
                )

    def test_fixture_labels(self):
        _, y = _fixture_problem(n_rows=30)
        old = legacy_stratified_kfold_indices(y, 5, seed=0)
        new = stratified_kfold_indices(y, 5, seed=0)
        for old_fold, new_fold in zip(old, new):
            _assert_bitwise(old_fold, new_fold, "fixture folds")


# ------------------------------------------------------------- archive


def _write_archive(path, n_traces=6, n_samples=300):
    rng = ensure_rng(0)
    traces = []
    with TraceArchiveWriter(path, meta={"test": "mmap"}) as writer:
        for index in range(n_traces):
            trace = Trace(
                times=0.25 + np.arange(n_samples) * 2e-3,
                values=rng.integers(500, 1000, size=n_samples),
                domain="fpga",
                quantity="current",
                label=f"model-{index}",
            )
            writer.append(trace)
            traces.append(trace)
    return traces


class TestArchiveMmapParity:
    def test_mmap_load_is_bitwise_identical(self, tmp_path):
        archive = tmp_path / "arch"
        _write_archive(archive)
        plain = TraceArchiveReader(archive, mmap=False).load_traceset()
        mapped = TraceArchiveReader(archive, mmap=True).load_traceset()
        assert len(plain) == len(mapped)
        for old, new in zip(plain, mapped):
            _assert_bitwise(old.times, new.times, "times")
            _assert_bitwise(old.values, new.values, "values")
            assert old.times.dtype == new.times.dtype
            assert old.values.dtype == new.values.dtype
            assert (old.label, old.domain, old.quantity) == (
                new.label,
                new.domain,
                new.quantity,
            )

    def test_mmap_views_are_read_only(self, tmp_path):
        archive = tmp_path / "arch"
        _write_archive(archive, n_traces=1)
        mapped = TraceArchiveReader(archive, mmap=True).load_traceset()
        trace = next(iter(mapped))
        with pytest.raises((ValueError, RuntimeError)):
            trace.values[0] = -1

    def test_fixture_v1_loads_unchanged(self):
        """The fixture converted from v1 loads on the copying path."""
        traces = TraceArchiveReader(TRACESET_FIXTURE).load_traceset()
        assert len(traces) == 3
