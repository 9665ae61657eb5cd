"""Bit-parity pins for the vectorized batch kernels.

Every kernel the PR-6 rework touched — presorted CART, batched forest
prediction, grouped trace resampling, 2-D summary features, vectorized
stratified folds, memory-mapped archive loads — is pinned here against
its frozen legacy twin in ``tests/reference_kernels.py``, twice over:

* on the checked-in fixtures (``tests/data/collect_seed3_v1.npz``,
  ``tests/data/traceset_v1.npz``) so the comparison covers real
  recorded traces, not just synthetic noise;
* on randomized inputs across seeds, shapes, and hyperparameters.

"Parity" always means *bitwise*: exact array equality, never
``allclose``.  The legacy implementations define correctness; any
difference is a bug in the fast path.
"""

from pathlib import Path

import numpy as np
import pytest

from reference_kernels import (
    LegacyDecisionTreeClassifier,
    legacy_forest_predict_proba,
    legacy_resample_loop,
    legacy_stratified_kfold_indices,
    legacy_summary_features_loop,
)

from repro.core.features import resample_batch, summary_features
from repro.core.io import (
    TraceArchiveReader,
    TraceArchiveWriter,
    load_traceset,
)
from repro.core.traces import Trace
from repro.ml.forest import RandomForestClassifier
from repro.ml.tree import DecisionTreeClassifier
from repro.ml.validation import stratified_kfold_indices
from repro.utils.rng import ensure_rng

DATA = Path(__file__).parent / "data"
COLLECT_FIXTURE = DATA / "collect_seed3_v1.npz"
TRACESET_FIXTURE = DATA / "traceset_v1.npz"


def _fixture_values():
    """All value series from both fixtures, as float64 arrays."""
    traces = list(load_traceset(COLLECT_FIXTURE)) + list(
        load_traceset(TRACESET_FIXTURE)
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


# ------------------------------------------------------------- summary


class TestSummaryParity:
    def test_fixture_matrix(self):
        matrix = _fixture_matrix()
        old = legacy_summary_features_loop(matrix)
        new = summary_features(matrix)
        _assert_bitwise(old, new, "summary fixtures")

    def test_batch_rows_match_single_rows(self):
        matrix = _fixture_matrix()
        batch = summary_features(matrix)
        for i, row in enumerate(matrix):
            _assert_bitwise(summary_features(row), batch[i], f"row {i}")

    @pytest.mark.parametrize("n_columns", [1, 2, 7, 160])
    def test_randomized(self, n_columns):
        rng = ensure_rng(n_columns)
        matrix = rng.normal(size=(40, n_columns))
        old = legacy_summary_features_loop(matrix)
        new = summary_features(matrix)
        _assert_bitwise(old, new, f"summary {n_columns} columns")


# ---------------------------------------------------------------- tree


def _tree_pair(X, y, seed, **params):
    old = LegacyDecisionTreeClassifier(seed=seed, **params).fit(X, y)
    new = DecisionTreeClassifier(seed=seed, **params).fit(X, y)
    return old, new


def _assert_tree_parity(old, new, X_eval, context):
    assert old.node_count == new.node_count, context
    assert old.depth == new.depth, context
    _assert_bitwise(old.classes_, new.classes_, context)
    _assert_bitwise(
        old.feature_importances_, new.feature_importances_, context
    )
    _assert_bitwise(
        old.predict_proba(X_eval), new.predict_proba(X_eval), context
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

    def test_depth_matches_legacy_traversal(self):
        X, y = _fixture_problem(seed=7)
        old, new = _tree_pair(X, y, seed=11, max_features="sqrt")
        assert new.depth == old.depth
        assert new.depth >= 1


# -------------------------------------------------------------- forest


class TestForestParity:
    def test_forest_trees_match_legacy_grown_trees(self):
        X, y = _fixture_problem(n_rows=48, seed=1)
        forest = RandomForestClassifier(
            n_estimators=8, seed=5, n_jobs=1
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

    def test_batched_predict_matches_legacy_reduction(self):
        X, y = _fixture_problem(n_rows=48, seed=2)
        forest = RandomForestClassifier(
            n_estimators=12, seed=9, n_jobs=1
        ).fit(X, y)
        rng = ensure_rng(42)
        X_eval = rng.normal(size=(30, X.shape[1]))
        _assert_bitwise(
            legacy_forest_predict_proba(forest, X_eval),
            forest.predict_proba(X_eval),
            "forest predict",
        )


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

    def test_compressed_legacy_chunks_fall_back(self, tmp_path):
        """Old archives wrote compressed chunks; mmap must degrade."""
        archive = tmp_path / "arch"
        _write_archive(archive, n_traces=2)
        for chunk in sorted(archive.glob("chunk_*.npz")):
            with np.load(chunk, allow_pickle=False) as arrays:
                loaded = {name: arrays[name] for name in arrays.files}
            np.savez_compressed(chunk, **loaded)
        plain = TraceArchiveReader(archive, mmap=False).load_traceset()
        mapped = TraceArchiveReader(archive, mmap=True).load_traceset()
        for old, new in zip(plain, mapped):
            _assert_bitwise(old.times, new.times, "times")
            _assert_bitwise(old.values, new.values, "values")

    def test_fixture_v1_loads_unchanged(self):
        """The single-file v1 format stays on the regular path."""
        traces = load_traceset(TRACESET_FIXTURE)
        assert len(traces) == 3
