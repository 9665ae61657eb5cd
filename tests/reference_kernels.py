"""Frozen old-path kernels: the pre-vectorization implementations.

The PR-6 kernel rework (presorted CART, SoA trace batches, zero-copy
archive loads) promises *bit-identical* outputs to the loops it
replaced.  That promise needs something to compare against, so the
replaced implementations live on here, verbatim:

* :class:`LegacyDecisionTreeClassifier` — the per-node
  argsort-per-candidate-feature CART (one ``np.argsort`` + one
  histogram/cumsum pass per feature per node, per-call ``np.stack`` of
  the node probabilities, dict-traversal ``depth``), scoring splits
  with the float :func:`gini_impurity`.
* :func:`legacy_forest_predict_proba` — the tree-by-tree accumulation
  loop that rebuilt the class-column mapping on every call.
* :func:`legacy_resample_loop` — one ``np.interp`` call per trace.
* :func:`batch_window_features` — every sliding window of a whole
  trace in one batch, the reference the incremental streaming
  extractor must equal under any chunking.
* :func:`legacy_stratified_kfold_indices` — the per-sample
  Python-append fold assembly.
* :func:`legacy_splitmix64`, :func:`legacy_hashed_uniform` and
  :func:`legacy_hashed_normal` — the one-stream counter-hash noise
  kernels (one ``np.errstate`` and three ``splitmix64`` calls per
  uniform row) that the fused ``repro.utils.hashrand.hashed_normals``
  replaced.
* :func:`legacy_read_series_faulted` — the one-request hwmon read
  (its own latch ``np.unique``, a 7-field conversion gather, then the
  attribute and the fault masks) that the batched read core replaced.
* :func:`legacy_trace_timelines` — the DPU serving run as four
  :class:`~repro.soc.workload.PiecewiseActivity` objects over the full
  segment arrays, which the O(cycles) ``CycleRun`` record replaced.
* :func:`legacy_sample_resilient` — the resilient sampler's retry loop
  with one device read per attempt, which the one read of a chunk and
  all its re-polls replaced.
* :func:`legacy_poll_grid` — the poll clock as one expression over
  fresh poll-length temporaries, which the in-place
  ``repro.core.sampler._poll_grid`` replaced.

Alongside them live helpers for values that only tests read, which
``src/`` does not keep (``tests/test_public_api.py`` guards that):

* :func:`truncated_trace` — a trace cut to its opening seconds as a
  new ``Trace``, the per-trace reference for
  ``TraceSet.to_matrix(duration=...)``.
* :func:`read_sysfs` — one read of a full ``/sys/class/hwmon`` path,
  resolved the way ``HwmonTree.write`` resolves it.
* :func:`square_and_multiply` — LSB-first modular exponentiation over
  the victim circuit's bit schedule, the datapath its power timeline
  encodes.
* :func:`fabric_totals` — a fabric's capacity or usage summed over
  its clock regions.
* :func:`tree_depth` — a fitted tree's depth from its node arrays.

Six consumers of the legacy kernels: ``tests/test_kernel_parity.py``
pins the new kernels against these on the checked-in fixtures and on
randomized inputs,
``tests/test_hashrand.py`` pins the counter-hash kernels,
``tests/test_parallel_determinism.py`` pins every hwmon/SoC/sampler
read against the one-request read, and ``tests/test_dpu_runner.py``
pins the DPU run timelines against the full-array ones, and
``tests/test_resilient_sampler.py`` pins the resilient sampler against
the per-attempt loop, and ``tests/test_sampler.py`` pins the poll clock
against the one-expression grid.
The module lives under ``tests/`` because it is a parity oracle, not
a fallback path; nothing in ``src/`` may import it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.features import resample_batch
from repro.core.sampler import ChannelDeadError, ChannelOutageError
from repro.core.traces import Trace, TraceQuality
from repro.crypto.rsa_math import RSA_BITS, exponent_bits_lsb_first
from repro.dpu.models import ModelSpec
from repro.dpu.runner import DPU_RAILS, DpuRunner
from repro.fpga.fabric import RESOURCE_TYPES
from repro.ml.tree import _resolve_max_features
from repro.sensors.ina226 import Ina226Reading
from repro.soc.workload import ActivityTimeline, PiecewiseActivity
from repro.utils.rng import RngLike, ensure_rng, spawn
from repro.utils.validation import require_int_in_range, require_positive


def gini_impurity(counts: np.ndarray) -> np.ndarray:
    """Gini impurity of class-count vectors (last axis = classes)."""
    counts = np.asarray(counts, dtype=np.float64)
    totals = counts.sum(axis=-1, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        proportions = np.where(totals > 0, counts / totals, 0.0)
    return 1.0 - (proportions**2).sum(axis=-1)


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


def truncated_trace(trace: Trace, duration: float) -> Trace:
    """The prefix of ``trace`` covering its first ``duration`` seconds."""
    keep = trace.truncation_mask(duration)
    return Trace(
        times=trace.times[keep],
        values=trace.values[keep],
        domain=trace.domain,
        quantity=trace.quantity,
        label=trace.label,
        quality=trace.quality,
    )


def read_sysfs(tree, path: str, time: float = 0.0) -> str:
    """Read a full sysfs path of an ``HwmonTree`` at a simulation time."""
    device, attribute = tree._resolve(path)
    return device.read(attribute, time)


def square_and_multiply(
    base: int, exponent: int, modulus: int, width: int = RSA_BITS
) -> int:
    """LSB-first square-and-multiply modular exponentiation.

    Matches the victim circuit's algorithm exactly (fixed ``width``
    iterations); equal to ``pow(base, exponent, modulus)``.
    """
    if modulus <= 0:
        raise ValueError("modulus must be positive")
    result = 1 % modulus
    square = base % modulus
    for bit in exponent_bits_lsb_first(exponent, width):
        if bit:
            result = (result * square) % modulus
        square = (square * square) % modulus
    return result


def fabric_totals(fabric, attribute: str) -> Dict[str, int]:
    """Per-resource sums of every region's ``capacity`` or ``used``."""
    totals: Dict[str, int] = {resource: 0 for resource in RESOURCE_TYPES}
    for region in fabric.regions:
        for resource, count in getattr(region, attribute).items():
            totals[resource] = totals.get(resource, 0) + count
    return totals


def tree_depth(tree) -> int:
    """Depth of a fitted ``DecisionTreeClassifier``, read off its node
    arrays (a right child's id is its left sibling's + 1)."""
    left = tree._left_arr
    deepest, stack = 0, [(0, 0)]
    while stack:
        node, depth = stack.pop()
        deepest = max(deepest, depth)
        if left[node] >= 0:
            stack += [(left[node], depth + 1), (left[node] + 1, depth + 1)]
    return deepest


def batch_window_features(values: np.ndarray, spec, n_features: int) -> np.ndarray:
    """Every sliding window of a complete trace, in one batch.

    Equal to concatenating the feature batches an
    :class:`~repro.core.streaming.IncrementalFeatureExtractor` emits
    for the same samples under *any* chunking.
    """
    values = np.asarray(values)
    count = spec.n_windows(int(values.size))
    windows = [
        values[start * spec.hop_samples:
               start * spec.hop_samples + spec.window_samples]
        for start in range(count)
    ]
    if not windows:
        return np.empty((0, n_features))
    return resample_batch(windows, n_features)


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


_LEGACY_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_LEGACY_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_LEGACY_MIX2 = np.uint64(0x94D049BB133111EB)


def legacy_splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer over uint64 values."""
    x = np.asarray(x, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = x + _LEGACY_GOLDEN
        z = (z ^ (z >> np.uint64(30))) * _LEGACY_MIX1
        z = (z ^ (z >> np.uint64(27))) * _LEGACY_MIX2
        z = z ^ (z >> np.uint64(31))
    return z


def _legacy_mix(key: int, counter: np.ndarray, stream: int) -> np.ndarray:
    counter = np.asarray(counter, dtype=np.uint64)
    with np.errstate(over="ignore"):
        seeded = legacy_splitmix64(
            np.uint64(key & 0xFFFFFFFFFFFFFFFF)
            + legacy_splitmix64(np.uint64(stream))
        )
        return legacy_splitmix64(counter ^ seeded)


def legacy_hashed_uniform(
    key: int, counter: np.ndarray, stream: int = 0
) -> np.ndarray:
    """Uniform floats in [0, 1), a pure function of (key, counter, stream)."""
    bits = _legacy_mix(key, counter, stream)
    # Use the top 53 bits for a full-precision double in [0, 1).
    return (bits >> np.uint64(11)).astype(np.float64) * (2.0**-53)


def legacy_hashed_normal(
    key: int, counter: np.ndarray, stream: int = 0
) -> np.ndarray:
    """Standard-normal draws, a pure function of (key, counter, stream).

    Box-Muller over two independent hashed uniforms; ``u1`` is nudged
    away from zero so the log never overflows.
    """
    u1 = legacy_hashed_uniform(key, counter, stream=2 * stream)
    u2 = legacy_hashed_uniform(key, counter, stream=2 * stream + 1)
    u1 = np.maximum(u1, 2.0**-53)
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)


def legacy_read_series_faulted(
    device, attribute: str, times: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One ``(values, transient, gone)`` poll series, read on its own.

    ``attribute`` must be a readable numeric sysfs attribute of
    ``device`` (a :class:`repro.sensors.hwmon.HwmonDevice`).
    """
    times = np.atleast_1d(np.asarray(times, dtype=np.float64))
    if attribute == "update_interval":
        values = np.full(
            times.shape, round(device.update_period * 1e3), dtype=np.int64
        )
    else:
        latches = device.latch_index(times)
        unique, inverse = np.unique(latches, return_inverse=True)
        converted = device._convert_latches(unique)
        reading = Ina226Reading(
            shunt_register=converted.shunt_register[inverse],
            bus_register=converted.bus_register[inverse],
            current_register=converted.current_register[inverse],
            power_register=converted.power_register[inverse],
            current_amps=converted.current_amps[inverse],
            bus_volts=converted.bus_volts[inverse],
            power_watts=converted.power_watts[inverse],
        )
        if attribute == "curr1_input":
            values = np.rint(reading.current_amps * 1e3).astype(np.int64)
        elif attribute == "in0_input":
            shunt_volts = reading.shunt_register * 2.5e-6
            values = np.rint(shunt_volts * 1e3).astype(np.int64)
        elif attribute == "in1_input":
            values = np.rint(reading.bus_volts * 1e3).astype(np.int64)
        else:
            values = np.rint(reading.power_watts * 1e6).astype(np.int64)
    failure = device._failure
    if failure is not None and failure[0] == "unbind":
        gone = times >= failure[1]
    else:
        gone = np.zeros(times.shape, dtype=bool)
    if not device.faults_active:
        return values, np.zeros(times.shape, dtype=bool), gone
    plan = device._fault_plan
    key = device._fault_key
    gone = gone | plan.hotplug_mask(key, times)
    transient = plan.transient_mask(key, times) & ~gone
    torn = plan.torn_mask(key, times) & ~gone & ~transient
    values = plan.torn_values(key, values, times, torn)
    return values, transient, gone


def legacy_trace_timelines(
    runner: DpuRunner,
    model: ModelSpec,
    duration: float,
    seed: RngLike = None,
    start: float = 0.0,
) -> Dict[str, ActivityTimeline]:
    """``DpuRunner.trace_timelines`` over the full segment arrays.

    Verbatim apart from ``self`` -> ``runner``: every rail is one
    :class:`PiecewiseActivity` holding all ``edges``, ``powers`` and
    cumulative energies of the run.
    """
    require_positive(duration, "duration")
    rng = spawn(seed, f"dpu-trace-{model.name}")
    profile = runner.cycle_profile(model)
    n_cycles = int(np.ceil(duration / profile.period)) + 2

    scales = 1.0 + runner.cycle_jitter * rng.standard_normal(n_cycles)
    scales = np.clip(scales, 0.5, 1.5)
    stalls = np.where(
        rng.random(n_cycles) < runner.stall_probability,
        runner.STALL_SECONDS,
        0.0,
    )

    n_segments = profile.durations.size
    # (cycles, segments+1): jitter-scaled cycle segments + stall slot.
    durations = np.empty((n_cycles, n_segments + 1), dtype=np.float64)
    durations[:, :n_segments] = np.outer(scales, profile.durations)
    durations[:, n_segments] = stalls
    flat_durations = durations.reshape(-1)

    keep = flat_durations > 0.0
    flat_durations = flat_durations[keep]
    edges = start + np.concatenate(([0.0], np.cumsum(flat_durations)))

    timelines: Dict[str, ActivityTimeline] = {}
    for rail in DPU_RAILS:
        powers = np.empty((n_cycles, n_segments + 1), dtype=np.float64)
        powers[:, :n_segments] = profile.powers[rail][np.newaxis, :]
        powers[:, n_segments] = 0.0  # stalled: serving loop idle
        timelines[rail] = PiecewiseActivity(
            edges, powers.reshape(-1)[keep]
        )
    return timelines


def legacy_sample_resilient(sampler, domain: str, quantity: str, times):
    """``HwmonSampler._sample_resilient`` with one read per retry attempt.

    Verbatim apart from ``self`` -> ``sampler``: the chunk is read, then
    each attempt re-reads only the still-bad polls at the backed-off
    times.
    """
    policy = sampler.retry_policy
    health = sampler._health_for(domain)
    if health.is_dead:
        raise ChannelDeadError(
            domain, quantity, "channel health is pinned dead"
        )
    times = np.asarray(times, dtype=np.float64)
    total = int(times.size)
    values, bad = sampler._gated_read(domain, quantity, times)
    faults_seen = int(bad.sum())
    retries = 0
    offset = 0.0
    for attempt in range(policy.max_retries):
        if not bad.any():
            break
        offset += policy.backoff(attempt)
        idx = np.flatnonzero(bad)
        retry_values, retry_bad = sampler._gated_read(
            domain, quantity, times[idx] + offset
        )
        recovered = idx[~retry_bad]
        values[recovered] = retry_values[~retry_bad]
        bad[recovered] = False
        retries += int(idx.size)
    gaps = int(bad.sum())
    good = ~bad
    if gaps >= total:
        health.note_read(faults_seen, gaps, total)
        if health.is_dead:
            raise ChannelDeadError(
                domain,
                quantity,
                f"dead after repeated outages "
                f"({retries} retries exhausted)",
                retries=retries,
            )
        raise ChannelOutageError(
            domain,
            quantity,
            f"all {total} samples lost after {retries} retries",
            retries=retries,
        )
    interpolated = 0
    if gaps:
        if policy.interpolate_gaps:
            filled = np.interp(
                times[bad], times[good], values[good].astype(np.float64)
            )
            values[bad] = np.rint(filled).astype(values.dtype)
            interpolated = gaps
        else:
            # Sample-and-hold: repeat the nearest preceding good
            # poll (the first good poll for leading gaps).
            good_idx = np.flatnonzero(good)
            pos = np.searchsorted(
                good_idx, np.flatnonzero(bad), side="right"
            ) - 1
            pos = np.clip(pos, 0, good_idx.size - 1)
            values[bad] = values[good_idx[pos]]
    quality = TraceQuality(
        retries=retries,
        gaps=gaps,
        interpolated=interpolated,
        health=health.note_read(faults_seen, gaps, total),
    )
    return values, quality


def legacy_poll_grid(
    start: float,
    first: int,
    count: int,
    poll_hz: float,
    jitter: float,
    rng,
    floor: float = -np.inf,
) -> np.ndarray:
    """The poll clock as it was before ``_poll_grid`` built it in place."""
    times = start + np.arange(first, first + count) / poll_hz
    if rng is None:
        return times
    times = times + jitter * rng.standard_normal(count)
    return np.maximum(np.maximum.accumulate(times), floor)
