"""Cross-validation harness matching the paper's protocol.

§IV-B: "we perform a 10-fold cross-validation where, in each iteration,
9 folds serve as training data and the remaining fold is used for
testing."  Folds are stratified so every class appears in every fold —
with 39 classes and balanced trace sets this matches the paper's setup.

Folds are independent fit-and-score tasks, so the harness exposes them
as such: :func:`make_fold_jobs` builds the ordered task list,
:func:`score_fold` executes one task and :func:`score_fold_batch` a
batch of them, growing every fold forest of the batch together (see
:func:`repro.ml.forest.fit_forests`).  :func:`cross_validate` scores its
folds as one batch, or as one batch per worker through
:func:`repro.perf.parallel_map`, and the Table III grid evaluator makes
all duration cells of one channel one batch.  Reproducibility contract: for
classifier factories whose products fit deterministically from
construction (integer seeds — the default), serial and parallel runs
produce identical scores at any worker count.  Factories that share a
live RNG across folds remain order-dependent and should stick to
``workers=1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.ml.forest import RandomForestClassifier, fit_forests
from repro.ml.metrics import accuracy, top_k_accuracy
from repro.perf.config import resolve_workers
from repro.perf.executor import in_worker, parallel_map
from repro.utils.rng import RngLike, derive_seed, spawn
from repro.utils.validation import require_int_in_range


def stratified_kfold_indices(
    y: np.ndarray, n_folds: int, seed: RngLike = None
) -> List[np.ndarray]:
    """Split sample indices into ``n_folds`` class-stratified folds.

    Fold assembly is vectorized (each fold takes every ``n_folds``-th
    member of each class's permutation, then one sort per fold) but
    consumes the RNG identically to the original per-sample loop, so
    the folds — and everything seeded downstream of them — are
    unchanged.
    """
    y = np.asarray(y)
    n_folds = require_int_in_range(n_folds, 2, y.size, "n_folds")
    rng = spawn(seed, "kfold")
    parts: List[List[np.ndarray]] = [[] for _ in range(n_folds)]
    for value in np.unique(y):
        members = rng.permutation(np.nonzero(y == value)[0])
        for fold in range(n_folds):
            parts[fold].append(members[fold::n_folds])
    return [
        np.sort(np.concatenate(part).astype(np.int64)) for part in parts
    ]


@dataclass(frozen=True)
class CrossValidationResult:
    """Aggregated k-fold scores.

    Attributes:
        top1_per_fold / top5_per_fold: per-fold accuracies.
    """

    top1_per_fold: Tuple[float, ...]
    top5_per_fold: Tuple[float, ...]

    @property
    def top1(self) -> float:
        """Mean top-1 accuracy across folds (Table III first row)."""
        return float(np.mean(self.top1_per_fold))

    @property
    def top5(self) -> float:
        """Mean top-5 accuracy across folds (Table III second row)."""
        return float(np.mean(self.top5_per_fold))

    def __repr__(self) -> str:
        return (
            f"CrossValidationResult(top1={self.top1:.3f}, "
            f"top5={self.top5:.3f}, folds={len(self.top1_per_fold)})"
        )


#: One fold's fit-and-score task: (classifier, X, y, train, test).
FoldJob = Tuple[RandomForestClassifier, np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _default_fold_classifiers(
    n_folds: int, seed: RngLike
) -> List[RandomForestClassifier]:
    """The paper's RForest per fold, independently and stably seeded."""
    if isinstance(seed, np.random.Generator):
        fold_seeds = [int(s) for s in seed.integers(0, 1 << 62, size=n_folds)]
    else:
        fold_seeds = [
            derive_seed(seed, f"cv-forest-{index}") for index in range(n_folds)
        ]
    return [
        RandomForestClassifier(n_estimators=100, max_depth=32, seed=fold_seed)
        for fold_seed in fold_seeds
    ]


def make_fold_jobs(
    X: np.ndarray,
    y: np.ndarray,
    n_folds: int = 10,
    classifier_factory: Callable[[], RandomForestClassifier] = None,
    seed: RngLike = None,
) -> List[FoldJob]:
    """Build the ordered fit-and-score task per stratified fold.

    Classifiers are constructed here, in fold order, in the calling
    process — so a factory's construction-time RNG consumption is
    identical no matter where the jobs later execute.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    folds = stratified_kfold_indices(y, n_folds, seed=seed)
    if classifier_factory is None:
        classifiers = _default_fold_classifiers(len(folds), seed)
    else:
        classifiers = [classifier_factory() for _ in folds]
    jobs: List[FoldJob] = []
    all_indices = np.arange(y.size)
    for classifier, fold in zip(classifiers, folds):
        test_mask = np.zeros(y.size, dtype=bool)
        test_mask[fold] = True
        train = all_indices[~test_mask]
        jobs.append((classifier, X, y, train, fold))
    return jobs


def _fold_scores(classifier, X, y, test) -> Tuple[float, float]:
    """(top-1, top-5) of a fitted classifier on the test rows.

    One ``predict_proba`` pass serves both scores — ``predict`` and
    ``predict_topk`` are thin argmax/argsort views over the same
    probability matrix.
    """
    proba = classifier.predict_proba(X[test])
    top1 = accuracy(
        y[test], classifier.classes_[np.argmax(proba, axis=1)]
    )
    k = min(5, classifier.classes_.size)
    order = np.argsort(-proba, axis=1, kind="stable")[:, :k]
    top5 = top_k_accuracy(y[test], classifier.classes_[order])
    return top1, top5


def score_fold(job: FoldJob) -> Tuple[float, float]:
    """Fit one fold's classifier and return its (top-1, top-5) scores."""
    classifier, X, y, train, test = job
    classifier.fit(X[train], y[train])
    return _fold_scores(classifier, X, y, test)


def score_fold_batch(jobs: Sequence[FoldJob]) -> List[Tuple[float, float]]:
    """Fit every fold of a batch, then score each as :func:`score_fold`.

    The batch's forests grow together: their trees share every
    scoring step of the lockstep grower, reading their training rows
    straight from the shared ``X``.  Any other classifier fits alone.
    The scores equal ``[score_fold(job) for job in jobs]``.
    """
    fit_forests(
        [
            (classifier, X, y, train)
            for classifier, X, y, train, _ in jobs
            if isinstance(classifier, RandomForestClassifier)
        ]
    )
    for classifier, X, y, train, _ in jobs:
        if not isinstance(classifier, RandomForestClassifier):
            classifier.fit(X[train], y[train])
    return [
        _fold_scores(classifier, X, y, test)
        for classifier, X, y, _, test in jobs
    ]


def collect_cv_result(
    fold_scores: Sequence[Tuple[float, float]]
) -> CrossValidationResult:
    """Assemble per-fold (top-1, top-5) pairs into a result."""
    return CrossValidationResult(
        top1_per_fold=tuple(score[0] for score in fold_scores),
        top5_per_fold=tuple(score[1] for score in fold_scores),
    )


def cross_validate(
    X: np.ndarray,
    y: np.ndarray,
    n_folds: int = 10,
    classifier_factory: Callable[[], RandomForestClassifier] = None,
    seed: RngLike = None,
    workers: Optional[int] = None,
) -> CrossValidationResult:
    """Stratified k-fold CV of a forest on (X, y), scoring top-1/top-5.

    ``classifier_factory`` builds a fresh classifier per fold; the
    default is the paper's RForest(100 trees, depth 32), seeded
    independently per fold.  ``workers`` splits the folds into one
    :func:`score_fold_batch` per process (``None`` honors
    ``AMPEREBLEED_WORKERS``, default serial: one batch of all folds);
    scores are identical at any worker count for deterministic
    factories.
    """
    jobs = make_fold_jobs(
        X, y, n_folds=n_folds, classifier_factory=classifier_factory,
        seed=seed,
    )
    n_batches = 1 if in_worker() else min(resolve_workers(workers), len(jobs))
    size = -(-len(jobs) // n_batches)
    batches = [jobs[i:i + size] for i in range(0, len(jobs), size)]
    scores = parallel_map(score_fold_batch, batches, workers=workers)
    return collect_cv_result([score for batch in scores for score in batch])

