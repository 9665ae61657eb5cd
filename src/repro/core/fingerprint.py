"""DNN model fingerprinting on the DPU (paper §IV-B, Fig 3, Table III).

Two phases, as in the paper — and two *planes* in this library:

* **Acquisition plane** (:class:`DnnFingerprinter`) — for every victim
  architecture, trigger serving runs on the (encrypted) DPU and record
  hwmon traces from each sensor channel, optionally streaming them to
  a trace archive as they are captured.
* **Analysis plane** (:class:`FingerprintAnalyzer`) — train one
  random-forest classifier per channel and run the evaluation grids.
  The analyzer never touches a SoC: it consumes labeled
  :class:`~repro.core.traces.TraceSet`s from memory or from a trace
  archive on disk, so the heavy work can run on a different machine
  than the recording (the paper's collect-once / analyze-anywhere
  workflow).

The evaluation protocol is 10-fold cross-validation over the labeled
trace sets, scored as top-1/top-5 accuracy for each channel and each
trace duration (1 s .. 5 s), which regenerates Table III.  A recorded
archive replayed through the analyzer reproduces the in-process
accuracies bit-exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.features import resample_batch
from repro.core.io import (
    TraceArchiveReader,
    TraceArchiveWriter,
    resume_point,
)
from repro.core.sampler import HwmonSampler
from repro.core.traces import Trace, TraceSet
from repro.dpu.models import ModelSpec, build_model, list_models
from repro.dpu.runner import DpuRunner
from repro.ml.forest import RandomForestClassifier
from repro.ml.validation import (
    CrossValidationResult,
    collect_cv_result,
    cross_validate,
    make_fold_jobs,
    score_fold,  # noqa: F401  (one-fold entry; bench/tracing.py wraps it here)
    score_fold_batch,
)
from repro.perf.executor import parallel_map
from repro.soc.soc import Soc
from repro.utils.rng import derive_seed

#: The six Table III channels: (domain, quantity).
TABLE3_CHANNELS: Tuple[Tuple[str, str], ...] = (
    ("fpd", "current"),
    ("lpd", "current"),
    ("ddr", "current"),
    ("fpga", "current"),
    ("fpga", "voltage"),
    ("fpga", "power"),
)

#: Table III's duration columns in seconds.
TABLE3_DURATIONS: Tuple[float, ...] = (1.0, 2.0, 3.0, 4.0, 5.0)


def _score_cells(task) -> List[CrossValidationResult]:
    """Pool task: cross-validate several ``(X, y)`` cells as one batch.

    The cells' fold forests are built here, in cell and fold order,
    grow together, and are dropped with the jobs once scored.
    """
    cells, n_folds, factory, seed = task
    jobs = [
        make_fold_jobs(X, y, n_folds=n_folds, classifier_factory=factory, seed=seed)
        for X, y in cells
    ]
    scores = iter(score_fold_batch([job for cell in jobs for job in cell]))
    return [collect_cv_result([next(scores) for _ in cell]) for cell in jobs]


@dataclass(frozen=True)
class FingerprintConfig:
    """Knobs of the fingerprinting experiment.

    Attributes:
        duration: full trace length in seconds (paper: 5 s per model).
        traces_per_model: recordings per architecture in the offline
            set.
        n_features: resampled feature width fed to the forest (a 5 s
            trace at the 35.2 ms update interval holds ~142 readings).
        n_folds: cross-validation folds (paper: 10).
        forest_trees: trees per forest (paper: 100).
        forest_depth: maximum tree depth (paper: 32).
    """

    duration: float = 5.0
    traces_per_model: int = 20
    n_features: int = 140
    n_folds: int = 10
    forest_trees: int = 100
    forest_depth: int = 32

    def __post_init__(self):
        if self.duration <= 0:
            raise ValueError("duration must be > 0")
        if self.traces_per_model < 2:
            raise ValueError("need at least two traces per model")

    def to_dict(self) -> Dict[str, Union[int, float]]:
        """JSON-safe form for archive manifests."""
        return {
            "duration": self.duration,
            "traces_per_model": self.traces_per_model,
            "n_features": self.n_features,
            "n_folds": self.n_folds,
            "forest_trees": self.forest_trees,
            "forest_depth": self.forest_depth,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "FingerprintConfig":
        """Rebuild a config stored by :meth:`to_dict`."""
        known = {
            key: data[key] for key in cls.__dataclass_fields__ if key in data
        }
        return cls(**known)


class FingerprintAnalyzer:
    """The offline half of the attack: training and evaluation only.

    Consumes labeled trace sets — from a live collection or from a
    trace archive — and runs forests/CV over them.  Never constructs a
    SoC, so it runs on the attacker's analysis machine with nothing
    but the archived dataset.

    Args:
        config: experiment knobs (must match the recording for Table
            III geometry; :meth:`from_archive` restores them from the
            manifest).
        seed: keys forest fitting and CV splits; the same seed as the
            recording session reproduces in-process accuracies
            bit-exactly.
        workers: default worker count for the evaluation stages
            (``None`` honors ``AMPEREBLEED_WORKERS``, falling back to
            serial; per-call ``workers=`` arguments override it).  The
            engine is deterministic: every worker count produces the
            same accuracies.
    """

    def __init__(
        self,
        config: Optional[FingerprintConfig] = None,
        seed: Optional[int] = 0,
        workers: Optional[int] = None,
    ):
        self.config = config if config is not None else FingerprintConfig()
        self.seed = seed
        self.workers = workers
        # (dataset id, duration, width) -> (dataset ref, X, y); the
        # strong dataset reference keeps the id() key from being
        # recycled while the entry lives.
        self._feature_cache: Dict[Tuple, Tuple] = {}

    @staticmethod
    def from_archive(
        archive: Union[str, Path, TraceArchiveReader],
        workers: Optional[int] = None,
        seed: Optional[int] = None,
        mmap: bool = True,
    ) -> Tuple["FingerprintAnalyzer", Dict[Tuple[str, str], TraceSet]]:
        """Open a recorded dataset and the analyzer that evaluates it.

        The archive manifest carries the recording's fingerprint
        configuration and seed; an explicit ``seed`` overrides the
        recorded one.

        Trace arrays are memory-mapped off disk by default (zero-copy
        views; see :class:`~repro.core.io.TraceArchiveReader`) instead
        of materializing the whole archive; ``mmap=False`` restores
        resident loads, and an already-open reader keeps its own
        setting.

        Returns ``(analyzer, datasets)`` with datasets keyed by
        ``(domain, quantity)``; the analyzer is a plain
        :class:`FingerprintAnalyzer` even when called on a subclass.
        """
        if not isinstance(archive, TraceArchiveReader):
            archive = TraceArchiveReader(archive, mmap=mmap)
        meta = archive.meta
        config = (
            FingerprintConfig.from_dict(meta["config"])
            if "config" in meta
            else None
        )
        if seed is None:
            seed = meta.get("seed", 0)
        analyzer = FingerprintAnalyzer(
            config=config, seed=seed, workers=workers
        )
        return analyzer, archive.load_datasets()

    def _workers(self, workers: Optional[int]) -> Optional[int]:
        return self.workers if workers is None else workers

    def _forest_factory(self):
        return partial(
            RandomForestClassifier,
            n_estimators=self.config.forest_trees,
            max_depth=self.config.forest_depth,
            seed=derive_seed(self.seed, "forest"),
        )

    #: Entries kept in the feature-extraction cache before eviction.
    _FEATURE_CACHE_LIMIT = 128

    def _feature_width(self, duration: Optional[float]) -> int:
        fraction = (
            1.0 if duration is None else duration / self.config.duration
        )
        return max(4, int(self.config.n_features * fraction))

    def _features(
        self, dataset: TraceSet, duration: Optional[float]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Feature matrix + labels, cached per (dataset, duration).

        The CV grid asks for the same (dataset, duration) matrix once
        per fold batch, fusion once more, and repeated evaluations yet
        again; extraction (truncate + resample every trace) is pure,
        so it is computed once and cached.
        """
        n_features = self._feature_width(duration)
        key = (
            id(dataset),
            None if duration is None else round(float(duration), 9),
            n_features,
        )
        cached = self._feature_cache.get(key)
        if cached is not None and cached[0] is dataset:
            return cached[1], cached[2]
        # Truncation and resampling happen inside the batched
        # dataset→matrix kernel; no per-duration TraceSet copies.
        X, y = dataset.to_matrix(n_features, duration=duration)
        if len(self._feature_cache) >= self._FEATURE_CACHE_LIMIT:
            self._feature_cache.clear()
        self._feature_cache[key] = (dataset, X, y)
        return X, y

    def evaluate_channel(
        self,
        dataset: TraceSet,
        duration: Optional[float] = None,
        workers: Optional[int] = None,
    ) -> CrossValidationResult:
        """Cross-validate one channel's dataset at one trace duration."""
        X, y = self._features(dataset, duration)
        return cross_validate(
            X,
            y,
            n_folds=self.config.n_folds,
            classifier_factory=self._forest_factory(),
            seed=derive_seed(self.seed, "cv"),
            workers=self._workers(workers),
        )

    def evaluate_table3(
        self,
        datasets: Dict[Tuple[str, str], TraceSet],
        durations: Sequence[float] = TABLE3_DURATIONS,
        workers: Optional[int] = None,
    ) -> Dict[Tuple[str, str, float], CrossValidationResult]:
        """The full Table III grid: channels x durations.

        Each channel's duration cells x folds are one
        :func:`score_fold_batch` — its fold forests grow together over
        feature matrices of every width — and the channels fan out over
        workers as whole batches.  A batch builds its forests where it
        runs and drops them once scored.  The scores per cell are
        exactly what :meth:`evaluate_channel` computes serially.
        """
        tasks = [
            (
                [self._features(dataset, duration) for duration in durations],
                self.config.n_folds,
                self._forest_factory(),
                derive_seed(self.seed, "cv"),
            )
            for dataset in datasets.values()
        ]
        scores = parallel_map(
            _score_cells, tasks, workers=self._workers(workers)
        )
        return {
            (domain, quantity, duration): result
            for (domain, quantity), results in zip(datasets, scores)
            for duration, result in zip(durations, results)
        }

    def evaluate_fused(
        self,
        datasets: Dict[Tuple[str, str], TraceSet],
        channels: Sequence[Tuple[str, str]] = None,
        duration: Optional[float] = None,
    ) -> CrossValidationResult:
        """Fuse several channels into one feature vector and evaluate.

        An attacker is not limited to one sysfs file: the four current
        sensors can be polled concurrently and their traces
        concatenated.  Fusion is our extension beyond Table III —
        it should never do worse than the best single channel by much,
        and typically recovers mistakes single channels make.
        """
        if channels is None:
            channels = [c for c in datasets if c[1] == "current"]
        if not channels:
            raise ValueError("need at least one channel to fuse")
        per_channel = []
        labels = None
        for channel in channels:
            X, y = self._features(datasets[channel], duration)
            per_channel.append(X)
            if labels is None:
                labels = y
            elif not np.array_equal(labels, y):
                raise ValueError(
                    "channels carry differently-ordered labels; collect "
                    "them from the same runs (record_run does this)"
                )
        fused = np.hstack(per_channel)
        return cross_validate(
            fused,
            labels,
            n_folds=self.config.n_folds,
            classifier_factory=self._forest_factory(),
            seed=derive_seed(self.seed, "cv-fused"),
            workers=self.workers,
        )

    def evaluate_fused_degraded(
        self,
        datasets: Dict[Tuple[str, str], TraceSet],
        channels: Sequence[Tuple[str, str]] = None,
    ) -> Dict:
        """Fusion that tolerates channels lost to dead sensors.

        Degraded-mode recording (``on_dead="drop"``) can leave the
        dataset without some requested channels; this wrapper fuses
        whatever survived and reports exactly what was dropped.

        Returns a dict with ``result`` (the fused
        :class:`~repro.ml.validation.CrossValidationResult`),
        ``used_channels`` and ``dropped_channels``.
        """
        if channels is None:
            channels = [c for c in datasets if c[1] == "current"]
        channels = [tuple(channel) for channel in channels]
        used = [
            channel
            for channel in channels
            if channel in datasets and len(datasets[channel]) > 0
        ]
        dropped = [channel for channel in channels if channel not in used]
        if not used:
            raise ValueError(
                f"no fusable channels left: all of {channels} were dropped"
            )
        result = self.evaluate_fused(datasets, channels=used)
        return {
            "result": result,
            "used_channels": used,
            "dropped_channels": dropped,
        }

    # ------------------------------------------- online classification

    def train(self, dataset: TraceSet) -> RandomForestClassifier:
        """Offline phase: fit one channel's classifier on all traces."""
        X, y = self._features(dataset, None)
        forest = self._forest_factory()()
        forest.fit(X, y)
        return forest

    def classify(
        self, classifier: RandomForestClassifier, trace: Trace
    ) -> str:
        """Online phase: name the architecture behind one new trace."""
        features = resample_batch([trace.values], self.config.n_features)
        return str(classifier.predict(features)[0])

    def classify_topk(
        self, classifier: RandomForestClassifier, trace: Trace, k: int = 5
    ) -> List[str]:
        """Online phase, top-k candidates (Table III's second rows)."""
        features = resample_batch([trace.values], self.config.n_features)
        return [str(name) for name in classifier.predict_topk(features, k)[0]]


class DnnFingerprinter(FingerprintAnalyzer):
    """Mounts the fingerprinting attack end to end on one session.

    A :class:`FingerprintAnalyzer` that also records: it triggers
    victim serving runs on the session's SoC and records them through
    the session's sampler (the acquisition plane), then trains and
    evaluates with the inherited analysis methods.  The in-process
    workflow is this one object; the two-machine workflow records with
    this class and analyzes with a :class:`FingerprintAnalyzer` alone.

    Args:
        session: the attacker's foothold (default: a fresh
            :meth:`~repro.session.AttackSession.create`); its seed keys
            the victim runs, forest fitting and CV splits.
        runner: the DPU serving the victims (default: a fresh
            :class:`~repro.dpu.runner.DpuRunner`).
        config / workers: as for :class:`FingerprintAnalyzer`.
    """

    def __init__(
        self,
        session=None,
        runner: Optional[DpuRunner] = None,
        config: Optional[FingerprintConfig] = None,
        workers: Optional[int] = None,
    ):
        if session is None:
            from repro.session import AttackSession

            session = AttackSession.create()
        super().__init__(config=config, seed=session.seed, workers=workers)
        self.session = session
        self.runner = runner if runner is not None else DpuRunner()
        self._clock = 1.0  # virtual experiment time, advanced per run

    @property
    def soc(self) -> Soc:
        return self.session.soc

    @property
    def sampler(self) -> HwmonSampler:
        return self.session.sampler

    # ---------------------------------------------------- collection

    def _next_window(self) -> float:
        """Reserve a fresh time window for one victim run.

        Successive ``record_run`` calls always receive disjoint windows.
        """
        start = self._clock
        guard = 4 * self.soc.device("fpga").update_period
        self._clock += self.config.duration + 0.3 + guard
        return start

    def record_run(
        self,
        model: ModelSpec,
        channels: Sequence[Tuple[str, str]] = TABLE3_CHANNELS,
        run_index: int = 0,
        on_dead: str = "raise",
    ) -> Dict[Tuple[str, str], Trace]:
        """Run one victim serving session and record every channel.

        The victim runs once; all requested sensors observe the same
        physical window (they are independent INA226 devices polling
        the same activity), exactly as concurrent sampling threads on
        the real board would see it.  The channels are recorded through
        the batched acquisition path: one conversion pass per physical
        sensor instead of one per channel.

        ``on_dead="drop"`` enables degraded-mode recording under fault
        injection: channels whose sensor is dead (or suffers a total
        outage) are omitted from the result instead of failing the
        whole run.
        """
        start = self._next_window()
        run_seed = derive_seed(self.seed, f"run-{model.name}-{run_index}")
        self.runner.deploy(
            self.soc,
            model,
            duration=self.config.duration + 0.3,
            seed=run_seed,
            start=start,
        )
        try:
            traces = self.sampler.collect_many(
                channels,
                start=start,
                duration=self.config.duration,
                label=model.name,
                on_dead=on_dead,
            )
        finally:
            self.runner.undeploy(self.soc)
        return traces

    def archive_meta(
        self,
        models: Sequence[str],
        channels: Sequence[Tuple[str, str]] = TABLE3_CHANNELS,
    ) -> Dict:
        """Manifest metadata describing one recording session."""
        return {
            "experiment": "fingerprint",
            "board": self.soc.board.name,
            "seed": self.seed,
            "config": self.config.to_dict(),
            "channels": [list(channel) for channel in channels],
            "models": list(models),
        }

    def collect_datasets(
        self,
        models: Optional[Iterable[str]] = None,
        channels: Sequence[Tuple[str, str]] = TABLE3_CHANNELS,
        traces_per_model: Optional[int] = None,
        sink: Optional[TraceArchiveWriter] = None,
        on_dead: str = "raise",
    ) -> Dict[Tuple[str, str], TraceSet]:
        """Offline phase: labeled trace sets for every channel.

        With ``sink`` given, every recorded trace is appended to the
        archive the moment its run completes — the recording session
        streams to disk as it polls, and the returned in-memory
        datasets match what :meth:`FingerprintAnalyzer.from_archive`
        later loads, bit for bit.  After each completed run the sink
        gets a progress checkpoint.

        A sink reopened via ``TraceArchiveWriter(..., resume=True)``
        resumes the interrupted session (:func:`~repro.core.io.
        resume_point`): the runs it persisted up to its last checkpoint
        are loaded back from disk instead of re-recorded, and the
        writer has already rolled back the chunks of a half-finished
        run, which are re-recorded at the same indices.  Recording is
        deterministic, so the final archive and returned datasets are
        byte-identical to an uninterrupted session's.
        """
        if models is None:
            models = list_models()
        models = list(models)
        if traces_per_model is None:
            traces_per_model = self.config.traces_per_model
        datasets: Dict[Tuple[str, str], TraceSet] = {
            channel: TraceSet() for channel in channels
        }
        state, recovered = resume_point(sink)
        runs_done = int(state.get("runs_done", 0))
        for trace in recovered:
            datasets[(trace.domain, trace.quantity)].add(trace)
        run_index = 0
        for name in models:
            model = build_model(name)
            for repetition in range(traces_per_model):
                if run_index < runs_done:
                    # Already persisted by the interrupted session:
                    # advance the experiment clock exactly as the
                    # recorded run did, but skip the recording.
                    self._next_window()
                    run_index += 1
                    continue
                run = self.record_run(
                    model,
                    channels=channels,
                    run_index=repetition,
                    on_dead=on_dead,
                )
                for channel, trace in run.items():
                    datasets[channel].add(trace)
                    if sink is not None:
                        sink.append(trace)
                run_index += 1
                if sink is not None:
                    sink.checkpoint(
                        {
                            "experiment": "fingerprint",
                            "runs_done": run_index,
                            "model": name,
                            "repetition": repetition,
                        }
                    )
        return datasets
