"""The four benchmark workloads.

Each workload builds its inputs from the benchmark seed alone, passes
every library knob explicitly, and runs in passes that repeat the same
seeded work, so every pass must reproduce the first pass's digest.  A
pass has an untimed ``prepare`` step, a timed ``run`` and an untimed
``check`` that verifies the outputs, digests them and cleans up.

Workload sizes (``SIZES`` / ``SMOKE_SIZES``) are the only scale knobs;
``--smoke`` shrinks them for the benchmark's own tests.
"""

from __future__ import annotations

import hashlib
import importlib
import os
import shutil
from pathlib import Path

import numpy as np

from repro.boards.catalog import list_boards
from repro.core.characterize import characterize
from repro.core.detector import OnsetDetector
from repro.core.fingerprint import (
    TABLE3_CHANNELS,
    TABLE3_DURATIONS,
    DnnFingerprinter,
    FingerprintAnalyzer,
    FingerprintConfig,
)
from repro.core.io import ArchiveError, TraceArchiveReader, TraceArchiveWriter
from repro.core.rsa_attack import RsaHammingWeightAttack, sweep_from_traces
from repro.core.streaming import Interruption, WindowSpec
from repro.crypto import PAPER_HAMMING_WEIGHTS
from repro.dpu.models import build_model, list_models
from repro.dpu.runner import DpuRunner
from repro.faults import FaultPlan
from repro.fleet.jobs import JOB_KINDS, FleetJob
from repro.fleet.scheduler import FleetScheduler
from repro.perf.pool import get_pool, shutdown_pool
from repro.resilience.breaker import BreakerPolicy
from repro.session import AttackSession
from repro.utils.rng import derive_seed

from hostspeed import clock

#: The sampler's stock poll jitter, passed explicitly everywhere.
POLL_JITTER = 120e-6

SIZES = {
    "table3": {
        "models": 12, "traces": 6, "duration": 5.0,
        "durations": TABLE3_DURATIONS, "folds": 5, "trees": 30,
    },
    "acquire": {"samples_per_level": 10_000, "rsa_polls": 100_000},
    "monitor": {
        "train_models": 6, "train_traces": 6, "train_duration": 2.0,
        "trees": 20, "duration": 600.0, "slot": 10.0, "chunk": 0.5,
        "window": 2.0, "hop": 0.5, "fault_rate": 0.05,
    },
    "fleet": {
        "boards": 8, "seeds": 3, "fp_models": 6, "fp_traces": 10,
        "rsa_polls": 35_000,
    },
}

SMOKE_SIZES = {
    "table3": {
        "models": 6, "traces": 4, "duration": 2.0, "durations": (1.0, 2.0),
        "folds": 2, "trees": 6,
    },
    "acquire": {"samples_per_level": 300, "rsa_polls": 4_000},
    "monitor": {
        "train_models": 3, "train_traces": 3, "train_duration": 2.0,
        "trees": 6, "duration": 30.0, "slot": 10.0, "chunk": 0.5,
        "window": 2.0, "hop": 0.5, "fault_rate": 0.05,
    },
    "fleet": {
        "boards": 2, "seeds": 1, "fp_models": 3, "fp_traces": 2,
        "rsa_polls": 2_000,
    },
}


def tree_digest(root):
    """SHA-256 over every file of a directory, independent of its name."""
    digest = hashlib.sha256()
    root = Path(root)
    for path in sorted(root.rglob("*")):
        if path.is_file():
            digest.update(path.relative_to(root).as_posix().encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def _digest(*parts):
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part if isinstance(part, bytes) else repr(part).encode())
    return digest.hexdigest()


class ProgressSink:
    """Archive sink that timestamps every recording checkpoint.

    The acquisition pipelines checkpoint once per recorded unit (one
    victim run, one RSA key), so the gaps between checkpoints are the
    per-unit latencies.  Appends go to ``writer`` when one is given.
    """

    def __init__(self, writer=None):
        self.writer = writer
        self.stamps = [clock()]

    def append(self, trace, *args, **kwargs):
        if self.writer is not None:
            return self.writer.append(trace, *args, **kwargs)
        return None

    def checkpoint(self, state):
        if self.writer is not None:
            self.writer.checkpoint(state)
        self.stamps.append(clock())

    def latencies(self):
        return list(np.diff(self.stamps))


def pass_result(checks, digest, counts, items, ops, failed=None, top1=None):
    """The untimed verdict on one pass.

    ``failed`` defaults to every op of the pass when any check fails.
    """
    if failed is None:
        failed = 0 if all(checks.values()) else ops
    return {
        "checks": checks,
        "digest": digest,
        "counts": counts,
        "items_s": items,
        "ops": ops,
        "failed": failed,
        "top1": top1,
    }


class Workload:
    """One benchmark workload: set-up once, then repeated passes."""

    name = ""
    #: How host slowdowns scale this workload's pass time: it goes as
    #: ``speed ** -speed_exponent`` of the probe's relative host speed
    #: (see hostspeed.py).  Each value is the slope of log pass time on
    #: log speed over one long single-seed run on the 2-vCPU VM the
    #: benchmark was written on.
    speed_exponent = 1.0

    def __init__(self, seed, sizes, workdir, tracer=None):
        self.seed = int(seed)
        self.sizes = sizes
        self.workdir = Path(workdir)
        #: Worker processes the workload runs on, and the dispatch-to-
        #: result latency of each fleet job of the last pass.
        self.workers = 1
        self.job_latency = {}
        #: Span recorder of a traced run (``None`` otherwise); workloads
        #: whose ops are finer than a pass set its op id per op.
        self.tracer = tracer

    def setup(self):
        """Work done once before the first timed pass."""

    def prepare(self, index):
        """Untimed per-pass preparation."""

    def run(self, index):
        """The timed pass; returns its raw outputs."""
        raise NotImplementedError

    def check(self, index, outputs):
        """Verify, digest and clean up one pass (see :func:`pass_result`)."""
        raise NotImplementedError

    def teardown(self):
        """Release what :meth:`setup` acquired."""


class Table3(Workload):
    """Record the Table III dataset to an archive, reopen it, evaluate."""

    name = "table3"
    speed_exponent = 1.4

    def setup(self):
        sizes = self.sizes
        self.models = list_models()[: sizes["models"]]
        self.config = FingerprintConfig(
            duration=sizes["duration"],
            traces_per_model=sizes["traces"],
            n_features=140,
            n_folds=sizes["folds"],
            forest_trees=sizes["trees"],
            forest_depth=32,
        )

    def run(self, index):
        out = self.workdir / f"table3-{index}"
        session = AttackSession.create(
            board="ZCU102", seed=self.seed, poll_jitter=POLL_JITTER, faults=0.0
        )
        fingerprinter = DnnFingerprinter(
            session=session, config=self.config, workers=1
        )
        with TraceArchiveWriter(
            out, meta=fingerprinter.archive_meta(self.models)
        ) as writer:
            progress = ProgressSink(writer)
            fingerprinter.collect_datasets(
                models=self.models,
                channels=TABLE3_CHANNELS,
                traces_per_model=self.sizes["traces"],
                sink=progress,
            )
        analyzer, datasets = FingerprintAnalyzer.from_archive(
            out, workers=1, mmap=True
        )
        grid = analyzer.evaluate_table3(
            datasets, durations=self.sizes["durations"], workers=1
        )
        return out, grid, datasets, progress.latencies()

    def check(self, index, outputs):
        out, grid, datasets, items = outputs
        longest = max(self.sizes["durations"])
        current = grid[("fpga", "current", longest)].top1
        voltage = grid[("fpga", "voltage", longest)].top1
        cells = sorted(
            (cell, result.top1_per_fold, result.top5_per_fold)
            for cell, result in grid.items()
        )
        in_range = all(
            0.0 <= score <= 1.0
            for _, top1, top5 in cells
            for score in top1 + top5
        )
        traces = sum(len(dataset) for dataset in datasets.values())
        polls = sum(
            trace.n_samples for dataset in datasets.values() for trace in dataset
        )
        digest = _digest(cells, tree_digest(out))
        shutil.rmtree(out)
        return pass_result(
            {
                "cells_in_unit_range": in_range,
                "fpga_current_beats_voltage": current > voltage,
            },
            digest,
            {"traces": traces, "polls": polls, "cells": len(cells)},
            items,
            ops=1,
            top1=current,
        )


class Acquire(Workload):
    """Fig 2 characterization and the Fig 4 RSA sweep; no ML."""

    name = "acquire"

    def run(self, index):
        fig2 = characterize(
            session=AttackSession.create(
                seed=self.seed, poll_jitter=POLL_JITTER, faults=0.0
            ),
            samples_per_level=self.sizes["samples_per_level"],
            seed=self.seed,
        )
        attack = RsaHammingWeightAttack(
            session=AttackSession.create(
                seed=self.seed, poll_jitter=POLL_JITTER, faults=0.0
            ),
            sampling_hz=1000.0,
        )
        progress = ProgressSink()
        sweeps = {
            quantity: sweep_from_traces(
                attack.collect_sweep(
                    weights=PAPER_HAMMING_WEIGHTS,
                    quantity=quantity,
                    n_samples=self.sizes["rsa_polls"],
                    sink=progress,
                )
            )
            for quantity in ("current", "power")
        }
        return fig2, sweeps, progress.latencies()

    def check(self, index, outputs):
        fig2, sweeps, items = outputs
        current_groups = sweeps["current"].distinguishable_groups()
        power_groups = sweeps["power"].distinguishable_groups()
        levels = int(fig2.levels.size)
        keys = len(PAPER_HAMMING_WEIGHTS)
        digest = _digest(
            *(
                sweep.means.tobytes()
                for sweep in (fig2.current, fig2.voltage, fig2.power, fig2.ro)
            ),
            sweeps["current"].medians.tobytes(),
            sweeps["power"].medians.tobytes(),
            current_groups,
            power_groups,
        )
        polls = (
            3 * levels * self.sizes["samples_per_level"]
            + 2 * keys * self.sizes["rsa_polls"]
        )
        return pass_result(
            {
                "fig2_current_r": fig2.current.pearson >= 0.99,
                "fig2_lsb_per_level": 30.0 <= fig2.current.lsb_step <= 50.0,
                "fig2_current_vs_ro": fig2.current_vs_ro_variation >= 100.0,
                "fig4_current_separates_all_keys": current_groups == keys,
                "fig4_power_fewer_groups": power_groups < current_groups,
            },
            digest,
            {
                "levels": levels,
                "keys": 2 * keys,
                "polls": polls,
                "current_groups": current_groups,
                "power_groups": power_groups,
            },
            items,
            ops=1,
        )


class Monitor(Workload):
    """Live fingerprinting of a switching victim under injected faults."""

    name = "monitor"
    speed_exponent = 1.2

    def setup(self):
        sizes = self.sizes
        self.models = list_models()[: sizes["train_models"]]
        fingerprinter = DnnFingerprinter(
            session=AttackSession.create(
                seed=self.seed, poll_jitter=POLL_JITTER, faults=0.0
            ),
            config=FingerprintConfig(
                duration=sizes["train_duration"],
                traces_per_model=sizes["train_traces"],
                n_features=140,
                forest_trees=sizes["trees"],
                forest_depth=32,
            ),
            workers=1,
        )
        dataset = fingerprinter.collect_datasets(
            models=self.models, channels=(("fpga", "current"),)
        )[("fpga", "current")]
        self.forest = fingerprinter.train(dataset)
        self.n_features = fingerprinter.config.n_features

    def prepare(self, index):
        sizes = self.sizes
        victim_seed = derive_seed(self.seed, "monitor-victim")
        self.session = AttackSession.create(
            seed=victim_seed,
            poll_jitter=POLL_JITTER,
            faults=FaultPlan.at_rate(
                sizes["fault_rate"], seed=derive_seed(victim_seed, "faults")
            ),
        )
        runner = DpuRunner()
        self.slots = int(sizes["duration"] // sizes["slot"])
        for slot in range(self.slots):
            runner.deploy(
                self.session.soc,
                build_model(self.models[slot % len(self.models)]),
                duration=sizes["slot"],
                seed=self.session.derive(f"victim-{slot}"),
                start=slot * sizes["slot"],
                name=f"victim-{slot}",
            )
        self.poll_hz = self.session.sampler.default_poll_hz("fpga")
        self.spec = WindowSpec(
            max(1, int(round(sizes["window"] * self.poll_hz))),
            max(1, int(round(sizes["hop"] * self.poll_hz))),
        )
        self.out = self.workdir / f"monitor-{index}"

    def run(self, index):
        sizes = self.sizes
        sink = TraceArchiveWriter(
            self.out,
            meta={"experiment": "monitor", "seed": self.seed},
        )
        updates = self.session.monitor(
            self.forest,
            "fpga",
            "current",
            duration=sizes["duration"],
            window_samples=self.spec.window_samples,
            hop_samples=self.spec.hop_samples,
            poll_hz=self.poll_hz,
            chunk_duration=sizes["chunk"],
            n_features=self.n_features,
            top_k=3,
            smoothing=1.0,
            detector=OnsetDetector(),
            sink=sink,
            trace_id="monitor",
        )
        # AttackSession.monitor keeps its analyzer private; the
        # generator's frame holds it (needed for the memory check).
        analyzer = updates.gi_frame.f_locals["analyzer"]
        results = []
        latencies = []
        while True:
            if self.tracer is not None:
                self.tracer.op = f"{index}/{len(results)}"
            begin = clock()
            try:
                update = next(updates)
            except StopIteration:
                break
            latencies.append(clock() - begin)
            results.append(update)
        sink.close()
        # The last update is the end-of-stream flush, not a chunk.
        return results, latencies[:-1], analyzer.peak_resident_samples

    def check(self, index, outputs):
        updates, items, peak = outputs
        sizes = self.sizes
        verdicts = [verdict for update in updates for verdict in update.verdicts]
        interrupted = any(
            isinstance(event, Interruption)
            for update in updates
            for event in update.events
        )
        samples = max(1, int(round(sizes["duration"] * self.poll_hz)))
        chunk_samples = max(1, int(round(sizes["chunk"] * self.poll_hz)))
        hits = judged = 0
        for verdict in verdicts:
            first = int(verdict.window.start_time // sizes["slot"])
            last = int(verdict.window.end_time // sizes["slot"])
            if first == last < self.slots:
                judged += 1
                hits += verdict.label == self.models[first % len(self.models)]
        entries = TraceArchiveReader(self.out).entries
        retries = sum(
            entry.get("quality", {}).get("retries", 0) for entry in entries
        )
        digest = _digest(
            [
                (verdict.window.index, verdict.labels, verdict.confidences)
                for verdict in verdicts
            ],
            tree_digest(self.out),
        )
        shutil.rmtree(self.out)
        return pass_result(
            {
                "no_interruption": not interrupted,
                "expected_verdicts": len(verdicts)
                == self.spec.n_windows(samples),
                "resident_within_bound": peak
                <= self.spec.window_samples + chunk_samples,
            },
            digest,
            {
                "chunks": len(items),
                "verdicts": len(verdicts),
                "samples": sum(entry["n_samples"] for entry in entries),
                "retries": retries,
                "peak_resident_samples": int(peak),
            },
            items,
            ops=len(items),
            top1=hits / judged if judged else 0.0,
        )


class Fleet(Workload):
    """Campaign jobs over the catalog boards through the fleet scheduler."""

    name = "fleet"
    speed_exponent = 1.5

    def setup(self):
        # Job runners import this lazily; import it before the pool
        # forks so every worker starts warm.
        importlib.import_module("repro.core.campaign")
        sizes = self.sizes
        self.workers = len(os.sched_getaffinity(0))
        self.boards = [spec.name for spec in list_boards()][: sizes["boards"]]
        self.kinds = JOB_KINDS
        self.params = {
            "fingerprint": dict(
                models=tuple(list_models()[: sizes["fp_models"]]),
                channels=(("fpga", "current"), ("ddr", "current")),
                duration=1.0,
                traces_per_model=sizes["fp_traces"],
                n_folds=2,
                forest_trees=5,
            ),
            "rsa": dict(
                weights=tuple(PAPER_HAMMING_WEIGHTS),
                quantity="current",
                n_samples=sizes["rsa_polls"],
            ),
            "campaign": dict(
                victim_start=2.0,
                trace_duration=2.0,
                timeout=20.0,
                chunk_duration=1.0,
                victim_amplitude=3.0,
                victim_domain="fpga",
            ),
        }

    def prepare(self, index):
        # A fresh pool per pass, as for one fleet run of the CLI: passes
        # on a long-lived pool drift in speed.  In a traced run the
        # workers so also inherit the wrappers installed for the pass.
        shutdown_pool()
        if self.workers > 1:
            get_pool(self.workers)
        self.out = self.workdir / f"fleet-{index}"
        self.jobs = [
            FleetJob.make(
                kind,
                board,
                seed=self.seed + offset,
                out=self.out / f"{kind}-{board}-{offset}",
                job_id=f"{index}/{kind}/{board}/{offset}",
                **self.params[kind],
            )
            for board in self.boards
            for kind in self.kinds
            for offset in range(self.sizes["seeds"])
        ]

    def run(self, index):
        return FleetScheduler(
            self.jobs,
            max_concurrent=self.workers,
            retries=1,
            use_pool=self.workers > 1,
            workers=self.workers,
            breaker_policy=BreakerPolicy(),
            breaker_seed=self.seed,
        ).run()

    def check(self, index, report):
        failed = 0
        digests = []
        for outcome in report.outcomes:
            job = outcome.job
            try:
                complete = TraceArchiveReader(job.out).complete
            except ArchiveError:
                complete = False
            if outcome.status != "done" or not complete:
                failed += 1
                continue
            digests.append(
                (Path(job.out).name, outcome.result.traces, tree_digest(job.out))
            )
        shutil.rmtree(self.out)
        self.job_latency = {
            outcome.job.job_id: outcome.latency_s for outcome in report.outcomes
        }
        return pass_result(
            {"all_jobs_done_and_sealed": failed == 0},
            _digest(sorted(digests)),
            {
                "jobs": len(report.outcomes),
                "traces": report.traces,
                "polls": report.samples,
            },
            [outcome.latency_s for outcome in report.outcomes],
            ops=len(report.outcomes),
            failed=failed,
        )

    def teardown(self):
        shutdown_pool()


WORKLOADS = {cls.name: cls for cls in (Table3, Acquire, Monitor, Fleet)}
