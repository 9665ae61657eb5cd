"""Unit tests for the repro.perf engine (config, executor, timer)."""

import ast
import json
import re
import time
from pathlib import Path

import pytest

from repro.perf import config
from repro.perf import (
    WORKERS_ENV,
    StageTimer,
    available_cpus,
    in_worker,
    parallel_map,
    resolve_workers,
)


def _square(x):
    return x * x


def _probe_worker_flag(_):
    from repro.perf.executor import in_worker

    return in_worker()


class TestResolveWorkers:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        assert resolve_workers(None) == 1

    def test_explicit_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "7")
        assert resolve_workers(3) == 3

    def test_env_applies_when_unspecified(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "5")
        assert resolve_workers(None) == 5

    def test_zero_means_all_cpus(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        assert resolve_workers(0) == available_cpus()
        assert resolve_workers(-1) == available_cpus()

    def test_custom_default(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        assert resolve_workers(None, default=4) == 4

    def test_bad_env_rejected(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "lots")
        with pytest.raises(ValueError):
            resolve_workers(None)

    def test_sanity_cap(self):
        with pytest.raises(ValueError):
            resolve_workers(100_000)

    def test_available_cpus_positive(self):
        assert available_cpus() >= 1


class TestParallelMap:
    def test_serial_matches_comprehension(self):
        items = list(range(20))
        assert parallel_map(_square, items, workers=1) == [
            _square(i) for i in items
        ]

    def test_parallel_preserves_order_and_values(self):
        items = list(range(23))
        assert parallel_map(_square, items, workers=3) == [
            _square(i) for i in items
        ]

    def test_empty_items(self):
        assert parallel_map(_square, [], workers=4) == []

    def test_single_item_runs_inline(self):
        assert parallel_map(_square, [6], workers=8) == [36]

    def test_workers_marked(self):
        flags = parallel_map(_probe_worker_flag, range(4), workers=2)
        assert all(flags)
        # The parent process is not a worker.
        assert not in_worker()

    def test_nested_call_degrades_to_serial(self, monkeypatch):
        # Simulate being inside a pool worker: nested fan-out must not
        # fork another pool (it would oversubscribe), just run inline.
        import repro.perf.executor as executor

        monkeypatch.setattr(executor, "_IN_WORKER", True)
        flags = parallel_map(_probe_worker_flag, range(3), workers=4)
        assert flags == [True, True, True]


class TestStageTimer:
    def test_records_stages_in_order(self):
        timer = StageTimer()
        with timer.stage("a"):
            pass
        with timer.stage("b"):
            time.sleep(0.01)
        stages = timer.as_dict()
        assert list(stages) == ["a", "b"]
        assert stages["b"] >= 0.01
        assert timer.total == pytest.approx(sum(stages.values()))

    def test_reentry_accumulates(self):
        timer = StageTimer()
        for _ in range(3):
            with timer.stage("loop"):
                time.sleep(0.002)
        assert timer.elapsed("loop") >= 0.006
        assert len(timer.as_dict()) == 1

    def test_unknown_stage_is_zero(self):
        assert StageTimer().elapsed("nope") == 0.0

    def test_exception_still_recorded(self):
        timer = StageTimer()
        with pytest.raises(RuntimeError):
            with timer.stage("boom"):
                raise RuntimeError("x")
        assert timer.elapsed("boom") > 0.0

    def test_report_is_json_serializable(self):
        timer = StageTimer()
        with timer.stage("s"):
            pass
        json.dumps(timer.as_dict())


class TestEnvKnobDocs:
    """The knobs the code reads are exactly the knobs the docs list."""

    REPO = Path(__file__).resolve().parents[1]
    KNOB = re.compile(r"AMPEREBLEED_[A-Z_]*[A-Z]")

    def _source_knobs(self):
        """Every knob named in a string literal under ``src/``."""
        knobs = set()
        for path in (self.REPO / "src").rglob("*.py"):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if isinstance(node, ast.Constant) and isinstance(
                    node.value, str
                ):
                    knobs.update(self.KNOB.findall(node.value))
        return knobs

    def _readme_knobs(self):
        text = (self.REPO / "README.md").read_text(encoding="utf-8")
        section = text.split("### Environment knobs", 1)[1]
        section = section.split("\n#", 1)[0]
        return {
            match
            for line in section.splitlines()
            if line.startswith("| `AMPEREBLEED_")
            for match in self.KNOB.findall(line)
        }

    def test_source_literals_match_config_docstring_and_readme(self):
        documented = set(self.KNOB.findall(config.__doc__))
        assert self._source_knobs() == documented
        assert self._readme_knobs() == documented
