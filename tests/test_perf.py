"""Unit tests for the repro.perf engine (config, executor) and the
source-wide rules it rests on (documented knobs, no threads)."""

import ast
import re
from pathlib import Path

import pytest

from repro.perf import config
from repro.perf import (
    WORKERS_ENV,
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


def test_no_module_outside_check_starts_threads():
    """Parallelism is the fork process pool alone: no module under
    ``src/repro`` outside the checker names ``threading`` or
    ``ThreadPoolExecutor``, in an import or anywhere else."""
    src = Path(__file__).resolve().parents[1] / "src" / "repro"
    banned = re.compile(r"\b(threading|ThreadPoolExecutor)\b")
    offenders = [
        f"{path.relative_to(src)}:{lineno}"
        for path in sorted(src.rglob("*.py"))
        if path.relative_to(src).parts[0] != "check"
        for lineno, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1
        )
        if banned.search(line)
    ]
    assert not offenders, offenders
