"""Whole-program flow analysis: call graph, taint, cache, SARIF.

Covers the ``repro.check.flow`` layer end to end: cross-module taint
(the rules the per-file checker cannot express), call-graph
resolution, incremental cache invalidation through the module graph,
SARIF rendering, baseline pruning and the ``--changed-only`` git mode.
Marked ``check`` alongside the tree meta-tests.
"""

from __future__ import annotations

import json
import subprocess
import textwrap
from pathlib import Path

import pytest

from repro.check import (
    Finding,
    load_baseline,
    prune_baseline,
    render_sarif,
    run_check,
    write_baseline,
    RULES,
)
from repro.check.flow import (
    CallGraph,
    FLOW_RULE_IDS,
    build_module_graph,
    extract_module_facts,
    module_name_for,
)
from repro.check.flow.modgraph import ModuleGraph
from repro.check.rules import Module

pytestmark = pytest.mark.check

FIXTURES = Path(__file__).parent / "data" / "check_fixtures"
FLOW_FIXTURES = FIXTURES / "flow"


def _facts(tmp_path, name: str, source: str):
    path = tmp_path / f"{name}.py"
    path.write_text(textwrap.dedent(source))
    module = Module.parse(path, f"{name}.py")
    return extract_module_facts(module)


def _check(paths, rules=None, **kwargs):
    kwargs.setdefault("baseline", "")
    kwargs.setdefault("root", FIXTURES)
    kwargs.setdefault("use_cache", False)
    return run_check(paths=paths, rules=rules, **kwargs)


# ------------------------------------------------------- cross-module taint


def test_cross_module_flow001():
    """The tainted generator is constructed in a different module."""
    result = _check(
        [FLOW_FIXTURES / "xmod_source.py",
         FLOW_FIXTURES / "xmod_sink_bad.py"],
        rules=["FLOW001"],
    )
    assert result.findings
    assert {f.path for f in result.findings} == {"flow/xmod_sink_bad.py"}
    assert all(f.rule == "FLOW001" for f in result.findings)


def test_cross_module_flow001_needs_both_files():
    """Scanning the sink alone cannot prove the taint — no finding."""
    result = _check(
        [FLOW_FIXTURES / "xmod_sink_bad.py"], rules=["FLOW001"]
    )
    assert not result.findings


def test_cross_module_flow004():
    """The unlocked-writing task is submitted from another module."""
    result = _check(
        [FLOW_FIXTURES / "xmod_task.py",
         FLOW_FIXTURES / "xmod_launch_bad.py"],
        rules=["FLOW004"],
    )
    assert result.findings
    assert {f.path for f in result.findings} == {"flow/xmod_task.py"}
    assert "xmod_launch_bad" in result.findings[0].message


def test_flow_rules_honor_inline_suppression(tmp_path):
    source = (FLOW_FIXTURES / "flow002_bad.py").read_text()
    source = source.replace(
        "return Trace(samples=noise, seed=0)",
        "return Trace(samples=noise, seed=0)  "
        "# repro: ignore[FLOW002]",
    )
    bad = tmp_path / "suppressed.py"
    bad.write_text(source)
    result = run_check(
        paths=[bad], rules=["FLOW002"], baseline="", root=tmp_path,
        use_cache=False,
    )
    assert result.ok
    assert result.suppressed == 1


def test_flow_findings_can_be_baselined(tmp_path):
    fresh = _check(
        [FLOW_FIXTURES / "flow004_bad.py"], rules=["FLOW004"]
    )
    assert fresh.findings
    baseline_path = tmp_path / "baseline.json"
    write_baseline(baseline_path, fresh.findings, existing=[])
    absorbed = _check(
        [FLOW_FIXTURES / "flow004_bad.py"],
        rules=["FLOW004"],
        baseline=baseline_path,
    )
    assert absorbed.ok
    assert len(absorbed.baselined) == len(fresh.findings)


# ------------------------------------------------------------- call graph


def test_callgraph_resolves_aliased_import(tmp_path):
    helper = _facts(
        tmp_path, "helper", """
        def make():
            return 1
        """,
    )
    caller = _facts(
        tmp_path, "caller", """
        from helper import make as build

        def run():
            return build()
        """,
    )
    graph = CallGraph({f.module: f for f in (helper, caller)})
    assert "helper:make" in graph.edges["caller:run"]


def test_callgraph_resolves_bound_method(tmp_path):
    facts = _facts(
        tmp_path, "bound", """
        class Writer:
            def append(self, item):
                return item

        def run():
            writer = Writer()
            return writer.append(1)
        """,
    )
    graph = CallGraph({facts.module: facts})
    assert "bound:Writer.append" in graph.edges["bound:run"]


def test_callgraph_resolves_self_method(tmp_path):
    facts = _facts(
        tmp_path, "selfm", """
        class Runner:
            def step(self):
                return 1

            def run(self):
                return self.step()
        """,
    )
    graph = CallGraph({facts.module: facts})
    assert "selfm:Runner.step" in graph.edges["selfm:Runner.run"]


def test_callgraph_constructor_edge(tmp_path):
    facts = _facts(
        tmp_path, "ctor", """
        class Thing:
            def __init__(self, x):
                self.x = x

        def build():
            return Thing(1)
        """,
    )
    graph = CallGraph({facts.module: facts})
    assert "ctor:Thing.__init__" in graph.edges["ctor:build"]


def test_callgraph_reachability(tmp_path):
    facts = _facts(
        tmp_path, "reach", """
        def leaf():
            return 1

        def mid():
            return leaf()

        def top():
            return mid()

        def island():
            return 0
        """,
    )
    graph = CallGraph({facts.module: facts})
    reachable = graph.reachable_from(["reach:top"])
    assert {"reach:top", "reach:mid", "reach:leaf"} <= reachable
    assert "reach:island" not in reachable


def test_module_graph_dependents_closure():
    graph = ModuleGraph(
        {
            "a": [],
            "b": ["a"],
            "c": ["b"],
            "d": [],
        }
    )
    assert graph.dependents_closure({"a"}) == {"a", "b", "c"}
    assert graph.dependents_closure({"d"}) == {"d"}


def test_module_name_for_paths():
    assert module_name_for("src/repro/perf/pool.py") == (
        "repro.perf.pool"
    )
    assert module_name_for("src/repro/check/__init__.py") == (
        "repro.check"
    )
    assert module_name_for("flow/flow001_bad.py") == "flow.flow001_bad"


# ------------------------------------------------------------------ cache


def _write_chain(root: Path) -> None:
    (root / "base.py").write_text(
        "def origin():\n    return 1\n"
    )
    (root / "mid.py").write_text(
        "from base import origin\n\n\n"
        "def relay():\n    return origin()\n"
    )
    (root / "top.py").write_text(
        "from mid import relay\n\n\n"
        "def consume():\n    return relay()\n"
    )
    (root / "island.py").write_text(
        "def alone():\n    return 0\n"
    )


def test_cache_warm_run_reanalyzes_nothing(tmp_path):
    _write_chain(tmp_path)
    cache_dir = tmp_path / "cache"
    cold = run_check(
        paths=[tmp_path], baseline="", root=tmp_path,
        cache_dir=cache_dir,
    )
    assert cold.modules_analyzed == 4
    assert cold.cache_hits == 0
    warm = run_check(
        paths=[tmp_path], baseline="", root=tmp_path,
        cache_dir=cache_dir,
    )
    assert warm.modules_analyzed == 0
    assert warm.cache_hits == 4
    assert warm.files_scanned == cold.files_scanned


def test_cache_invalidation_is_transitive(tmp_path):
    _write_chain(tmp_path)
    cache_dir = tmp_path / "cache"
    run_check(
        paths=[tmp_path], baseline="", root=tmp_path,
        cache_dir=cache_dir,
    )
    # editing base invalidates base + mid + top, but not island
    (tmp_path / "base.py").write_text(
        "def origin():\n    return 2\n"
    )
    result = run_check(
        paths=[tmp_path], baseline="", root=tmp_path,
        cache_dir=cache_dir,
    )
    assert result.modules_analyzed == 3
    assert result.cache_hits == 1


def test_cache_catches_new_cross_module_taint(tmp_path):
    """A dependency edit must re-derive its dependents' findings."""
    source = tmp_path / "origin.py"
    sink = tmp_path / "sink.py"
    source.write_text(
        "def make():\n    return 17\n"
    )
    sink.write_text(
        "from origin import make\n"
        "from repro import Trace\n\n\n"
        "def record():\n"
        "    return Trace(samples=make(), seed=0)\n"
    )
    cache_dir = tmp_path / "cache"
    clean = run_check(
        paths=[tmp_path], rules=["FLOW002"], baseline="",
        root=tmp_path, cache_dir=cache_dir,
    )
    assert clean.ok
    # the helper becomes an entropy source; the *sink* must now flag
    source.write_text(
        "import os\n\n\ndef make():\n    return os.urandom(8)\n"
    )
    dirty = run_check(
        paths=[tmp_path], rules=["FLOW002"], baseline="",
        root=tmp_path, cache_dir=cache_dir,
    )
    assert not dirty.ok
    assert {f.path for f in dirty.findings} == {"sink.py"}


def test_cache_entries_survive_rule_subsetting(tmp_path):
    """One cache entry serves any --rules selection."""
    bad = tmp_path / "bad.py"
    bad.write_text(
        "import numpy as np\n\nrng = np.random.default_rng()\n"
    )
    cache_dir = tmp_path / "cache"
    full = run_check(
        paths=[bad], baseline="", root=tmp_path, cache_dir=cache_dir
    )
    assert any(f.rule == "RNG001" for f in full.findings)
    subset = run_check(
        paths=[bad], rules=["API002"], baseline="", root=tmp_path,
        cache_dir=cache_dir,
    )
    assert subset.cache_hits == 1
    assert subset.ok  # RNG001 finding filtered out by selection


# ------------------------------------------------------------------ SARIF


def test_sarif_shape_on_bad_fixture():
    result = _check(
        [FLOW_FIXTURES / "flow001_bad.py"], rules=["FLOW001"]
    )
    document = json.loads(render_sarif(result, RULES))
    assert document["version"] == "2.1.0"
    assert document["$schema"].endswith("sarif-schema-2.1.0.json")
    run = document["runs"][0]
    driver = run["tool"]["driver"]
    assert driver["name"] == "repro-check"
    assert [r["id"] for r in driver["rules"]] == ["FLOW001"]
    sarif_result = run["results"][0]
    assert sarif_result["ruleId"] == "FLOW001"
    assert sarif_result["level"] == "error"
    location = sarif_result["locations"][0]["physicalLocation"]
    assert location["artifactLocation"]["uri"] == (
        "flow/flow001_bad.py"
    )
    assert location["region"]["startLine"] >= 1
    assert "reproCheck/v1" in sarif_result["fingerprints"]
    assert run["invocations"][0]["executionSuccessful"] is False


def test_sarif_marks_baselined_findings(tmp_path):
    fresh = _check(
        [FLOW_FIXTURES / "flow001_bad.py"], rules=["FLOW001"]
    )
    baseline_path = tmp_path / "baseline.json"
    write_baseline(baseline_path, fresh.findings, existing=[])
    absorbed = _check(
        [FLOW_FIXTURES / "flow001_bad.py"],
        rules=["FLOW001"],
        baseline=baseline_path,
    )
    document = json.loads(render_sarif(absorbed, RULES))
    results = document["runs"][0]["results"]
    assert results
    assert all(r["baselineState"] == "unchanged" for r in results)
    assert all(r["level"] == "note" for r in results)


def test_sarif_reports_parse_errors(tmp_path):
    broken = tmp_path / "broken.py"
    broken.write_text("def f(:\n")
    result = run_check(
        paths=[broken], baseline="", root=tmp_path, use_cache=False
    )
    document = json.loads(render_sarif(result, RULES))
    invocation = document["runs"][0]["invocations"][0]
    assert invocation["executionSuccessful"] is False
    notes = invocation["toolExecutionNotifications"]
    assert notes and "syntax error" in notes[0]["message"]["text"]


# ------------------------------------------------------- baseline pruning


def test_prune_baseline_removes_only_stale(tmp_path):
    baseline_path = tmp_path / "baseline.json"
    live = Finding(
        path="flow/flow004_bad.py", line=9, col=4, rule="FLOW004",
        message="m", snippet="COUNTER += 1",
    )
    fresh = _check(
        [FLOW_FIXTURES / "flow004_bad.py"], rules=["FLOW004"]
    )
    write_baseline(baseline_path, fresh.findings, existing=[])
    ghost = Finding(
        path="gone.py", line=1, col=0, rule="FLOW004",
        message="m", snippet="GONE += 1",
    )
    entries = load_baseline(baseline_path)
    write_baseline(
        baseline_path, list(fresh.findings) + [ghost], existing=entries
    )
    result = _check(
        [FLOW_FIXTURES / "flow004_bad.py"],
        rules=["FLOW004"],
        baseline=baseline_path,
    )
    assert len(result.stale_baseline) == 1
    survivors = prune_baseline(
        baseline_path, load_baseline(baseline_path),
        result.stale_baseline,
    )
    assert all(e.path != "gone.py" for e in survivors)
    assert len(survivors) == len(fresh.findings)
    del live  # silence the linter: the fingerprint shape is documented


def test_prune_baseline_keeps_unexercised_rules(tmp_path):
    """Pruning after a --rules subset must not drop other entries."""
    baseline_path = tmp_path / "baseline.json"
    other = Finding(
        path="x.py", line=1, col=0, rule="API002",
        message="m", snippet="a == 0.5",
    )
    write_baseline(baseline_path, [other], existing=[])
    result = _check(
        [FLOW_FIXTURES / "flow004_ok.py"],
        rules=["FLOW004"],
        baseline=baseline_path,
    )
    assert not result.stale_baseline  # API002 did not run
    survivors = prune_baseline(
        baseline_path, load_baseline(baseline_path),
        result.stale_baseline,
    )
    assert len(survivors) == 1


# --------------------------------------------------------- changed-only


def _git(root: Path, *argv: str) -> None:
    subprocess.run(
        ["git", *argv], cwd=root, check=True, capture_output=True,
        env={
            "GIT_AUTHOR_NAME": "t", "GIT_AUTHOR_EMAIL": "t@t",
            "GIT_COMMITTER_NAME": "t", "GIT_COMMITTER_EMAIL": "t@t",
            "PATH": "/usr/bin:/bin:/usr/local/bin",
            "HOME": str(root),
        },
    )


def test_changed_only_tracks_dependents(tmp_path):
    _write_chain(tmp_path)
    _git(tmp_path, "init", "-q")
    _git(tmp_path, "add", "-A")
    _git(tmp_path, "commit", "-qm", "seed")
    # introduce a violation in an untouched file: must NOT be reported
    (tmp_path / "island.py").write_text(
        "import numpy as np\n\nrng = np.random.default_rng()\n"
    )
    _git(tmp_path, "add", "island.py")
    _git(tmp_path, "commit", "-qm", "island violation")
    # now change only base.py
    (tmp_path / "base.py").write_text(
        "def origin():\n    return 3\n"
    )
    result = run_check(
        paths=[tmp_path], baseline="", root=tmp_path,
        use_cache=False, changed_base="HEAD",
    )
    assert result.changed_files is not None
    assert set(result.changed_files) == {"base.py", "mid.py", "top.py"}
    assert not any(f.path == "island.py" for f in result.findings)


def test_changed_only_with_no_changes(tmp_path):
    _write_chain(tmp_path)
    _git(tmp_path, "init", "-q")
    _git(tmp_path, "add", "-A")
    _git(tmp_path, "commit", "-qm", "seed")
    result = run_check(
        paths=[tmp_path], baseline="", root=tmp_path,
        use_cache=False, changed_base="HEAD",
    )
    assert result.changed_files == []
    assert result.ok


# -------------------------------------------------------- flow rule table


def test_every_flow_rule_is_registered():
    for rule_id in FLOW_RULE_IDS:
        assert rule_id in RULES
        assert RULES[rule_id].whole_program


def test_build_module_graph_reflects_imports(tmp_path):
    helper = _facts(
        tmp_path, "h", "def f():\n    return 1\n"
    )
    caller = _facts(
        tmp_path, "c", "import h\n\n\ndef g():\n    return h.f()\n"
    )
    graph = build_module_graph({f.module: f for f in (helper, caller)})
    assert "h" in graph.dependents_closure({"h"})
    assert "c" in graph.dependents_closure({"h"})
