"""Whole-program flow analysis: call graph, taint, fresh runs.

Covers the ``repro.check.flow`` layer end to end: cross-module
wall-clock taint and fork safety (the rules the per-file checker
cannot express), call-graph resolution, and re-runs that must see
every edit and every rule change.  Marked ``check`` alongside the tree
meta-tests.
"""

from __future__ import annotations

import ast
import dataclasses
import textwrap
from pathlib import Path

import pytest

from repro.check import RULES, run_check
from repro.check.flow import (
    CallGraph,
    FLOW_RULE_IDS,
    extract_module_facts,
    module_name_for,
)
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
    kwargs.setdefault("root", FIXTURES)
    return run_check(paths=paths, rules=rules, **kwargs)


# ------------------------------------------------------- cross-module taint


def test_cross_module_flow003():
    """The wall-clock helper is defined in a different module."""
    result = _check(
        [FLOW_FIXTURES / "xmod_source.py",
         FLOW_FIXTURES / "xmod_sink_bad.py"],
        rules=["FLOW003"],
    )
    assert [(f.path, f.line, f.rule) for f in result.findings] == [
        ("flow/xmod_sink_bad.py", 6, "FLOW003")
    ]


def test_cross_module_flow003_needs_both_files():
    """Scanning the consumer alone cannot prove the taint — no finding."""
    result = _check(
        [FLOW_FIXTURES / "xmod_sink_bad.py"], rules=["FLOW003"]
    )
    assert not result.findings


def test_flow003_sees_a_perf_helper_consumed_outside_perf(tmp_path):
    """TIME001 exempts the clock read under repro/perf; FLOW003 flags
    the simulated-time code that consumes it."""
    helper = tmp_path / "repro" / "perf" / "clock.py"
    consumer = tmp_path / "repro" / "core" / "schedule.py"
    helper.parent.mkdir(parents=True)
    consumer.parent.mkdir(parents=True)
    helper.write_text(
        "import time\n\n\ndef wall_now():\n    return time.perf_counter()\n"
    )
    consumer.write_text(
        "from repro.perf.clock import wall_now\n\n\n"
        "def next_tick(period):\n"
        "    return wall_now() + period\n"
    )
    result = run_check(
        paths=[tmp_path], rules=["TIME001", "FLOW003"],
        root=tmp_path,
    )
    assert [(f.path, f.line, f.rule) for f in result.findings] == [
        ("repro/core/schedule.py", 5, "FLOW003")
    ]


def test_cross_module_flow004():
    """The state-writing task is submitted from another module."""
    result = _check(
        [FLOW_FIXTURES / "xmod_task.py",
         FLOW_FIXTURES / "xmod_launch_bad.py"],
        rules=["FLOW004"],
    )
    assert result.findings
    assert {f.path for f in result.findings} == {"flow/xmod_task.py"}
    assert "xmod_launch_bad" in result.findings[0].message


def test_flow004_flags_every_write_kind():
    """``global`` assign, mutator call and item store are each flagged,
    and so is a store under a lock: the worker's lock is its own."""
    result = _check(
        [FLOW_FIXTURES / "flow004_bad.py"], rules=["FLOW004"]
    )
    assert [(f.line, f.snippet) for f in result.findings] == [
        (15, "COUNTER += 1"),
        (21, "_RESULTS.append(item * 2)"),
        (26, "_CACHE[item] = item * 2"),
        (33, "_SEEN[item] = True"),
    ]


def test_flow_rules_honor_inline_suppression(tmp_path):
    fixture = FLOW_FIXTURES / "flow003_bad.py"
    flagged = {f.line for f in _check([fixture], rules=["FLOW003"]).findings}
    lines = fixture.read_text().splitlines()
    for line in flagged:
        lines[line - 1] += "  # repro: ignore[FLOW003]"
    bad = tmp_path / "suppressed.py"
    bad.write_text("\n".join(lines) + "\n")
    result = run_check(
        paths=[bad], rules=["FLOW003"], root=tmp_path,
    )
    assert result.ok
    assert result.suppressed == len(flagged) == 3


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


def test_module_name_for_paths():
    assert module_name_for("src/repro/perf/pool.py") == (
        "repro.perf.pool"
    )
    assert module_name_for("src/repro/check/__init__.py") == (
        "repro.check"
    )
    assert module_name_for("flow/flow003_bad.py") == "flow.flow003_bad"


# ------------------------------------------------------------ fresh runs


def test_rerun_catches_new_cross_module_taint(tmp_path):
    """A dependency edit must re-derive its dependents' findings."""
    source = tmp_path / "origin.py"
    sink = tmp_path / "sink.py"
    source.write_text(
        "def make():\n    return 17\n"
    )
    sink.write_text(
        "from origin import make\n\n\n"
        "def next_tick(period):\n"
        "    return make() + period\n"
    )
    clean = run_check(
        paths=[tmp_path], rules=["FLOW003"], root=tmp_path,
    )
    assert clean.ok
    # the helper starts reading the wall clock; its *caller* must flag
    source.write_text(
        "import time\n\n\ndef make():\n    return time.time()\n"
    )
    dirty = run_check(
        paths=[tmp_path], rules=["FLOW003"], root=tmp_path,
    )
    assert not dirty.ok
    assert {f.path for f in dirty.findings} == {"sink.py"}


def test_rerun_sees_a_changed_rule(tmp_path, monkeypatch):
    """A rule edited between two runs over unchanged files is applied.

    The files do not change, only the rule does: a run that answered
    from results stored by the first run would report the old rule's
    findings.
    """
    (tmp_path / "flat.py").write_text(
        "def level(x):\n    return x == 1\n"
    )
    before = run_check(
        paths=[tmp_path], rules=["API002"], root=tmp_path,
        workers=1,
    )
    assert before.ok  # ``x == 1`` compares against an int literal

    def flag_every_compare(module):
        return [
            module.finding("API002", node, "widened")
            for node in module.nodes
            if isinstance(node, ast.Compare)
        ]

    monkeypatch.setitem(
        RULES, "API002",
        dataclasses.replace(RULES["API002"], check=flag_every_compare),
    )
    after = run_check(
        paths=[tmp_path], rules=["API002"], root=tmp_path,
        workers=1,
    )
    assert [(f.path, f.line, f.message) for f in after.findings] == [
        ("flat.py", 2, "widened")
    ]


def test_no_run_leaves_state_behind(tmp_path):
    (tmp_path / "one.py").write_text("VALUE = 1\n")
    run_check(paths=[tmp_path], root=tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["one.py"]


# -------------------------------------------------------- flow rule table


def test_every_flow_rule_is_registered():
    assert FLOW_RULE_IDS == ("FLOW003", "FLOW004")
    assert [
        rule_id for rule_id in RULES if rule_id.startswith("FLOW")
    ] == list(FLOW_RULE_IDS)
    for rule_id in FLOW_RULE_IDS:
        assert RULES[rule_id].whole_program
