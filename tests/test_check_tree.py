"""Meta-tests: the shipped tree passes its own static checker.

One whole-tree pass of the library API over ``src/`` is shared by
every shipped-tree test: the text
and JSON reports and the exit codes come from the real ``repro check``
command run in process over that result.  The per-rule fixture
runs, ``--list-rules`` and the usage error also call ``repro.cli.main``
in process; one bad fixture still goes through the real ``python -m
repro check`` entry point as a subprocess.
Any new contract violation fails CI here first.  Marked ``check`` so
the gate can be run in isolation: ``pytest -m check``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro.check
from repro.check import RULES, run_check
from repro.cli import main

REPO = Path(__file__).resolve().parents[1]

pytestmark = pytest.mark.check


def _run_cli(*argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro", "check", *argv],
        cwd=REPO,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.fixture(scope="module")
def tree_result():
    """The one whole-tree checker pass every shipped-tree test reads."""
    return run_check(root=REPO)


@pytest.fixture
def tree_cli(tree_result, monkeypatch, capsys):
    """``repro check ARGS`` in process, over the shared whole-tree pass.

    Returns ``(exit code, stdout)``.  The command must ask for the
    whole tree with every rule.
    """

    def shared_pass(paths, rules, workers):
        assert (paths, rules) == (None, None)
        return tree_result

    monkeypatch.setattr(repro.check, "run_check", shared_pass)

    def run(*argv):
        code = main(["check", *argv])
        return code, capsys.readouterr().out

    return run


@pytest.fixture
def cli(monkeypatch, capsys):
    """``repro check ARGS`` in process, from the repository root.

    Returns ``(exit code, stdout, stderr)``.
    """
    monkeypatch.chdir(REPO)

    def run(*argv):
        code = main(["check", *argv])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return run


def test_shipped_tree_is_clean_via_api(tree_result):
    assert tree_result.ok, "\n".join(f.format() for f in tree_result.findings)
    # Inline waivers are the only exemptions: the eight exact-zero
    # fault-rate sentinels in faults/plan.py, two held-zero powers in
    # soc/workload.py and the fleet scheduler's three report timings.
    assert tree_result.suppressed == 13
    assert tree_result.files_scanned > 50


def test_shipped_tree_is_clean_via_cli(tree_cli):
    code, out = tree_cli("--fail-on-findings")
    assert code == 0, out
    assert out.strip().endswith("files")


def test_cli_json_report_on_shipped_tree(tree_cli):
    code, out = tree_cli("--format", "json")
    assert code == 0, out
    document = json.loads(out)
    assert document["ok"] is True
    assert document["summary"]["findings"] == 0


def test_cli_fails_on_bad_fixture():
    fixture = "tests/data/check_fixtures/rng002_bad.py"
    proc = _run_cli(fixture, "--fail-on-findings")
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "RNG002" in proc.stdout


@pytest.mark.parametrize(
    "rule_id", [rule_id for rule_id in RULES if rule_id != "PARSE000"]
)
def test_cli_fails_on_every_bad_fixture(cli, rule_id):
    subdir = "flow/" if rule_id.startswith("FLOW") else ""
    fixture = (
        f"tests/data/check_fixtures/{subdir}{rule_id.lower()}_bad.py"
    )
    code, out, err = cli(fixture, "--rules", rule_id, "--fail-on-findings")
    assert code == 1, out + err
    assert rule_id in out


def test_shipped_tree_is_flow_clean(tree_result):
    """The whole-program rules ran and found nothing on the tree."""
    flow_rules = ["FLOW003", "FLOW004"]
    assert set(flow_rules) <= set(tree_result.rules_run)
    flow_findings = [
        finding
        for finding in tree_result.findings
        if finding.rule in flow_rules
    ]
    assert not flow_findings, "\n".join(f.format() for f in flow_findings)


def test_cli_unknown_rule_is_usage_error(cli):
    code, _, err = cli("--rules", "BOGUS123")
    assert code == 2
    assert "unknown rule" in err


def test_cli_list_rules(cli):
    code, out, _ = cli("--list-rules")
    assert code == 0
    assert len(out.splitlines()) == len(RULES) == 14
    for rule_id in ("RNG001", "CONC003", "API003"):
        assert rule_id in out
