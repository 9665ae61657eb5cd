"""Meta-tests: the shipped tree passes its own static checker.

These run the real ``python -m repro check`` entry point (and the
library API) against ``src/`` with the checked-in baseline, so any new
contract violation fails CI here first.  Marked ``check`` so the gate
can be run in isolation: ``pytest -m check``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.check import RULES, run_check

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


def test_shipped_tree_is_clean_via_api():
    result = run_check(root=REPO)
    assert result.ok, "\n".join(f.format() for f in result.findings)
    assert not result.stale_baseline, [
        entry.fingerprint for entry in result.stale_baseline
    ]
    assert result.files_scanned > 50


def test_shipped_tree_is_clean_via_cli():
    proc = _run_cli("--fail-on-findings")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip().endswith("files")


def test_cli_json_report_on_shipped_tree():
    proc = _run_cli("--format", "json")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    document = json.loads(proc.stdout)
    assert document["ok"] is True
    assert document["summary"]["findings"] == 0
    assert document["summary"]["stale_baseline"] == 0


def test_cli_fails_on_bad_fixture():
    fixture = "tests/data/check_fixtures/rng002_bad.py"
    proc = _run_cli(fixture, "--no-baseline", "--fail-on-findings")
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "RNG002" in proc.stdout


@pytest.mark.parametrize(
    "rule_id", [rule_id for rule_id in RULES if rule_id != "PARSE000"]
)
def test_cli_fails_on_every_bad_fixture(rule_id):
    subdir = "flow/" if rule_id.startswith("FLOW") else ""
    fixture = (
        f"tests/data/check_fixtures/{subdir}{rule_id.lower()}_bad.py"
    )
    proc = _run_cli(
        fixture, "--rules", rule_id, "--no-baseline", "--fail-on-findings"
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert rule_id in proc.stdout


def test_shipped_tree_is_flow_clean():
    """The whole-program rules alone pass on the shipped tree."""
    result = run_check(
        root=REPO,
        rules=["FLOW001", "FLOW002", "FLOW003", "FLOW004", "FLOW005"],
    )
    assert result.ok, "\n".join(f.format() for f in result.findings)


def test_cli_sarif_report_on_shipped_tree():
    proc = _run_cli("--format", "sarif")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    document = json.loads(proc.stdout)
    assert document["version"] == "2.1.0"
    run = document["runs"][0]
    assert run["tool"]["driver"]["name"] == "repro-check"
    assert run["invocations"][0]["executionSuccessful"] is True


def test_cli_unknown_rule_is_usage_error():
    proc = _run_cli("--rules", "BOGUS123")
    assert proc.returncode == 2
    assert "unknown rule" in proc.stderr


def test_cli_list_rules():
    proc = _run_cli("--list-rules")
    assert proc.returncode == 0
    for rule_id in ("RNG001", "CONC002", "API003"):
        assert rule_id in proc.stdout
