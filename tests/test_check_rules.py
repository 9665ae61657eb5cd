"""Per-rule behaviour of the ``repro.check`` static analyzer.

Every registered rule has a pair of fixture snippets under
``tests/data/check_fixtures/``: ``<rule>_bad.py`` that the rule must
flag and ``<rule>_ok.py`` that it must not (whole-program FLOW rules
live in the ``flow/`` subdirectory).  Fixtures are parsed, never
imported, so they may freely reference banned constructs.  PARSE000 is
the one exception: its "fixture" is a file with a syntax error, which
cannot be checked in without breaking linters, so the tests synthesize
it in a temporary directory.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.check import (
    RULES,
    BaselineError,
    Finding,
    UnknownRuleError,
    load_baseline,
    render_json,
    render_text,
    run_check,
    write_baseline,
)

FIXTURES = Path(__file__).parent / "data" / "check_fixtures"

RULE_IDS = sorted(RULES)

#: Rules whose bad fixture is a broken file, synthesized per-test.
SYNTHESIZED = {"PARSE000"}


def _fixture_rel(rule_id: str, kind: str) -> str:
    """Fixture path relative to FIXTURES (FLOW rules live in flow/)."""
    prefix = "flow/" if rule_id.startswith("FLOW") else ""
    return f"{prefix}{rule_id.lower()}_{kind}.py"


def _check_fixture(name: str, rule_id: str):
    """Run one rule over one fixture file, with no baseline."""
    return run_check(
        paths=[FIXTURES / name],
        rules=[rule_id],
        baseline="",
        root=FIXTURES,
        use_cache=False,
    )


# ------------------------------------------------------------------ fixtures


def test_every_rule_has_fixture_pair():
    for rule_id in RULE_IDS:
        if rule_id in SYNTHESIZED:
            continue
        assert (FIXTURES / _fixture_rel(rule_id, "bad")).exists(), rule_id
        assert (FIXTURES / _fixture_rel(rule_id, "ok")).exists(), rule_id


@pytest.mark.parametrize("rule_id", RULE_IDS)
def test_bad_fixture_triggers_rule(rule_id, tmp_path):
    if rule_id in SYNTHESIZED:
        broken = tmp_path / "parse000_bad.py"
        broken.write_text("def f(:\n")
        result = run_check(
            paths=[broken], rules=[rule_id], baseline="",
            root=tmp_path, use_cache=False,
        )
    else:
        result = _check_fixture(_fixture_rel(rule_id, "bad"), rule_id)
    assert result.findings, f"{rule_id} missed its bad fixture"
    assert all(f.rule == rule_id for f in result.findings)


@pytest.mark.parametrize("rule_id", RULE_IDS)
def test_ok_fixture_is_quiet(rule_id, tmp_path):
    if rule_id in SYNTHESIZED:
        fine = tmp_path / "parse000_ok.py"
        fine.write_text("VALUE = 1\n")
        result = run_check(
            paths=[fine], rules=[rule_id], baseline="",
            root=tmp_path, use_cache=False,
        )
    else:
        result = _check_fixture(_fixture_rel(rule_id, "ok"), rule_id)
    assert result.ok, [f.format() for f in result.findings]
    assert not result.findings


def test_bad_fixtures_report_locations():
    result = _check_fixture("rng001_bad.py", "RNG001")
    for finding in result.findings:
        assert finding.path == "rng001_bad.py"
        assert finding.line >= 1
        assert finding.snippet  # the stripped source line
        text = finding.format()
        assert text.startswith("rng001_bad.py:")
        assert "RNG001" in text


@pytest.mark.parametrize(
    "package, flagged", [("repro/perf", True), ("repro/ml", False)]
)
def test_api004_exempts_only_repro_ml(package, flagged, tmp_path):
    """The presorted CART may sort per node; no other package may."""
    target = tmp_path / package / "kernels.py"
    target.parent.mkdir(parents=True)
    target.write_text((FIXTURES / "api004_bad.py").read_text())
    result = run_check(
        paths=[target], rules=["API004"], baseline="",
        root=tmp_path, use_cache=False,
    )
    assert bool(result.findings) == flagged


# --------------------------------------------------------------- selection


def test_unknown_rule_rejected():
    with pytest.raises(UnknownRuleError):
        run_check(
            paths=[FIXTURES],
            rules=["NOPE999"],
            baseline="",
            root=FIXTURES,
        )


def test_rule_selection_is_case_insensitive():
    result = _check_fixture("api003_bad.py", "api003")
    assert result.findings
    assert result.rules_run == ["API003"]


def test_missing_path_raises():
    with pytest.raises(FileNotFoundError):
        run_check(
            paths=[FIXTURES / "does_not_exist.py"],
            baseline="",
            root=FIXTURES,
        )


# ------------------------------------------------------------- suppression


def test_inline_suppression(tmp_path):
    bad = tmp_path / "supp.py"
    bad.write_text(
        "import numpy as np\n"
        "rng = np.random.default_rng()  # repro: ignore[RNG001]\n"
    )
    result = run_check(
        paths=[bad], rules=["RNG001"], baseline="", root=tmp_path
    )
    assert result.ok
    assert result.suppressed == 1


def test_suppression_only_covers_named_rules(tmp_path):
    bad = tmp_path / "supp.py"
    bad.write_text(
        "import numpy as np\n"
        "rng = np.random.default_rng()  # repro: ignore[API002]\n"
    )
    result = run_check(
        paths=[bad], rules=["RNG001"], baseline="", root=tmp_path
    )
    assert not result.ok
    assert result.suppressed == 0


def test_suppression_accepts_rule_lists(tmp_path):
    bad = tmp_path / "supp.py"
    bad.write_text(
        "import numpy as np\n"
        "x = np.random.default_rng()  # repro: ignore[API002, RNG001]\n"
    )
    result = run_check(
        paths=[bad], rules=["RNG001"], baseline="", root=tmp_path
    )
    assert result.ok
    assert result.suppressed == 1


# ---------------------------------------------------------------- baseline


def test_baseline_absorbs_known_findings(tmp_path):
    fixture = FIXTURES / "api002_bad.py"
    fresh = run_check(
        paths=[fixture], rules=["API002"], baseline="", root=FIXTURES
    )
    assert fresh.findings
    baseline_path = tmp_path / "baseline.json"
    write_baseline(baseline_path, fresh.findings, existing=[])
    absorbed = run_check(
        paths=[fixture],
        rules=["API002"],
        baseline=baseline_path,
        root=FIXTURES,
    )
    assert absorbed.ok
    assert len(absorbed.baselined) == len(fresh.findings)
    assert not absorbed.stale_baseline


def test_baseline_keeps_existing_justifications(tmp_path):
    baseline_path = tmp_path / "baseline.json"
    finding = Finding(
        path="x.py", line=1, col=0, rule="API002",
        message="m", snippet="a == 0.5",
    )
    first = write_baseline(baseline_path, [finding], existing=[])
    justified = [
        type(entry)(
            rule=entry.rule,
            path=entry.path,
            snippet=entry.snippet,
            justification="intentional sentinel",
        )
        for entry in first
    ]
    second = write_baseline(baseline_path, [finding], existing=justified)
    assert second[0].justification == "intentional sentinel"
    reloaded = load_baseline(baseline_path)
    assert reloaded[0].justification == "intentional sentinel"


def test_stale_baseline_entries_reported(tmp_path):
    baseline_path = tmp_path / "baseline.json"
    ghost = Finding(
        path="gone.py", line=9, col=0, rule="API002",
        message="m", snippet="y == 1.5",
    )
    write_baseline(baseline_path, [ghost], existing=[])
    result = run_check(
        paths=[FIXTURES / "api002_ok.py"],
        rules=["API002"],
        baseline=baseline_path,
        root=FIXTURES,
    )
    assert result.ok  # stale entries do not fail the run
    assert len(result.stale_baseline) == 1
    assert result.stale_baseline[0].rule == "API002"
    assert "STALE" in render_text(result)


def test_stale_filtering_respects_rule_subset(tmp_path):
    """Entries for rules that did not run are neither used nor stale."""
    baseline_path = tmp_path / "baseline.json"
    ghost = Finding(
        path="gone.py", line=9, col=0, rule="API002",
        message="m", snippet="y == 1.5",
    )
    write_baseline(baseline_path, [ghost], existing=[])
    result = run_check(
        paths=[FIXTURES / "rng001_ok.py"],
        rules=["RNG001"],
        baseline=baseline_path,
        root=FIXTURES,
    )
    assert not result.stale_baseline


def test_malformed_baseline_rejected(tmp_path):
    baseline_path = tmp_path / "baseline.json"
    baseline_path.write_text(json.dumps({"version": 99, "entries": []}))
    with pytest.raises(BaselineError):
        run_check(
            paths=[FIXTURES / "api002_ok.py"],
            baseline=baseline_path,
            root=FIXTURES,
        )


# --------------------------------------------------------------- rendering


def test_render_json_schema():
    result = _check_fixture("api003_bad.py", "API003")
    document = json.loads(render_json(result))
    assert document["version"] == 1
    assert document["ok"] is False
    assert document["summary"]["findings"] == len(result.findings)
    assert document["summary"]["rules_run"] == ["API003"]
    first = document["findings"][0]
    assert set(first) >= {"path", "line", "col", "rule", "message"}


def test_render_text_summary_line():
    result = _check_fixture("api003_ok.py", "API003")
    text = render_text(result)
    assert text.splitlines()[-1].startswith("0 findings")


def test_parse_error_fails_run(tmp_path):
    broken = tmp_path / "broken.py"
    broken.write_text("def f(:\n")
    result = run_check(paths=[broken], baseline="", root=tmp_path)
    assert not result.ok
    assert result.errors and "syntax error" in result.errors[0].message
    assert "PARSE" in render_text(result)
    # with the full rule set, the synthetic PARSE000 finding is there too
    assert any(f.rule == "PARSE000" for f in result.findings)


def test_broken_file_never_checks_green(tmp_path):
    """Even when PARSE000 is deselected, a broken file fails the run."""
    broken = tmp_path / "broken.py"
    broken.write_text("def f(:\n")
    result = run_check(
        paths=[broken], rules=["RNG001"], baseline="",
        root=tmp_path, use_cache=False,
    )
    assert not result.ok
    assert result.errors
    assert not result.findings  # the synthetic finding needs selection
