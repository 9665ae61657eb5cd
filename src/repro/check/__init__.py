"""``repro.check`` — AST-based determinism & concurrency contract checker.

A custom static-analysis pass over the repository's own source that
encodes the contracts the reproduction's claims rest on: explicit
seeding, no wall-clock reads in simulated-time code, fork-safe
parallelism, lock discipline and hwmon API hygiene.  See
:mod:`repro.check.rules` for the rule table and
:mod:`repro.check.baseline` for the grandfathering workflow.

Per-file syntactic rules are complemented by the whole-program flow
layer (:mod:`repro.check.flow`): interprocedural wall-clock taint
tracking and lock-discipline analysis over a project model rebuilt
from every file on every run.

Run it as ``python -m repro check`` (flags: ``--rules``, ``--baseline``,
``--format text|json``, ``--fail-on-findings``, ``--fail-on-stale``,
``--write-baseline``, ``--prune-baseline``, ``--workers``,
``--list-rules``) or programmatically::

    from repro.check import run_check
    result = run_check(["src"])
    assert result.ok, [f.format() for f in result.findings]
"""

from repro.check.baseline import (
    BaselineEntry,
    BaselineError,
    load_baseline,
    prune_baseline,
    write_baseline,
)
from repro.check.engine import (
    CheckResult,
    ParseError,
    UnknownRuleError,
    render_json,
    render_text,
    run_check,
    select_rules,
)
from repro.check.findings import Finding
from repro.check.rules import RULES, Module, Rule

__all__ = [
    "BaselineEntry",
    "BaselineError",
    "CheckResult",
    "Finding",
    "Module",
    "ParseError",
    "RULES",
    "Rule",
    "UnknownRuleError",
    "load_baseline",
    "prune_baseline",
    "render_json",
    "render_text",
    "run_check",
    "select_rules",
    "write_baseline",
]
