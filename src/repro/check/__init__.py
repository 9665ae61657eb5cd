"""``repro.check`` — AST-based determinism & concurrency contract checker.

A custom static-analysis pass over the repository's own source that
encodes the contracts the reproduction's claims rest on: explicit
seeding, no wall-clock reads in simulated-time code, fork-safe
parallelism and hwmon API hygiene.  See :mod:`repro.check.rules` for
the rule table.  The one waiver mechanism is an inline
``# repro: ignore[RULE] reason`` comment on the flagged line.

Per-file syntactic rules are complemented by the whole-program flow
layer (:mod:`repro.check.flow`): interprocedural wall-clock taint
tracking and worker-path write analysis over a project model rebuilt
from every file on every run.

Run it as ``python -m repro check`` (flags: ``--rules``,
``--format text|json``, ``--fail-on-findings``, ``--workers``,
``--output``, ``--list-rules``) or programmatically::

    from repro.check import run_check
    result = run_check(["src"])
    assert result.ok, [f.format() for f in result.findings]
"""

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
    "CheckResult",
    "Finding",
    "Module",
    "ParseError",
    "RULES",
    "Rule",
    "UnknownRuleError",
    "render_json",
    "render_text",
    "run_check",
    "select_rules",
]
