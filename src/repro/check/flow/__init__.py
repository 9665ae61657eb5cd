"""``repro.check.flow`` — whole-program flow analysis for the checker.

Where :mod:`repro.check.rules` checks one file at a time, this package
builds a *project model* — per-module symbol tables and an
import-alias-resolved call graph — and runs interprocedural analyses
over it:

==========  ===========================================================
Rule        Contract
==========  ===========================================================
FLOW003     a helper's wall-clock return value (``time.time`` /
            ``monotonic`` / ``perf_counter``) must not flow into
            simulated-time code outside ``repro/perf`` — including a
            helper defined under ``repro/perf``, which TIME001 exempts
FLOW004     no write to module-level state in any function
            transitively reachable from a ``parallel_map`` /
            ``pool.submit`` task callable, the task itself
            included — held lock or not, a forked worker's write
            never reaches the parent
==========  ===========================================================

Entropy needs no whole-program rule: RNG001-RNG003 ban every unseeded
or OS entropy source at the line where it appears, in every module.
Lock order needs none either: no module outside ``repro.check`` starts
a thread, so there is no lock to order.

The per-module half (fact extraction, :mod:`repro.check.flow.symbols`)
is pure per file and fans out over the worker pool; the whole-program
half here is a cheap fixpoint over those facts.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set

from repro.check.findings import Finding
from repro.check.flow.callgraph import CallGraph
from repro.check.flow.locks import run_worker_writes
from repro.check.flow.symbols import (
    ModuleFacts,
    extract_module_facts,
    module_name_for,
)
from repro.check.flow.taint import run_taint

__all__ = [
    "CallGraph",
    "FLOW_RULE_IDS",
    "ModuleFacts",
    "extract_module_facts",
    "module_name_for",
    "run_flow_analysis",
]

FLOW_RULE_IDS = ("FLOW003", "FLOW004")


def run_flow_analysis(
    project: Dict[str, ModuleFacts],
    selected: Iterable[str],
) -> List[Finding]:
    """Run every selected FLOW rule over the assembled project model."""
    wanted: Set[str] = set(selected) & set(FLOW_RULE_IDS)
    if not wanted or not project:
        return []
    graph = CallGraph(project)
    findings: List[Finding] = []
    findings.extend(run_taint(project, graph, wanted))
    findings.extend(run_worker_writes(project, graph, wanted))
    return findings
