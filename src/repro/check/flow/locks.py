"""Fork-safety analysis over the call graph: FLOW004.

FLOW004 — *module-state write on a worker path*.  The set of
functions transitively reachable from any task callable handed to
``parallel_map`` / ``pool.submit`` / ``pool.map`` runs inside
forked workers.  A write to module-level state (a ``global`` assign, a
``STATE[key] = ...`` store, or a mutator call like ``CACHE.update``)
on one of those paths is lost in the child: the parent never sees it.
A lock around the write changes nothing, since the child holds its
own copy of the lock as well as of the state, so every such write is
flagged.  The submitted function itself is on its own path, so a
write there is flagged just as one in a helper in another module is.

The pool internals (``repro/perf/``) are exempt: that layer *is* the
pool, its globals are the per-process pool registry (rebuilt after a
``fork``), and its discipline is pinned by ``tests/test_pool.py``
instead.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.check.findings import Finding
from repro.check.flow.callgraph import CallGraph, FunctionId
from repro.check.flow.symbols import ModuleFacts
from repro.check.rules import PERF_LAYER, _path_matches

__all__ = ["run_worker_writes"]


def run_worker_writes(
    project: Dict[str, ModuleFacts],
    graph: CallGraph,
    selected: Set[str],
) -> List[Finding]:
    """Run FLOW004 and return its findings."""
    if "FLOW004" not in selected:
        return []
    roots = graph.task_roots()
    if not roots:
        return []
    #: task id -> one submission record (first wins, for messages)
    submitted: Dict[FunctionId, dict] = {}
    for task, record in roots:
        submitted.setdefault(task, record)
    reachable = graph.reachable_from(submitted)
    #: function id -> nearest submitted root (for diagnostics)
    origin: Dict[FunctionId, FunctionId] = {}
    for task in submitted:
        for fn_id in graph.reachable_from([task]):
            origin.setdefault(fn_id, task)

    findings: List[Finding] = []
    seen: Set[Tuple[str, int, str]] = set()
    for fn_id in sorted(reachable):
        facts = project.get(graph.module_of(fn_id))
        if facts is None or _path_matches(facts.rel_path, PERF_LAYER):
            continue
        fn = graph.functions[fn_id]
        root = origin.get(fn_id, fn_id)
        record = submitted.get(root, {})
        for write in fn.global_writes:
            key = (facts.rel_path, write["line"], write["name"])
            if key in seen:
                continue
            seen.add(key)
            via = record.get("via", "parallel_map")
            where = (
                f"{record.get('submitter', '?')} line "
                f"{record.get('line', '?')}"
            )
            findings.append(
                Finding(
                    path=facts.rel_path,
                    line=write["line"],
                    col=write["col"],
                    rule="FLOW004",
                    message=(
                        f"{fn.qualname}() writes module-level "
                        f"{write['name']!r} and is reachable from worker "
                        f"task {root.split(':', 1)[1]}() (submitted via "
                        f"{via} at {where}); the write is lost in the "
                        f"forked child, lock or no lock — pass state "
                        f"through return values, or move the write to "
                        f"the parent"
                    ),
                    snippet=facts.snippet(write["line"]),
                )
            )
    return findings
