"""Lock-discipline and fork-safety analysis over the call graph.

FLOW004 — *unlocked shared write on a worker path*.  The set of
functions transitively reachable from any task callable handed to
``parallel_map`` / ``pool.submit`` / ``pool.map`` runs inside
forked workers.  A write to module-level state (a ``global`` assign, a
``STATE[key] = ...`` store, or a mutator call like ``CACHE.update``)
on one of those paths is lost in the child — or races the parent when
the pool ever goes threaded — unless a lock lexically dominates it.
The submitted function itself is on its own path, so a write there is
flagged just as one in a helper in another module is.

FLOW005 — *inconsistent lock-acquisition order*.  Every ``with``-block
acquisition records (held, inner) pairs, including pairs completed
through calls (caller holds A, callee acquires B).  Two locks acquired
in both orders anywhere in the program is the classic ABBA deadlock
shape; both sites are reported.

The pool internals (``repro/perf/``) are exempt from FLOW004: that
layer *is* the pool (its globals are the pool registry, guarded by
its own lock) and its discipline is pinned by ``tests/test_pool.py``
instead.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.check.findings import Finding
from repro.check.flow.callgraph import CallGraph, FunctionId
from repro.check.flow.symbols import ModuleFacts
from repro.check.rules import PERF_LAYER, _path_matches

__all__ = ["run_locks", "LockAnalysis"]


def _short_lock(lock: str) -> str:
    """Human-readable tail of a qualified lock identity."""
    return lock.split("::")[-1].split(".")[-1] if lock else lock


class LockAnalysis:
    """Worker-path write checking and global lock-order merging."""

    def __init__(self, project: Dict[str, ModuleFacts], graph: CallGraph):
        self.project = project
        self.graph = graph
        self.facts_by_id = graph.functions
        #: function id -> locks it (transitively) may acquire
        self.acquires: Dict[FunctionId, Set[str]] = {
            fn_id: set(fn.locks_acquired)
            for fn_id, fn in graph.functions.items()
        }
        self._close_acquires()

    def _close_acquires(self) -> None:
        changed = True
        while changed:
            changed = False
            for fn_id, callees in self.graph.edges.items():
                mine = self.acquires[fn_id]
                before = len(mine)
                for callee in callees:
                    mine |= self.acquires.get(callee, set())
                if len(mine) != before:
                    changed = True

    # -- FLOW004 --------------------------------------------------------

    def worker_write_findings(self) -> List[Finding]:
        roots = self.graph.task_roots()
        if not roots:
            return []
        #: task id -> one submission record (first wins, for messages)
        submitted: Dict[FunctionId, dict] = {}
        for task, record in roots:
            submitted.setdefault(task, record)
        reachable = self.graph.reachable_from(submitted)
        #: function id -> nearest submitted root (for diagnostics)
        origin: Dict[FunctionId, FunctionId] = {}
        for task in submitted:
            for fn_id in self.graph.reachable_from([task]):
                origin.setdefault(fn_id, task)

        findings: List[Finding] = []
        seen: Set[Tuple[str, int, str]] = set()
        for fn_id in sorted(reachable):
            module_name = self.graph.module_of(fn_id)
            facts = self.project.get(module_name)
            if facts is None:
                continue
            if _path_matches(facts.rel_path, PERF_LAYER):
                continue
            fn = self.facts_by_id[fn_id]
            root = origin.get(fn_id, fn_id)
            record = submitted.get(root, {})
            for write in fn.global_writes:
                if write["locks_held"]:
                    continue
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
                            f"{write['name']!r} without holding a lock, "
                            f"and is reachable from worker task "
                            f"{root.split(':', 1)[1]}() (submitted via "
                            f"{via} at {where}); the write is lost in "
                            f"the forked child — pass state through "
                            f"return values, or guard it with a lock "
                            f"if it is parent-side"
                        ),
                        snippet=facts.snippet(write["line"]),
                    )
                )
        return findings

    # -- FLOW005 --------------------------------------------------------

    def lock_order_findings(self) -> List[Finding]:
        #: (outer, inner) -> first site (rel_path, line, snippet)
        edges: Dict[Tuple[str, str], Tuple[str, int, str]] = {}
        for module_name, facts in self.project.items():
            for qualname, fn in facts.functions.items():
                fn_id = f"{module_name}:{qualname}"
                for pair in fn.lock_pairs:
                    key = (pair["outer"], pair["inner"])
                    edges.setdefault(
                        key,
                        (
                            facts.rel_path,
                            pair["line"],
                            facts.snippet(pair["line"]),
                        ),
                    )
                # calls made while holding a lock: the callee's
                # transitive acquisitions complete the pair.
                for idx, site in enumerate(fn.calls):
                    if not site.locks_held:
                        continue
                    callee = self.graph.site_targets.get((fn_id, idx))
                    if callee is None:
                        continue
                    for inner in self.acquires.get(callee, ()):
                        for outer in site.locks_held:
                            if outer == inner:
                                continue
                            edges.setdefault(
                                (outer, inner),
                                (
                                    facts.rel_path,
                                    site.line,
                                    facts.snippet(site.line),
                                ),
                            )

        findings: List[Finding] = []
        reported: Set[Tuple[str, str]] = set()
        for (outer, inner), site in sorted(edges.items()):
            reverse = (inner, outer)
            if reverse not in edges:
                continue
            pair_key = (min(outer, inner), max(outer, inner))
            if pair_key in reported:
                continue
            reported.add(pair_key)
            for (a, b) in ((outer, inner), reverse):
                rel_path, line, snippet = edges[(a, b)]
                other = edges[(b, a)]
                findings.append(
                    Finding(
                        path=rel_path,
                        line=line,
                        col=0,
                        rule="FLOW005",
                        message=(
                            f"lock {_short_lock(b)} is acquired while "
                            f"holding {_short_lock(a)} here, but the "
                            f"opposite order occurs at {other[0]}:"
                            f"{other[1]} — inconsistent ordering is "
                            f"the ABBA deadlock shape; pick one global "
                            f"order for ({_short_lock(a)}, "
                            f"{_short_lock(b)}) and apply it at both "
                            f"sites"
                        ),
                        snippet=snippet,
                    )
                )
        return findings


def run_locks(
    project: Dict[str, ModuleFacts],
    graph: CallGraph,
    selected: Set[str],
) -> List[Finding]:
    """Run FLOW004/FLOW005 and return their findings."""
    if not selected & {"FLOW004", "FLOW005"}:
        return []
    analysis = LockAnalysis(project, graph)
    findings: List[Finding] = []
    if "FLOW004" in selected:
        findings.extend(analysis.worker_write_findings())
    if "FLOW005" in selected:
        findings.extend(analysis.lock_order_findings())
    return findings
