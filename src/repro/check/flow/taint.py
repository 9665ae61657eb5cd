"""Interprocedural wall-clock taint: FLOW003.

One taint domain, ``wallclock``, runs over the call graph: values
returned by ``time.time``/``monotonic``/``perf_counter`` and the
datetime ``now``-style constructors (the TIME001 call set,
:data:`repro.check.rules.WALL_CLOCK_CALLS`).  A call site *outside* the
timing layer (``repro/perf``) whose resolved project callee returns a
wall-clock-tainted value is FLOW003: real time has leaked into
simulated-time computation through a helper, which the per-file
TIME001 rule cannot see — in particular a helper defined under
``repro/perf``, which TIME001 exempts.  There are no sinks and no
sanitizers: the call site itself is the finding.

The algorithm is summary-based: each function's return taint and
self-attribute writes are evaluated from its local facts
(:class:`~repro.check.flow.symbols.FunctionFacts`), with call atoms
resolved through the call graph, iterated to a fixpoint (the tainted
sets only grow, so termination is structural).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.check.findings import Finding
from repro.check.flow.callgraph import CallGraph, FunctionId
from repro.check.flow.symbols import ModuleFacts
from repro.check.rules import PERF_LAYER, WALL_CLOCK_CALLS, _path_matches

__all__ = ["TaintAnalysis", "run_taint"]

#: ``(tainted, parameter indices)`` — whether a value may carry wall
#: time, and which of the enclosing function's parameters flow into it.
Taint = Tuple[bool, Set[int]]


def _class_key(module: str, qualname: str) -> Optional[str]:
    """``"<module>:<Class>"`` for a method's qualname, else ``None``."""
    cls = qualname.split(".<locals>.")[0]
    if "." not in cls:
        return None
    return f"{module}:{cls.rsplit('.', 1)[0]}"


class TaintAnalysis:
    """Fixpoint wall-clock summaries over a resolved call graph."""

    def __init__(self, project: Dict[str, ModuleFacts], graph: CallGraph):
        self.project = project
        self.graph = graph
        #: functions whose return value may carry wall time
        self.returns: Set[FunctionId] = set()
        #: function id -> parameter indices that flow to its return
        self.ret_params: Dict[FunctionId, Set[int]] = {
            fn: set() for fn in graph.functions
        }
        #: ``(<module>:<Class>, attr)`` pairs that ever store wall time
        self.class_attrs: Set[Tuple[str, str]] = set()
        self._solve()

    # -- evaluation -----------------------------------------------------

    def eval_atoms(
        self,
        atoms,
        fn_id: FunctionId,
        _guard: Optional[Set[Tuple[FunctionId, int]]] = None,
    ) -> Taint:
        """Evaluate taint atoms in the context of ``fn_id``."""
        module, qualname = fn_id.split(":", 1)
        fn = self.graph.functions[fn_id]
        tainted = False
        params: Set[int] = set()
        guard = _guard if _guard is not None else set()
        for atom in atoms:
            tag, _, value = atom.partition(":")
            if tag == "param":
                params.add(int(value))
            elif tag == "selfattr":
                tainted |= (
                    _class_key(module, qualname), value
                ) in self.class_attrs
            elif tag == "call":
                idx = int(value)
                if (fn_id, idx) in guard or idx >= len(fn.calls):
                    continue
                guard.add((fn_id, idx))
                call_tainted, call_params = self._eval_call(fn_id, idx, guard)
                guard.discard((fn_id, idx))
                tainted |= call_tainted
                params |= call_params
        return tainted, params

    def _eval_call(
        self,
        fn_id: FunctionId,
        idx: int,
        guard: Set[Tuple[FunctionId, int]],
    ) -> Taint:
        """Taint the result of one call site may carry."""
        site = self.graph.functions[fn_id].calls[idx]
        if site.name in WALL_CLOCK_CALLS:
            return True, set()

        callee = self.graph.site_targets.get((fn_id, idx))
        if callee is not None:
            # A project function: its summary, plus the arguments that
            # flow to its return.
            tainted = callee in self.returns
            flowing = [
                site.args[i]
                for i in self.ret_params.get(callee, ())
                if i < len(site.args)
            ]
        else:
            # Unresolved (builtin/third-party) call: taint flows
            # through — int(time.time()), np.asarray(values).
            flowing = [*site.args, *site.kwargs.values(), site.base]
            tainted = False
        params: Set[int] = set()
        for atom_set in flowing:
            arg_tainted, arg_params = self.eval_atoms(atom_set, fn_id, guard)
            tainted |= arg_tainted
            params |= arg_params
        return tainted, params

    # -- fixpoint -------------------------------------------------------

    def _solve(self) -> None:
        for _ in range(50):
            changed = False
            for fn_id, fn in self.graph.functions.items():
                tainted, params = self.eval_atoms(fn.returns, fn_id)
                if tainted and fn_id not in self.returns:
                    self.returns.add(fn_id)
                    changed = True
                if not params <= self.ret_params[fn_id]:
                    self.ret_params[fn_id] |= params
                    changed = True
                # class attribute stores
                key = _class_key(*fn_id.split(":", 1))
                if key is None:
                    continue
                for attr, atoms in fn.self_writes.items():
                    if (key, attr) not in self.class_attrs and (
                        self.eval_atoms(atoms, fn_id)[0]
                    ):
                        self.class_attrs.add((key, attr))
                        changed = True
            if not changed:
                break

    # -- findings -------------------------------------------------------

    def findings(self) -> List[Finding]:
        out: List[Finding] = []
        for module_name, facts in self.project.items():
            if _path_matches(facts.rel_path, PERF_LAYER):
                continue
            for qualname, fn in facts.functions.items():
                fn_id = f"{module_name}:{qualname}"
                for idx, site in enumerate(fn.calls):
                    callee = self.graph.site_targets.get((fn_id, idx))
                    if callee not in self.returns:
                        continue
                    out.append(
                        Finding(
                            path=facts.rel_path,
                            line=site.line,
                            col=site.col,
                            rule="FLOW003",
                            message=(
                                f"{site.name}() returns a wall-clock-"
                                f"derived value (defined in "
                                f"{self.graph.module_of(callee)}) which "
                                f"flows into simulated-time code here; "
                                f"derive times from the experiment "
                                f"clock (only repro/perf may consume "
                                f"wall time)"
                            ),
                            snippet=facts.snippet(site.line),
                        )
                    )
        return out


def run_taint(
    project: Dict[str, ModuleFacts],
    graph: CallGraph,
    selected: Set[str],
) -> List[Finding]:
    """Run the wall-clock domain; return FLOW003 findings."""
    if "FLOW003" not in selected:
        return []
    return TaintAnalysis(project, graph).findings()
