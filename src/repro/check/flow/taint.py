"""Interprocedural taint analysis: entropy and wall-clock domains.

Two taint lattices run over the call graph in one fixpoint:

* **entropy** — values originating from an *unseeded*
  ``numpy.random.default_rng()`` / ``SeedSequence()`` (kind
  ``entropy``) or from OS/clock entropy — ``os.urandom``,
  ``secrets.*``, stdlib ``random.*``, ``uuid.uuid4`` or a
  ``default_rng`` seeded from a wall-clock value (kind ``os-entropy``).
  Neither may reach a recording sink (``Trace``/``TraceSet``
  construction, archive writes, classifier ``fit``) except through the
  :func:`repro.utils.rng.ensure_rng` / ``spawn`` sanitizers.
  Violations are FLOW001 (unseeded generator taint) and FLOW002
  (OS/clock entropy taint).

* **wallclock** — values returned by ``time.time``/``monotonic``/
  ``perf_counter`` (and datetime ``now``-style constructors).  A call
  site *outside* the timing layer (``repro/perf``) whose resolved
  project callee returns a wall-clock-tainted value is FLOW003: real
  time has leaked into simulated-time computation through a helper,
  which the per-file TIME001 rule cannot see.

The algorithm is summary-based: each function's return taint and
self-attribute writes are evaluated from its local facts
(:class:`~repro.check.flow.symbols.FunctionFacts`), with call atoms
resolved through the call graph, iterated to a fixpoint (kind sets only
grow, so termination is structural).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.check.findings import Finding
from repro.check.flow.callgraph import CallGraph, FunctionId
from repro.check.flow.symbols import ModuleFacts

__all__ = ["TaintAnalysis", "run_taint"]

# Taint kinds.
ENTROPY = "entropy"          # unseeded Generator/SeedSequence
OS_ENTROPY = "os-entropy"    # urandom/secrets/random/uuid/time-seeded
WALLCLOCK = "wallclock"      # time.time()/monotonic()/perf_counter()

_WALLCLOCK_SOURCES = {
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.process_time",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
}

_OS_ENTROPY_SOURCES = {"os.urandom", "uuid.uuid4", "uuid.uuid1"}
_OS_ENTROPY_PREFIXES = ("random.", "secrets.")

#: Conditional sources: unseeded construction is ``entropy``; seeding
#: from a wall-clock/entropy value launders into ``os-entropy``.
_GENERATOR_FACTORIES = {
    "numpy.random.default_rng",
    "numpy.random.SeedSequence",
}

#: Sanitizers: their result is clean regardless of argument taint (the
#: seed policy normalizes whatever comes in).
_SANITIZERS = {
    "repro.utils.rng.ensure_rng",
    "repro.utils.rng.spawn",
    "repro.utils.rng.derive_seed",
    "repro.utils.rng.normalize_seed",
    "repro.session.normalize_seed",
}

#: Recording sinks by canonical dotted name (suffix match on the
#: resolved name covers both direct and bound-name calls).
_SINK_SUFFIXES = (
    "repro.core.traces.Trace",
    "repro.core.traces.TraceSet",
    "repro.core.io.save_traceset",
    # top-level re-exports (``from repro import Trace``)
    "repro.Trace",
    "repro.TraceSet",
    "repro.save_traceset",
    "TraceArchiveWriter.append",
    # Both write archive bytes that byte-identical resume depends on.
    "TraceArchiveWriter.checkpoint",
    "TraceArchiveWriter.update_meta",
)

#: Classifier sinks by bare attribute (``clf.fit(X, y)``).
_SINK_ATTRS = {"fit", "partial_fit"}

#: Modules whose wall-clock plumbing is the timing layer's job.
_WALLCLOCK_EXEMPT = ("repro/perf/",)

Kinds = FrozenSet[str]
_EMPTY: Kinds = frozenset()


def _is_sink(site_name: str) -> bool:
    if not site_name:
        return False
    if any(site_name.endswith(suffix) for suffix in _SINK_SUFFIXES):
        return True
    tail = site_name.rsplit(".", 1)[-1]
    return tail in _SINK_ATTRS


def _source_kinds(name: str) -> Optional[Kinds]:
    """Kinds produced by calling ``name`` unconditionally, if a source."""
    if name in _WALLCLOCK_SOURCES:
        return frozenset({WALLCLOCK})
    if name in _OS_ENTROPY_SOURCES or name.startswith(
        _OS_ENTROPY_PREFIXES
    ):
        return frozenset({OS_ENTROPY})
    return None


class TaintAnalysis:
    """Fixpoint taint summaries over a resolved call graph."""

    def __init__(self, project: Dict[str, ModuleFacts], graph: CallGraph):
        self.project = project
        self.graph = graph
        #: function id -> kinds its return value may carry
        self.returns: Dict[FunctionId, Set[str]] = {
            fn: set() for fn in graph.functions
        }
        #: function id -> parameter indices that flow to its return
        self.ret_params: Dict[FunctionId, Set[int]] = {
            fn: set() for fn in graph.functions
        }
        #: "<module>:<Class>" -> attr -> kinds ever stored there
        self.class_attrs: Dict[str, Dict[str, Set[str]]] = {}
        self._solve()

    # -- evaluation -----------------------------------------------------

    def _class_attr_kinds(self, module: str, qualname: str, attr: str) -> Set[str]:
        cls = qualname.split(".<locals>.")[0]
        if "." in cls:
            cls = cls.rsplit(".", 1)[0]
            return self.class_attrs.get(f"{module}:{cls}", {}).get(
                attr, set()
            )
        return set()

    def eval_atoms(
        self,
        atoms,
        fn_id: FunctionId,
        include_params: bool = False,
        _guard: Optional[Set[Tuple[FunctionId, int]]] = None,
    ) -> Tuple[Set[str], Set[int]]:
        """Evaluate taint atoms in the context of ``fn_id``.

        Returns ``(kinds, param_indices)``; parameter indices are only
        collected when ``include_params`` (summary computation).
        """
        module, qualname = fn_id.split(":", 1)
        fn = self.graph.functions[fn_id]
        kinds: Set[str] = set()
        params: Set[int] = set()
        guard = _guard if _guard is not None else set()
        for atom in atoms:
            tag, _, value = atom.partition(":")
            if tag == "source":
                kinds.add(value)
            elif tag == "param":
                params.add(int(value))
            elif tag == "selfattr":
                kinds |= self._class_attr_kinds(module, qualname, value)
            elif tag == "call":
                idx = int(value)
                if (fn_id, idx) in guard or idx >= len(fn.calls):
                    continue
                guard.add((fn_id, idx))
                ck, cp = self._eval_call(fn_id, idx, guard)
                guard.discard((fn_id, idx))
                kinds |= ck
                params |= cp
        if not include_params:
            params = set()
        return kinds, params

    def _eval_call(
        self,
        fn_id: FunctionId,
        idx: int,
        guard: Set[Tuple[FunctionId, int]],
    ) -> Tuple[Set[str], Set[int]]:
        """Kinds/params the result of one call site may carry."""
        fn = self.graph.functions[fn_id]
        site = fn.calls[idx]
        name = site.name

        def _args_eval() -> Tuple[Set[str], Set[int]]:
            kinds: Set[str] = set()
            params: Set[int] = set()
            for atom_set in list(site.args) + list(site.kwargs.values()):
                k, p = self.eval_atoms(
                    atom_set, fn_id, include_params=True, _guard=guard
                )
                kinds |= k
                params |= p
            return kinds, params

        if name in _SANITIZERS:
            return set(), set()
        if name in _GENERATOR_FACTORIES:
            if not site.args and not site.kwargs:
                return {ENTROPY}, set()
            arg_kinds, arg_params = _args_eval()
            kinds = set()
            if arg_kinds:
                # seeded from entropy/clock: still unreplayable
                kinds.add(OS_ENTROPY)
            return kinds, arg_params
        source = _source_kinds(name)
        if source is not None:
            return set(source), set()

        callee = self.graph.site_targets.get((fn_id, idx))
        if callee is not None:
            kinds = set(self.returns.get(callee, ()))
            params: Set[int] = set()
            for param_index in self.ret_params.get(callee, ()):
                if param_index < len(site.args):
                    k, p = self.eval_atoms(
                        site.args[param_index],
                        fn_id,
                        include_params=True,
                        _guard=guard,
                    )
                    kinds |= k
                    params |= p
            return kinds, params

        # Unresolved (builtin/third-party) call: taint flows through —
        # int(time.time()), np.asarray(values), rng.normal(...).
        kinds, params = _args_eval()
        base_kinds, base_params = self.eval_atoms(
            site.base, fn_id, include_params=True, _guard=guard
        )
        return kinds | base_kinds, params | base_params

    # -- fixpoint -------------------------------------------------------

    def _solve(self) -> None:
        for _ in range(50):
            changed = False
            for fn_id, fn in self.graph.functions.items():
                kinds, params = self.eval_atoms(
                    fn.returns, fn_id, include_params=True
                )
                if not kinds <= self.returns[fn_id]:
                    self.returns[fn_id] |= kinds
                    changed = True
                if not params <= self.ret_params[fn_id]:
                    self.ret_params[fn_id] |= params
                    changed = True
                # class attribute stores
                module, qualname = fn_id.split(":", 1)
                if "." in qualname and fn.self_writes:
                    cls = qualname.split(".<locals>.")[0]
                    if "." in cls:
                        cls = cls.rsplit(".", 1)[0]
                        table = self.class_attrs.setdefault(
                            f"{module}:{cls}", {}
                        )
                        for attr, atoms in fn.self_writes.items():
                            k, _ = self.eval_atoms(atoms, fn_id)
                            known = table.setdefault(attr, set())
                            if not k <= known:
                                known |= k
                                changed = True
            if not changed:
                break

    # -- findings -------------------------------------------------------

    def findings(self, selected: Set[str]) -> List[Finding]:
        out: List[Finding] = []
        for module_name, facts in self.project.items():
            wallclock_exempt = any(
                piece in facts.rel_path for piece in _WALLCLOCK_EXEMPT
            )
            for qualname, fn in facts.functions.items():
                fn_id = f"{module_name}:{qualname}"
                for idx, site in enumerate(fn.calls):
                    if _is_sink(site.name) and (
                        "FLOW001" in selected or "FLOW002" in selected
                    ):
                        kinds, _ = self._eval_call_args(fn_id, idx)
                        if ENTROPY in kinds and "FLOW001" in selected:
                            out.append(
                                self._finding(
                                    "FLOW001", facts, site,
                                    f"a value derived from an unseeded "
                                    f"default_rng/SeedSequence reaches "
                                    f"recording sink {site.name!r} (in "
                                    f"{qualname}); route the generator "
                                    f"through repro.utils.rng.ensure_rng "
                                    f"so the run can be replayed",
                                )
                            )
                        if OS_ENTROPY in kinds and "FLOW002" in selected:
                            out.append(
                                self._finding(
                                    "FLOW002", facts, site,
                                    f"a value derived from OS/clock "
                                    f"entropy (os.urandom / secrets / "
                                    f"random / time-seeded generator) "
                                    f"reaches recording sink "
                                    f"{site.name!r} (in {qualname}); "
                                    f"recordings seeded this way cannot "
                                    f"be replayed — use ensure_rng with "
                                    f"an explicit seed",
                                )
                            )
                    if (
                        "FLOW003" in selected
                        and not wallclock_exempt
                    ):
                        callee = self.graph.site_targets.get((fn_id, idx))
                        if callee is not None:
                            kinds = self.returns.get(callee, set())
                            if WALLCLOCK in kinds:
                                out.append(
                                    self._finding(
                                        "FLOW003", facts, site,
                                        f"{site.name}() returns a "
                                        f"wall-clock-derived value "
                                        f"(defined in "
                                        f"{self.graph.module_of(callee)}) "
                                        f"which flows into simulated-"
                                        f"time code here; derive times "
                                        f"from the experiment clock "
                                        f"(only repro/perf may "
                                        f"consume wall time)",
                                    )
                                )
        return out

    def _eval_call_args(
        self, fn_id: FunctionId, idx: int
    ) -> Tuple[Set[str], Set[int]]:
        fn = self.graph.functions[fn_id]
        site = fn.calls[idx]
        kinds: Set[str] = set()
        for atom_set in list(site.args) + list(site.kwargs.values()):
            k, _ = self.eval_atoms(atom_set, fn_id)
            kinds |= k
        base_kinds, _ = self.eval_atoms(site.base, fn_id)
        return kinds | base_kinds, set()

    def _finding(
        self, rule: str, facts: ModuleFacts, site, message: str
    ) -> Finding:
        return Finding(
            path=facts.rel_path,
            line=site.line,
            col=site.col,
            rule=rule,
            message=message,
            snippet=facts.snippet(site.line),
        )


def run_taint(
    project: Dict[str, ModuleFacts],
    graph: CallGraph,
    selected: Set[str],
) -> List[Finding]:
    """Run both taint domains; return FLOW001-003 findings."""
    if not selected & {"FLOW001", "FLOW002", "FLOW003"}:
        return []
    return TaintAnalysis(project, graph).findings(selected)
