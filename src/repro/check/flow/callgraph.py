"""Import-alias-resolved call graph over the project model.

Functions are identified as ``"<module>:<qualname>"`` — for example
``repro.core.io:TraceArchiveWriter.append``.  Resolution handles the
intra-package patterns the repo actually uses:

* bare local calls (``helper()`` resolves in the caller's module);
* alias-resolved dotted calls (``import repro.core.io as cio;
  cio.is_archive_dir(...)`` and ``from repro.utils.rng import
  ensure_rng; ensure_rng(...)``);
* ``self.method()`` within a class;
* bound-name method calls (``w = TraceArchiveWriter(...);
  w.append(...)`` — recorded as ``<Class>.append`` at extraction);
* class constructors (``Trace(...)`` resolves to
  ``<module>:<Class>.__init__`` when defined).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.check.flow.symbols import CallSite, FunctionFacts, ModuleFacts

__all__ = ["FunctionId", "CallGraph"]

FunctionId = str  # "<module>:<qualname>"


class CallGraph:
    """Resolved call edges plus reachability over a project model."""

    def __init__(self, project: Dict[str, ModuleFacts]):
        self.project = project
        #: function id -> facts
        self.functions: Dict[FunctionId, FunctionFacts] = {}
        #: class id "<module>:<Class>" -> method names
        self.classes: Dict[str, List[str]] = {}
        for facts in project.values():
            for qualname, fn in facts.functions.items():
                self.functions[f"{facts.module}:{qualname}"] = fn
            for cls, methods in facts.classes.items():
                self.classes[f"{facts.module}:{cls}"] = methods
        #: resolved edges: function id -> set of callee function ids
        self.edges: Dict[FunctionId, Set[FunctionId]] = {}
        #: per call site: (function id, call index) -> callee id
        self.site_targets: Dict[Tuple[FunctionId, int], FunctionId] = {}
        for module_name, facts in project.items():
            for qualname, fn in facts.functions.items():
                caller = f"{module_name}:{qualname}"
                targets: Set[FunctionId] = set()
                for idx, site in enumerate(fn.calls):
                    callee = self.resolve_call(module_name, qualname, site)
                    if callee is not None:
                        targets.add(callee)
                        self.site_targets[(caller, idx)] = callee
                self.edges[caller] = targets

    # -- resolution -----------------------------------------------------

    def module_of(self, function_id: FunctionId) -> str:
        return function_id.split(":", 1)[0]

    def _module_prefix(self, dotted: str) -> Optional[Tuple[str, str]]:
        """Longest scanned-module prefix of ``dotted`` + the remainder."""
        parts = dotted.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            module = ".".join(parts[:cut])
            if module in self.project:
                return module, ".".join(parts[cut:])
        return None

    def resolve_name(
        self, dotted: str, from_module: str
    ) -> Optional[FunctionId]:
        """Resolve a canonical dotted name to a project function id."""
        if not dotted:
            return None
        # Bare (or dotted-local) name in the caller's own module.
        own = self.project.get(from_module)
        if own is not None:
            if dotted in own.functions:
                return f"{from_module}:{dotted}"
            if dotted in own.classes:
                return self._constructor(f"{from_module}:{dotted}")
            head, _, rest = dotted.partition(".")
            if rest and head in own.classes:
                return self._method(f"{from_module}:{head}", rest)
        # Cross-module: longest module prefix, remainder is the symbol.
        split = self._module_prefix(dotted)
        if split is None:
            return None
        module, symbol = split
        if not symbol:
            return None
        target = self.project[module]
        if symbol in target.functions:
            return f"{module}:{symbol}"
        if symbol in target.classes:
            return self._constructor(f"{module}:{symbol}")
        head, _, rest = symbol.partition(".")
        if rest and head in target.classes:
            return self._method(f"{module}:{head}", rest)
        return None

    def _constructor(self, class_id: str) -> Optional[FunctionId]:
        if "__init__" in self.classes.get(class_id, ()):
            return f"{class_id}.__init__"
        return None

    def _method(self, class_id: str, method: str) -> Optional[FunctionId]:
        if method in self.classes.get(class_id, ()):
            return f"{class_id}.{method}"
        return None

    def resolve_call(
        self, module: str, caller_qualname: str, site: CallSite
    ) -> Optional[FunctionId]:
        """Resolve one call site from within ``module:caller_qualname``."""
        name = site.name
        if not name:
            return None
        if name.startswith("self."):
            # Method call on the enclosing class.
            if "." in caller_qualname:
                cls = caller_qualname.rsplit(".", 1)[0]
                # strip <locals> chains back to the class qualname
                cls = cls.split(".<locals>.")[0]
                resolved = self._method(
                    f"{module}:{cls}", name[len("self."):]
                )
                if resolved is not None:
                    return resolved
            return None
        return self.resolve_name(name, module)

    # -- reachability ---------------------------------------------------

    def reachable_from(
        self, roots: Iterable[FunctionId]
    ) -> Set[FunctionId]:
        """Functions transitively reachable from ``roots`` (inclusive)."""
        seen: Set[FunctionId] = set()
        stack = [root for root in roots if root in self.functions]
        while stack:
            fn = stack.pop()
            if fn in seen:
                continue
            seen.add(fn)
            stack.extend(self.edges.get(fn, ()))
        return seen

    def task_roots(self) -> List[Tuple[FunctionId, dict]]:
        """Resolved task callables from every recorded submission.

        Returns ``(task function id, submission record)`` pairs; the
        record keeps the submitting module/line for diagnostics.
        """
        roots: List[Tuple[FunctionId, dict]] = []
        for module_name, facts in self.project.items():
            for qualname, fn in facts.functions.items():
                for sub in fn.submissions:
                    task = self.resolve_name(sub["task"], module_name)
                    if task is not None:
                        record = dict(sub)
                        record["submitter"] = f"{module_name}:{qualname}"
                        roots.append((task, record))
        return roots
