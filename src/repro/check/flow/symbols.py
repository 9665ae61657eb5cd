"""Per-module symbol tables and local flow facts.

This is the per-module half of the whole-program analysis: one AST walk
per file that produces a :class:`ModuleFacts` — the unit the worker
pool computes in parallel and returns by pickle.  Everything
interprocedural (call-edge resolution, taint fixpoints, worker-path
reachability) happens later, in
:mod:`repro.check.flow.callgraph`, :mod:`~repro.check.flow.taint` and
:mod:`~repro.check.flow.locks`, over these facts alone — the source is
never re-read.

Local dataflow is intentionally modest: flow-insensitive name-level
taint within one function, with two atom kinds —

* ``param:<i>`` — the value derives from positional parameter ``i``;
* ``call:<j>`` — the value is the result of this function's ``j``-th
  recorded call site (resolved and evaluated interprocedurally).

Reads of ``self.<attr>`` contribute ``selfattr:<attr>`` atoms, which
the global phase resolves against every write to that attribute across
the class (a value stored in ``__init__`` and read in another method).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.check.rules import Module, _canonical, _dotted

__all__ = [
    "CallSite",
    "FunctionFacts",
    "ModuleFacts",
    "extract_module_facts",
    "module_name_for",
]

#: Collection-mutator method names that count as a write to the base.
_MUTATOR_METHODS = {
    "append", "extend", "insert", "add", "update", "setdefault",
    "pop", "popitem", "clear", "remove", "discard", "sort", "reverse",
    "appendleft", "popleft",
}

#: Submission entry points whose first argument is a task callable.
_SUBMIT_ATTRS = {"submit", "map"}

#: Factories whose results expose submit()/map() task entry points
#: (bound-name resolution: ``pool = get_pool(4); pool.submit``).
_POOL_FACTORIES = ("get_pool",)


def module_name_for(rel_path: str) -> str:
    """Dotted module name for a scan-root-relative POSIX path.

    A leading ``src/`` segment is stripped (the repo layout), and a
    package ``__init__.py`` names the package itself:
    ``src/repro/core/io.py`` -> ``repro.core.io``; a bare fixture file
    ``helper.py`` -> ``helper``.
    """
    posix = rel_path.replace("\\", "/")
    if posix.startswith("src/"):
        posix = posix[len("src/"):]
    if posix.endswith(".py"):
        posix = posix[: -len(".py")]
    parts = [piece for piece in posix.split("/") if piece]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) if parts else posix


@dataclass
class CallSite:
    """One call expression, with enough context to resolve it later."""

    name: str                 # import-alias-canonical dotted target
    line: int
    col: int
    args: List[List[str]] = field(default_factory=list)
    kwargs: Dict[str, List[str]] = field(default_factory=dict)
    base: List[str] = field(default_factory=list)  # taint of func.value


@dataclass
class FunctionFacts:
    """Local facts for one function or method."""

    qualname: str             # "f" or "Class.f"
    line: int
    params: List[str] = field(default_factory=list)
    calls: List[CallSite] = field(default_factory=list)
    returns: List[str] = field(default_factory=list)      # taint atoms
    self_writes: Dict[str, List[str]] = field(default_factory=dict)
    global_writes: List[dict] = field(default_factory=list)
    submissions: List[dict] = field(default_factory=list)


@dataclass
class ModuleFacts:
    """Everything the whole-program phase needs from one module."""

    module: str
    rel_path: str
    functions: Dict[str, FunctionFacts] = field(default_factory=dict)
    classes: Dict[str, List[str]] = field(default_factory=dict)
    toplevel_names: List[str] = field(default_factory=list)
    snippets: Dict[int, str] = field(default_factory=dict)  # line -> text

    def snippet(self, line: int) -> str:
        return self.snippets.get(line, "")


# ------------------------------------------------------------- extraction


class _FunctionExtractor:
    """One function's local-flow walk (called with class context)."""

    def __init__(
        self,
        aliases: Dict[str, str],
        toplevel: Set[str],
        node: ast.AST,
        qualname: str,
        class_name: Optional[str],
    ):
        self.aliases = aliases
        self.toplevel = toplevel
        self.node = node
        self.class_name = class_name
        args = node.args
        params = [a.arg for a in args.posonlyargs + args.args]
        if class_name and params and params[0] in ("self", "cls"):
            params = params[1:]
        self.facts = FunctionFacts(
            qualname=qualname, line=node.lineno, params=params
        )
        self.env: Dict[str, Set[str]] = {
            name: {f"param:{i}"} for i, name in enumerate(params)
        }
        #: local var -> canonical class name it was constructed from
        self.bound: Dict[str, str] = {}
        self.call_index: Dict[int, int] = {}   # id(node) -> call idx
        self.call_nodes: List[ast.Call] = []
        #: the function's subtree in ``ast.walk`` order, walked once
        self.nodes: List[ast.AST] = list(ast.walk(node))
        self.declared_global: Set[str] = {
            name
            for stmt in self.nodes
            if isinstance(stmt, ast.Global)
            for name in stmt.names
        }
        # Names assigned locally (no ``global``) shadow module-level
        # names; writes through them are not global writes.
        self.local_names: Set[str] = set(self.env)
        for stmt in self.nodes:
            if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = (
                    stmt.targets
                    if isinstance(stmt, ast.Assign)
                    else [stmt.target]
                )
                for target in targets:
                    if (
                        isinstance(target, ast.Name)
                        and target.id not in self.declared_global
                    ):
                        self.local_names.add(target.id)
            elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                for sub in ast.walk(stmt.target):
                    if isinstance(sub, ast.Name):
                        self.local_names.add(sub.id)

    # -- naming ---------------------------------------------------------

    def _call_target(self, node: ast.Call) -> Tuple[str, List[str]]:
        """(canonical target name, base-object taint atoms)."""
        func = node.func
        base_atoms: List[str] = []
        if isinstance(func, ast.Attribute):
            base = func.value
            if isinstance(base, ast.Name):
                if base.id == "self" and self.class_name:
                    return f"self.{func.attr}", []
                bound_cls = self.bound.get(base.id)
                if bound_cls is not None:
                    return f"{bound_cls}.{func.attr}", sorted(
                        self._expr_taint(base)
                    )
            base_atoms = sorted(self._expr_taint(base))
        canonical = _canonical(func, self.aliases)
        return canonical or "", base_atoms

    # -- taint ----------------------------------------------------------

    def _expr_taint(self, node: Optional[ast.AST]) -> Set[str]:
        if node is None:
            return set()
        if isinstance(node, ast.Name):
            return set(self.env.get(node.id, ()))
        if isinstance(node, ast.Call):
            idx = self.call_index.get(id(node))
            return {f"call:{idx}"} if idx is not None else set()
        if isinstance(node, ast.Attribute):
            if (
                isinstance(node.value, ast.Name)
                and node.value.id == "self"
                and self.class_name
            ):
                local = self.env.get(f"self.{node.attr}", set())
                return {f"selfattr:{node.attr}"} | local
            return self._expr_taint(node.value)
        if isinstance(node, ast.BinOp):
            return self._expr_taint(node.left) | self._expr_taint(node.right)
        if isinstance(node, ast.UnaryOp):
            return self._expr_taint(node.operand)
        if isinstance(node, ast.BoolOp):
            out: Set[str] = set()
            for value in node.values:
                out |= self._expr_taint(value)
            return out
        if isinstance(node, ast.Compare):
            out = self._expr_taint(node.left)
            for comparator in node.comparators:
                out |= self._expr_taint(comparator)
            return out
        if isinstance(node, ast.IfExp):
            return self._expr_taint(node.body) | self._expr_taint(node.orelse)
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            out = set()
            for elt in node.elts:
                out |= self._expr_taint(elt)
            return out
        if isinstance(node, ast.Dict):
            out = set()
            for value in node.values:
                out |= self._expr_taint(value)
            return out
        if isinstance(node, ast.Subscript):
            return self._expr_taint(node.value)
        if isinstance(node, ast.Starred):
            return self._expr_taint(node.value)
        if isinstance(node, ast.Await):
            return self._expr_taint(node.value)
        if isinstance(node, ast.NamedExpr):
            return self._expr_taint(node.value)
        if isinstance(node, ast.FormattedValue):
            return self._expr_taint(node.value)
        if isinstance(node, ast.JoinedStr):
            out = set()
            for value in node.values:
                out |= self._expr_taint(value)
            return out
        if isinstance(
            node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)
        ):
            out = self._expr_taint(node.elt)
            for gen in node.generators:
                out |= self._expr_taint(gen.iter)
            return out
        if isinstance(node, ast.DictComp):
            out = self._expr_taint(node.value)
            for gen in node.generators:
                out |= self._expr_taint(gen.iter)
            return out
        return set()

    def _bind(self, name: str, atoms: Set[str]) -> bool:
        known = self.env.setdefault(name, set())
        before = len(known)
        known |= atoms
        return len(known) != before

    def _assign_target(self, target: ast.AST, atoms: Set[str]) -> bool:
        changed = False
        if isinstance(target, ast.Name):
            changed |= self._bind(target.id, atoms)
        elif isinstance(target, ast.Attribute):
            if (
                isinstance(target.value, ast.Name)
                and target.value.id == "self"
                and self.class_name
            ):
                changed |= self._bind(f"self.{target.attr}", atoms)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                changed |= self._assign_target(elt, atoms)
        elif isinstance(target, ast.Starred):
            changed |= self._assign_target(target.value, atoms)
        return changed

    def _dataflow_pass(self) -> bool:
        changed = False
        for node in self.nodes:
            if isinstance(node, ast.Assign):
                atoms = self._expr_taint(node.value)
                # Bound-name resolution: var = ClassName(...) makes
                # var.method() resolvable later.
                if (
                    isinstance(node.value, ast.Call)
                    and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                ):
                    target_name = _canonical(
                        node.value.func, self.aliases
                    )
                    if target_name and (
                        target_name.rsplit(".", 1)[-1][:1].isupper()
                        or target_name.rsplit(".", 1)[-1].startswith(
                            _POOL_FACTORIES
                        )
                    ):
                        var = node.targets[0].id
                        if self.bound.get(var) != target_name:
                            self.bound[var] = target_name
                            changed = True
                for target in node.targets:
                    changed |= self._assign_target(target, atoms)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                atoms = self._expr_taint(node.value)
                changed |= self._assign_target(node.target, atoms)
            elif isinstance(node, ast.NamedExpr):
                atoms = self._expr_taint(node.value)
                changed |= self._assign_target(node.target, atoms)
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                atoms = self._expr_taint(node.iter)
                changed |= self._assign_target(node.target, atoms)
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    if item.optional_vars is not None:
                        atoms = self._expr_taint(item.context_expr)
                        changed |= self._assign_target(
                            item.optional_vars, atoms
                        )
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.DictComp,
                       ast.GeneratorExp)
            ):
                for gen in node.generators:
                    atoms = self._expr_taint(gen.iter)
                    changed |= self._assign_target(gen.target, atoms)
        return changed

    # -- structural walk (writes, submissions, calls) -------------------

    def _walk_structure(self, node: ast.AST) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node is not self.node:
                return  # nested functions analyzed separately
        if isinstance(node, ast.Lambda):
            return
        if isinstance(node, ast.Call):
            self._record_call(node)
        self._record_writes(node)
        for child in ast.iter_child_nodes(node):
            self._walk_structure(child)

    def _record_call(self, node: ast.Call) -> None:
        name, base_atoms = self._call_target(node)
        idx = len(self.call_nodes)
        self.call_index[id(node)] = idx
        self.call_nodes.append(node)
        self.facts.calls.append(
            CallSite(
                name=name,
                line=node.lineno,
                col=node.col_offset,
                base=base_atoms,
            )
        )
        # Task submissions: parallel_map(fn, ...) / pool.submit(fn, ...)
        is_submit = name.endswith("parallel_map") or (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _SUBMIT_ATTRS
            and "pool" in name
        )
        if is_submit:
            fn = node.args[0] if node.args else None
            if fn is None:
                for kw in node.keywords:
                    if kw.arg == "fn":
                        fn = kw.value
            task = (
                _canonical(fn, self.aliases)
                if fn is not None
                else None
            )
            if isinstance(fn, ast.Attribute) and task is None:
                task = _dotted(fn)
            if task:
                self.facts.submissions.append(
                    {"task": task, "line": node.lineno,
                     "col": node.col_offset, "via": name}
                )

    def _record_writes(self, node: ast.AST) -> None:
        def _write(name: str, where: ast.AST, kind: str) -> None:
            self.facts.global_writes.append(
                {
                    "name": name,
                    "line": where.lineno,
                    "col": getattr(where, "col_offset", 0),
                    "kind": kind,
                }
            )

        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign)
                else [node.target]
            )
            for target in targets:
                if (
                    isinstance(target, ast.Name)
                    and target.id in self.declared_global
                    and target.id in self.toplevel
                ):
                    _write(target.id, node, "assign")
                elif isinstance(target, ast.Subscript):
                    base = target.value
                    if (
                        isinstance(base, ast.Name)
                        and base.id in self.toplevel
                        and base.id not in self.local_names
                    ):
                        _write(base.id, node, "setitem")
        elif isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _MUTATOR_METHODS
                and isinstance(func.value, ast.Name)
                and func.value.id in self.toplevel
                and func.value.id not in self.local_names
            ):
                _write(func.value.id, node, "mutate")
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                base = (
                    target.value
                    if isinstance(target, ast.Subscript)
                    else target
                )
                if (
                    isinstance(base, ast.Name)
                    and base.id in self.toplevel
                    and base.id not in self.local_names
                ):
                    _write(base.id, node, "delete")

    # -- driver ---------------------------------------------------------

    def run(self) -> FunctionFacts:
        self._walk_structure(self.node)
        for _ in range(10):
            if not self._dataflow_pass():
                break
        # Final pass: freeze arg taints, returns and self-writes from
        # the stabilized environment.
        for idx, call in enumerate(self.call_nodes):
            site = self.facts.calls[idx]
            # Re-derive the target name: bound-name classes (var =
            # ClassName(); var.method()) are only known post-dataflow.
            site.name = self._call_target(call)[0]
            site.args = [
                sorted(self._expr_taint(arg)) for arg in call.args
            ]
            site.kwargs = {
                kw.arg: sorted(self._expr_taint(kw.value))
                for kw in call.keywords
                if kw.arg is not None
            }
            if isinstance(call.func, ast.Attribute):
                site.base = sorted(self._expr_taint(call.func.value))
        returns: Set[str] = set()
        for node in self.nodes:
            if isinstance(node, ast.Return) and node.value is not None:
                returns |= self._expr_taint(node.value)
        self.facts.returns = sorted(returns)
        self_writes: Dict[str, Set[str]] = {}
        for node in self.nodes:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                        and self.class_name
                    ):
                        self_writes.setdefault(target.attr, set()).update(
                            self._expr_taint(node.value)
                        )
        self.facts.self_writes = {
            attr: sorted(atoms) for attr, atoms in self_writes.items()
        }
        return self.facts


def extract_module_facts(module: Module) -> ModuleFacts:
    """One parse-tree walk producing the module's flow facts."""
    aliases = module.aliases
    facts = ModuleFacts(
        module=module_name_for(module.rel_path), rel_path=module.rel_path
    )

    toplevel: Set[str] = set()
    for node in module.tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name):
                        toplevel.add(sub.id)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            if isinstance(node.target, ast.Name):
                toplevel.add(node.target.id)
    facts.toplevel_names = sorted(toplevel)

    lines_needed: Set[int] = set()

    def _extract_function(
        node: ast.AST, qualname: str, class_name: Optional[str]
    ) -> None:
        extractor = _FunctionExtractor(
            aliases, toplevel, node, qualname, class_name
        )
        fn_facts = extractor.run()
        facts.functions[qualname] = fn_facts
        lines_needed.update(c.line for c in fn_facts.calls)
        lines_needed.update(w["line"] for w in fn_facts.global_writes)
        lines_needed.update(s["line"] for s in fn_facts.submissions)

    def _visit(body, prefix: str, class_name: Optional[str]) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}{node.name}"
                _extract_function(node, qualname, class_name)
                # nested defs inside functions are analyzed as part of
                # their enclosing function's structure walk only when
                # reached; independent extraction keeps them callable.
                _visit(
                    node.body, f"{qualname}.<locals>.", class_name
                )
            elif isinstance(node, ast.ClassDef):
                methods = [
                    stmt.name
                    for stmt in node.body
                    if isinstance(
                        stmt, (ast.FunctionDef, ast.AsyncFunctionDef)
                    )
                ]
                facts.classes[f"{prefix}{node.name}"] = methods
                _visit(
                    node.body, f"{prefix}{node.name}.", node.name
                )

    _visit(module.tree.body, "", None)

    facts.snippets = {
        line: module.snippet(line)
        for line in sorted(lines_needed)
        if module.snippet(line)
    }
    return facts
