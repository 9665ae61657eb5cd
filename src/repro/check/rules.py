"""Rule set encoding this repo's determinism & concurrency contracts.

Every result the reproduction reports (the 261x current-vs-RO ratio,
Table III accuracies, the RSA Hamming-weight separation) depends on runs
being bit-identical across seeds, worker counts, chunk sizes and fault
plans.  These rules turn the prose contracts of PRs 1-3 into static
checks over the AST:

==========  ============================================================
Rule        Contract
==========  ============================================================
RNG001      no unseeded ``np.random.default_rng()`` / ``SeedSequence()``
            (OS entropy makes a recording unreplayable)
RNG002      no stdlib ``random``, ``os.urandom``, ``secrets``,
            ``uuid.uuid4`` or legacy global-state ``np.random.*``
RNG003      Generators are built via ``repro.utils.rng`` (``ensure_rng``
            / ``spawn``) so the ``normalize_seed`` policy applies
TIME001     no wall-clock reads in simulated-time modules (the
            ``repro/perf`` timing helpers are exempt)
CONC001     functions submitted to ``perf.executor.parallel_map`` must
            not mutate module-level state (lost under fork)
CONC002     fields documented as lock-guarded (``_clock`` by
            ``_clock_lock``, ``_FIT_CONTEXT`` by ``_FIT_LOCK``) are only
            touched inside a ``with <lock>`` block
CONC003     only module-level functions go to ``parallel_map`` — no
            lambdas/closures (they capture handles and cannot pickle)
API001      hwmon register reads stay behind the
            ``read_series_faulted`` boundary (sensors/soc layers only)
API002      no float ``==`` / ``!=`` on computed data (seed/chunking
            fragile); exact sentinels must be suppressed explicitly
API003      no mutable default arguments (shared across calls — and
            across forked workers)
API004      no ``argsort`` calls inside loops outside ``repro/ml`` —
            per-iteration sorting is the quadratic pattern the
            presorted kernels replaced
API005      streaming state classes must stay bounded: a ``push*``
            method growing ``self.<attr>`` in place (``append`` /
            ``extend`` / ``+=``) needs a matching trim (``pop`` /
            ``clear`` / ``del`` / slice rebind) somewhere in the
            class, else memory scales with the stream, not the window
API006      no bare ``multiprocessing.Pool`` / ``ProcessPoolExecutor``
            / ``SharedMemory`` outside ``repro/perf`` — ad-hoc pools
            skip the deterministic task→seed assignment, crash
            recovery, and segment-lifetime bookkeeping the
            ``repro.perf`` pool/shm layer provides
API007      no untimed blocking ``Queue.get`` / ``Event.wait`` /
            ``Process.join`` outside ``repro/perf`` +
            ``repro/resilience`` — a dead peer strands the caller
            forever; only the pool internals and the resilience layer
            that reaps them may park without a deadline
PARSE000    unreadable/unparseable files are findings, not skips
FLOW001     (whole-program) unseeded-generator taint must not reach
            Trace/archive/classifier sinks, even across modules
FLOW002     (whole-program) OS/clock entropy taint, same sinks
FLOW003     (whole-program) wall-clock values must not flow through
            helpers into simulated-time code outside repro/perf +
            repro/resilience
FLOW004     (whole-program) no unlocked module-state writes on paths
            reachable from parallel_map/WorkerPool task callables
FLOW005     (whole-program) no inconsistent (ABBA) lock-acquisition
            ordering anywhere, including through calls
==========  ============================================================

Each per-module rule is a pure function ``(Module) -> List[Finding]``;
the engine (:mod:`repro.check.engine`) handles file discovery,
suppression comments and the baseline.  Rules marked ``whole_program``
are evaluated by :mod:`repro.check.flow` over the assembled project
model instead.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.check.findings import Finding

# --------------------------------------------------------------------- model


@dataclass
class Module:
    """One parsed source file handed to every rule."""

    path: Path
    rel_path: str
    source: str
    tree: ast.Module
    lines: List[str] = field(default_factory=list)

    @classmethod
    def parse(cls, path: Path, rel_path: str) -> "Module":
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(path))
        return cls(
            path=path,
            rel_path=rel_path,
            source=source,
            tree=tree,
            lines=source.splitlines(),
        )

    def snippet(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    def finding(self, rule: str, node: ast.AST, message: str) -> Finding:
        lineno = getattr(node, "lineno", 1)
        return Finding(
            path=self.rel_path,
            line=lineno,
            col=getattr(node, "col_offset", 0),
            rule=rule,
            message=message,
            snippet=self.snippet(lineno),
        )


def _no_module_findings(module: Module) -> List[Finding]:
    """Placeholder check for rules not evaluated per-module."""
    return []


@dataclass(frozen=True)
class Rule:
    """One named contract check.

    ``whole_program`` rules are not per-module functions: their
    findings come from the flow layer (:mod:`repro.check.flow`) or the
    engine itself (PARSE000); ``check`` is a no-op for them and the
    engine dispatches separately.
    """

    id: str
    name: str
    rationale: str
    check: Callable[[Module], List[Finding]] = _no_module_findings
    whole_program: bool = False


# ---------------------------------------------------------- shared utilities


def _dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _import_map(tree: ast.Module) -> Dict[str, str]:
    """Local name -> canonical dotted origin, from every import node."""
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                origin = alias.name if alias.asname else local
                aliases[local] = origin
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                local = alias.asname or alias.name
                aliases[local] = f"{node.module}.{alias.name}"
    return aliases


def _canonical(node: ast.AST, aliases: Dict[str, str]) -> Optional[str]:
    """Resolve a call target through the module's import aliases.

    ``np.random.default_rng`` with ``import numpy as np`` resolves to
    ``numpy.random.default_rng``; ``default_rng`` imported from
    ``numpy.random`` resolves identically.
    """
    dotted = _dotted(node)
    if dotted is None:
        return None
    head, _, rest = dotted.partition(".")
    origin = aliases.get(head)
    if origin is None:
        return dotted
    return f"{origin}.{rest}" if rest else origin


def _is_none(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


def _path_matches(rel_path: str, allowed: Sequence[str]) -> bool:
    """True when the POSIX rel path falls inside any allowed location."""
    posix = rel_path.replace("\\", "/")
    return any(piece in posix for piece in allowed)


# ------------------------------------------------------------------- RNG001

_SEEDED_FACTORIES = ("numpy.random.default_rng", "numpy.random.SeedSequence")


def check_rng001(module: Module) -> List[Finding]:
    """Unseeded numpy Generator construction reaches OS entropy."""
    aliases = _import_map(module.tree)
    findings = []
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        target = _canonical(node.func, aliases)
        if target not in _SEEDED_FACTORIES:
            continue
        unseeded = not node.args and not node.keywords
        none_seed = bool(node.args) and _is_none(node.args[0])
        none_kw = any(
            kw.arg in ("seed", "entropy") and _is_none(kw.value)
            for kw in node.keywords
        )
        if unseeded or none_seed or none_kw:
            findings.append(
                module.finding(
                    "RNG001",
                    node,
                    f"{target.rsplit('.', 1)[-1]} without a seed draws OS "
                    f"entropy; the recording cannot be replayed (route "
                    f"seeds through repro.utils.rng.normalize_seed)",
                )
            )
    return findings


# ------------------------------------------------------------------- RNG002

_BANNED_CALL_PREFIXES = ("random.", "secrets.")
_BANNED_CALLS = {"os.urandom", "uuid.uuid4", "uuid.uuid1"}
_NUMPY_LEGACY = {
    "seed",
    "rand",
    "randn",
    "randint",
    "random",
    "random_sample",
    "choice",
    "shuffle",
    "permutation",
    "normal",
    "uniform",
    "standard_normal",
    "get_state",
    "set_state",
}


def check_rng002(module: Module) -> List[Finding]:
    """Nondeterministic or global-state entropy sources are banned."""
    aliases = _import_map(module.tree)
    findings = []
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        target = _canonical(node.func, aliases)
        if target is None:
            continue
        if target in _BANNED_CALLS or target.startswith(_BANNED_CALL_PREFIXES):
            findings.append(
                module.finding(
                    "RNG002",
                    node,
                    f"{target} is an unseedable/OS entropy source; use an "
                    f"explicit numpy Generator from repro.utils.rng",
                )
            )
            continue
        prefix, _, tail = target.rpartition(".")
        if prefix == "numpy.random" and tail in _NUMPY_LEGACY:
            findings.append(
                module.finding(
                    "RNG002",
                    node,
                    f"np.random.{tail} uses numpy's hidden global RNG "
                    f"state (order- and import-sensitive); draw from an "
                    f"explicit Generator instead",
                )
            )
    return findings


# ------------------------------------------------------------------- RNG003

#: The one module allowed to construct Generators directly — everything
#: else goes through ensure_rng/spawn so the seed policy applies.
_RNG_HELPER_MODULES = ("repro/utils/rng.py",)


def check_rng003(module: Module) -> List[Finding]:
    """Direct default_rng construction bypasses the seed policy."""
    if _path_matches(module.rel_path, _RNG_HELPER_MODULES):
        return []
    aliases = _import_map(module.tree)
    findings = []
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        if _canonical(node.func, aliases) != "numpy.random.default_rng":
            continue
        findings.append(
            module.finding(
                "RNG003",
                node,
                "construct Generators via repro.utils.rng.ensure_rng or "
                "spawn so the library seed policy (None -> 0, name-keyed "
                "streams) applies uniformly",
            )
        )
    return findings


# ------------------------------------------------------------------ TIME001

_WALL_CLOCK_CALLS = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}

#: Modules whose whole job is wall-clock timing (StageTimer, pool
#: deadlines).
_WALL_CLOCK_ALLOWED = ("repro/perf/",)


def check_time001(module: Module) -> List[Finding]:
    """Wall-clock reads poison simulated-time determinism."""
    if _path_matches(module.rel_path, _WALL_CLOCK_ALLOWED):
        return []
    aliases = _import_map(module.tree)
    findings = []
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        target = _canonical(node.func, aliases)
        if target in _WALL_CLOCK_CALLS:
            findings.append(
                module.finding(
                    "TIME001",
                    node,
                    f"{target} reads the wall clock inside a "
                    f"simulated-time module; derive times from the "
                    f"experiment clock (repro/perf timing helpers are "
                    f"the only exemption)",
                )
            )
    return findings


# ------------------------------------------------------------------ CONC001

_MUTATORS = {
    "append",
    "extend",
    "insert",
    "add",
    "update",
    "setdefault",
    "pop",
    "popitem",
    "clear",
    "remove",
    "discard",
    "sort",
    "reverse",
}


def _module_level_names(tree: ast.Module) -> Set[str]:
    names: Set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        names.add(name.id)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            if isinstance(node.target, ast.Name):
                names.add(node.target.id)
    return names


def _submitted_names(tree: ast.Module, aliases: Dict[str, str]) -> Set[str]:
    """Names passed as the task callable to parallel_map."""
    submitted: Set[str] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        target = _canonical(node.func, aliases) or ""
        if not target.endswith("parallel_map"):
            continue
        fn = node.args[0] if node.args else None
        if fn is None:
            for kw in node.keywords:
                if kw.arg == "fn":
                    fn = kw.value
        if isinstance(fn, ast.Name):
            submitted.add(fn.id)
    return submitted


def check_conc001(module: Module) -> List[Finding]:
    """Worker tasks mutating module globals lose the writes under fork."""
    aliases = _import_map(module.tree)
    globals_ = _module_level_names(module.tree)
    submitted = _submitted_names(module.tree, aliases)
    if not submitted or not globals_:
        return []
    findings = []
    for node in module.tree.body:
        if not isinstance(node, ast.FunctionDef):
            continue
        if node.name not in submitted:
            continue
        declared_global: Set[str] = set()
        for stmt in ast.walk(node):
            if isinstance(stmt, ast.Global):
                declared_global.update(
                    name for name in stmt.names if name in globals_
                )
        for stmt in ast.walk(node):
            mutated: Optional[str] = None
            if isinstance(stmt, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (
                    stmt.targets
                    if isinstance(stmt, ast.Assign)
                    else [stmt.target]
                )
                for target in targets:
                    if (
                        isinstance(target, ast.Name)
                        and target.id in declared_global
                    ):
                        mutated = target.id
                    elif isinstance(target, ast.Subscript):
                        base = target.value
                        if isinstance(base, ast.Name) and base.id in globals_:
                            mutated = base.id
            elif isinstance(stmt, ast.Call):
                func = stmt.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in _MUTATORS
                    and isinstance(func.value, ast.Name)
                    and func.value.id in globals_
                ):
                    mutated = func.value.id
            if mutated is not None:
                findings.append(
                    module.finding(
                        "CONC001",
                        stmt,
                        f"{node.name}() is submitted to parallel_map but "
                        f"mutates module-level {mutated!r}; writes in a "
                        f"forked worker never reach the parent (pass "
                        f"state through arguments and return values)",
                    )
                )
    return findings


# ------------------------------------------------------------------ CONC002

#: Fields whose access contract is "hold this lock".  The rule only
#: applies where the lock actually exists in the same scope (class body
#: assigns ``self.<lock>``, or the module defines it at top level), so
#: an unrelated ``_clock`` in a lockless class is not flagged.
GUARDED_FIELDS: Dict[str, str] = {
    "_clock": "_clock_lock",
    "_FIT_CONTEXT": "_FIT_LOCK",
}


class _LockScopeVisitor(ast.NodeVisitor):
    """Tracks class/function nesting and the set of locks held."""

    def __init__(self, module: Module, module_locks: Set[str]):
        self.module = module
        self.module_locks = module_locks
        self.class_stack: List[Set[str]] = []
        self.function_depth = 0
        self.held: List[str] = []
        self.in_init = False
        self.findings: List[Finding] = []

    # -- scope bookkeeping

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.class_stack.append(_class_self_attrs(node))
        self.generic_visit(node)
        self.class_stack.pop()

    def _visit_function(self, node) -> None:
        outer_init = self.in_init
        if self.class_stack and node.name == "__init__":
            self.in_init = True
        self.function_depth += 1
        self.generic_visit(node)
        self.function_depth -= 1
        self.in_init = outer_init

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def visit_With(self, node: ast.With) -> None:
        acquired = []
        for item in node.items:
            dotted = _dotted(item.context_expr) or ""
            tail = dotted.rsplit(".", 1)[-1]
            if tail in GUARDED_FIELDS.values():
                acquired.append(tail)
        self.held.extend(acquired)
        self.generic_visit(node)
        del self.held[len(self.held) - len(acquired):]

    visit_AsyncWith = visit_With

    # -- the accesses under contract

    def _flag(self, node: ast.AST, name: str, lock: str) -> None:
        self.findings.append(
            self.module.finding(
                "CONC002",
                node,
                f"{name} is documented as guarded by {lock}; access it "
                f"inside a `with {lock}:` block (or move the access "
                f"into the guarded section)",
            )
        )

    def visit_Attribute(self, node: ast.Attribute) -> None:
        lock = GUARDED_FIELDS.get(node.attr)
        if (
            lock is not None
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
            and self.function_depth > 0
            and not self.in_init
            and lock not in self.held
            and self.class_stack
            and lock in self.class_stack[-1]
        ):
            self._flag(node, f"self.{node.attr}", f"self.{lock}")
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        lock = GUARDED_FIELDS.get(node.id)
        if (
            lock is not None
            and self.function_depth > 0
            and lock in self.module_locks
            and lock not in self.held
        ):
            self._flag(node, node.id, lock)
        self.generic_visit(node)


def _class_self_attrs(node: ast.ClassDef) -> Set[str]:
    """Attribute names ever assigned on ``self`` within a class body."""
    attrs: Set[str] = set()
    for stmt in ast.walk(node):
        if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (
                stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            )
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    attrs.add(target.attr)
    return attrs


def check_conc002(module: Module) -> List[Finding]:
    """Lock-guarded fields touched outside their ``with`` block."""
    module_locks = {
        name
        for name in _module_level_names(module.tree)
        if name in GUARDED_FIELDS.values()
    }
    visitor = _LockScopeVisitor(module, module_locks)
    visitor.visit(module.tree)
    return visitor.findings


# ------------------------------------------------------------------ CONC003


def _nested_function_names(tree: ast.Module) -> Set[str]:
    """Names of functions defined inside another function."""
    nested: Set[str] = set()

    def walk(node: ast.AST, inside_function: bool) -> None:
        for child in ast.iter_child_nodes(node):
            is_fn = isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)
            )
            if is_fn and inside_function:
                nested.add(child.name)
            walk(child, inside_function or is_fn)

    walk(tree, False)
    return nested


def _lambda_names(tree: ast.Module) -> Set[str]:
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Lambda):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
    return names


def check_conc003(module: Module) -> List[Finding]:
    """Closures/lambdas handed to parallel_map cannot cross the fork."""
    aliases = _import_map(module.tree)
    nested = _nested_function_names(module.tree)
    lambdas = _lambda_names(module.tree)
    findings = []
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        target = _canonical(node.func, aliases) or ""
        if not target.endswith("parallel_map"):
            continue
        fn = node.args[0] if node.args else None
        if fn is None:
            for kw in node.keywords:
                if kw.arg == "fn":
                    fn = kw.value
        if fn is None:
            continue
        bad: Optional[str] = None
        if isinstance(fn, ast.Lambda):
            bad = "a lambda"
        elif isinstance(fn, ast.Name) and fn.id in lambdas:
            bad = f"lambda {fn.id!r}"
        elif isinstance(fn, ast.Name) and fn.id in nested:
            bad = f"nested function {fn.id!r}"
        if bad is not None:
            findings.append(
                module.finding(
                    "CONC003",
                    node,
                    f"parallel_map received {bad}; tasks must be "
                    f"module-level picklable functions — closures "
                    f"capture parent state (open file handles, live "
                    f"Generators) that is stale or unpicklable in a "
                    f"forked worker",
                )
            )
    return findings


# ------------------------------------------------------------------- API001

_HWMON_READ_METHODS = {
    "read_series",
    "read_series_batch",
    "read_series_faulted",
    "readings_at",
}

#: The acquisition boundary: only the sensor tree itself and the SoC
#: sampling facade may touch raw hwmon register reads.  Everyone else
#: goes through Soc.sample/sample_faulted so fault plans, hardening and
#: health tracking always apply.
_HWMON_ALLOWED = ("repro/sensors/", "repro/soc/soc.py")


def check_api001(module: Module) -> List[Finding]:
    """Raw hwmon reads outside the read_series_faulted boundary."""
    if _path_matches(module.rel_path, _HWMON_ALLOWED):
        return []
    findings = []
    for node in ast.walk(module.tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _HWMON_READ_METHODS
        ):
            findings.append(
                module.finding(
                    "API001",
                    node,
                    f".{node.func.attr}() is a raw hwmon register read; "
                    f"outside repro/sensors and repro/soc it must go "
                    f"through Soc.sample/sample_faulted (the "
                    f"read_series_faulted boundary) so fault plans and "
                    f"sensor health apply",
                )
            )
    return findings


# ------------------------------------------------------------------- API002


def _is_float_literal(node: ast.AST) -> bool:
    if isinstance(node, ast.Constant) and isinstance(node.value, float):
        return True
    if isinstance(node, ast.UnaryOp) and isinstance(
        node.op, (ast.USub, ast.UAdd)
    ):
        return _is_float_literal(node.operand)
    return False


def check_api002(module: Module) -> List[Finding]:
    """Exact float equality on computed data is seed/chunking fragile."""
    findings = []
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            if _is_float_literal(left) or _is_float_literal(right):
                findings.append(
                    module.finding(
                        "API002",
                        node,
                        "float == / != against a literal is fragile on "
                        "computed trace data; compare integer registers, "
                        "use np.isclose, or suppress with a justification "
                        "if this is an exact sentinel",
                    )
                )
                break
    return findings


# ------------------------------------------------------------------- API003

_MUTABLE_FACTORY_CALLS = {
    "list",
    "dict",
    "set",
    "bytearray",
    "numpy.array",
    "numpy.zeros",
    "numpy.ones",
    "numpy.empty",
    "collections.defaultdict",
    "collections.deque",
}


def check_api003(module: Module) -> List[Finding]:
    """Mutable default arguments are shared across calls and workers."""
    aliases = _import_map(module.tree)
    findings = []
    for node in ast.walk(module.tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        defaults = list(node.args.defaults) + [
            default
            for default in node.args.kw_defaults
            if default is not None
        ]
        for default in defaults:
            mutable = isinstance(default, (ast.List, ast.Dict, ast.Set))
            if isinstance(default, ast.Call):
                target = _canonical(default.func, aliases)
                mutable = target in _MUTABLE_FACTORY_CALLS
            if mutable:
                findings.append(
                    module.finding(
                        "API003",
                        default,
                        f"mutable default argument in {node.name}(); the "
                        f"object is created once and shared by every call "
                        f"(and every forked worker) — default to None and "
                        f"construct inside the function",
                    )
                )
    return findings


# ------------------------------------------------------------------- API004

#: Where per-iteration sorts are sanctioned: the presorted CART itself
#: (repro/ml — one stable presort per fit plus a measured small-node
#: branch).
_ARGSORT_ALLOWED = ("repro/ml/",)

_LOOP_NODES = (
    ast.For,
    ast.AsyncFor,
    ast.While,
    ast.ListComp,
    ast.SetComp,
    ast.DictComp,
    ast.GeneratorExp,
)


def check_api004(module: Module) -> List[Finding]:
    """Sorting inside a loop re-derives order the caller should presort.

    One ``argsort`` per node/row/trace is how the pre-vectorization
    CART spent its time: O(n log n) work per iteration that a single
    columnwise presort (or one batched sort) does once.  Outside the
    sanctioned kernels, an ``argsort`` in any loop body (or
    comprehension) is flagged — hoist it above the loop or batch the
    whole operation.
    """
    if _path_matches(module.rel_path, _ARGSORT_ALLOWED):
        return []
    aliases = _import_map(module.tree)
    findings = []
    seen: Set[int] = set()
    once: Set[int] = set()
    for loop in ast.walk(module.tree):
        if not isinstance(loop, _LOOP_NODES):
            continue
        # The iterable itself is evaluated once, not per iteration:
        # ``for i in np.argsort(x)`` is a single sort and stays legal.
        header = getattr(loop, "iter", None)
        if header is None and getattr(loop, "generators", None):
            header = loop.generators[0].iter
        if header is not None:
            once.update(id(sub) for sub in ast.walk(header))
        for node in ast.walk(loop):
            if (
                not isinstance(node, ast.Call)
                or id(node) in seen
                or id(node) in once
            ):
                continue
            target = _canonical(node.func, aliases)
            is_argsort = target == "numpy.argsort" or (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "argsort"
            )
            if is_argsort:
                seen.add(id(node))
                findings.append(
                    module.finding(
                        "API004",
                        node,
                        "argsort inside a loop re-sorts per iteration — "
                        "the quadratic pattern the presorted kernels "
                        "replaced; presort once outside the loop (see "
                        "repro.ml.tree's columnwise presort) or batch "
                        "the sort over one axis",
                    )
                )
    return findings


# ------------------------------------------------------------------- API005

#: In-place growth calls on ``self.<attr>`` collections.
_STREAM_GROW_METHODS = ("append", "extend", "appendleft", "insert")
#: Trimming calls that bound a buffer.
_STREAM_TRIM_METHODS = ("pop", "popleft", "popitem", "clear", "remove")


def _self_attr(node: ast.AST) -> Optional[str]:
    """``attr`` for a ``self.attr`` expression, else ``None``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def check_api005(module: Module) -> List[Finding]:
    """Unbounded accumulation in a streaming state machine.

    The streaming plane's whole contract is O(window) memory over an
    unbounded stream; an ``self.<attr>.append`` inside a ``push*``
    method grows with every chunk unless something trims the buffer.
    A class is considered bounded for ``<attr>`` when any of its
    methods trims it in place (``pop``/``popleft``/``clear``/
    ``remove``/``del self.<attr>[...]``) or rebinds it outside
    ``__init__`` (the repo's slice-advance idiom,
    ``self._buf = self._buf[hop:]``).  ``+=`` on a self attribute in a
    ``push*`` method counts as growth, not a rebind.
    """
    findings = []
    for cls in ast.walk(module.tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        grow_sites: List[Tuple[str, ast.AST]] = []
        trimmed: Set[str] = set()
        for method in cls.body:
            if not isinstance(
                method, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                continue
            in_push = method.name.startswith("push")
            for node in ast.walk(method):
                if isinstance(node, ast.Call) and isinstance(
                    node.func, ast.Attribute
                ):
                    attr = _self_attr(node.func.value)
                    if attr is not None:
                        if node.func.attr in _STREAM_TRIM_METHODS:
                            trimmed.add(attr)
                        elif (
                            in_push
                            and node.func.attr in _STREAM_GROW_METHODS
                        ):
                            grow_sites.append((attr, node))
                elif isinstance(node, ast.AugAssign):
                    attr = _self_attr(node.target)
                    if attr is not None and in_push:
                        grow_sites.append((attr, node))
                elif isinstance(node, ast.Assign):
                    if method.name == "__init__":
                        continue
                    for target in node.targets:
                        attr = _self_attr(target)
                        if attr is not None:
                            trimmed.add(attr)
                elif isinstance(node, ast.Delete):
                    for target in node.targets:
                        base = (
                            target.value
                            if isinstance(target, ast.Subscript)
                            else target
                        )
                        attr = _self_attr(base)
                        if attr is not None:
                            trimmed.add(attr)
        for attr, node in grow_sites:
            if attr in trimmed:
                continue
            findings.append(
                module.finding(
                    "API005",
                    node,
                    f"self.{attr} grows on every push with no trim "
                    "anywhere in the class — streaming state must stay "
                    "O(window), not O(stream); pop/clear/del the old "
                    "entries or rebind a bounded slice "
                    "(self._buf = self._buf[hop:])",
                )
            )
    return findings


# ------------------------------------------------------------------- API006

#: Process-pool / shared-memory constructors the perf layer wraps.
_RAW_POOL_CALLS = {
    "multiprocessing.Pool": "repro.perf.parallel_map (or "
    "repro.perf.pool.get_pool)",
    "multiprocessing.pool.Pool": "repro.perf.parallel_map (or "
    "repro.perf.pool.get_pool)",
    "concurrent.futures.ProcessPoolExecutor": "repro.perf.parallel_map "
    "(or repro.perf.pool.get_pool)",
    "concurrent.futures.process.ProcessPoolExecutor": (
        "repro.perf.parallel_map (or repro.perf.pool.get_pool)"
    ),
    "multiprocessing.shared_memory.SharedMemory": (
        "repro.perf.shm.publish_arrays / SharedArena"
    ),
}

#: The one layer allowed to construct pools and segments directly.
_RAW_POOL_ALLOWED = ("repro/perf/",)


def check_api006(module: Module) -> List[Finding]:
    """Ad-hoc pools/segments bypass the perf layer's guarantees.

    A bare ``multiprocessing.Pool`` or ``ProcessPoolExecutor`` loses
    the :func:`~repro.perf.parallel_map` contract (submission-order
    results, deterministic task→seed assignment, nested-worker serial
    degradation, crash respawn); a bare ``SharedMemory`` segment loses
    the arena's alignment, resource-tracker, and lifetime bookkeeping.
    Only ``repro/perf/`` — the layer providing those wrappers — may
    construct them directly.
    """
    if _path_matches(module.rel_path, _RAW_POOL_ALLOWED):
        return []
    aliases = _import_map(module.tree)
    findings = []
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        target = _canonical(node.func, aliases)
        replacement = _RAW_POOL_CALLS.get(target)
        if replacement is not None:
            findings.append(
                module.finding(
                    "API006",
                    node,
                    f"{target} constructed outside repro/perf bypasses "
                    f"the pooled execution/shared-memory layer; use "
                    f"{replacement} instead",
                )
            )
    return findings


# ------------------------------------------------------------------- API007

#: Blocking rendezvous methods whose no-timeout form can hang forever.
_BLOCKING_METHODS = ("get", "wait", "join")

#: The layers allowed to park without a deadline: the pool internals
#: (repro/perf — whose collector is itself watched) and the resilience
#: layer that reaps hung workers.  Everyone else must bound the wait so
#: a dead peer surfaces as a timeout, not a hang.
_BLOCKING_ALLOWED = ("repro/perf/", "repro/resilience/")


def _keyword(node: ast.Call, name: str) -> Optional[ast.expr]:
    for kw in node.keywords:
        if kw.arg == name:
            return kw.value
    return None


def check_api007(module: Module) -> List[Finding]:
    """Untimed blocking waits strand the caller when the peer dies.

    The chaos harness's first invariant is *no hang*: every wait on
    another process or thread must carry a deadline so a SIGKILLed
    worker or dead collector turns into a timeout the caller can
    handle.  A call is flagged when it blocks indefinitely:
    ``q.get()`` / ``q.get(True)`` / ``q.get(block=True)``,
    ``event.wait()``, ``proc.join()``, or any of them with an explicit
    ``timeout=None``.  Calls with a finite timeout — positional
    (``join(2.0)``, ``wait(5)``, ``get(True, 5)``) or keyword — pass,
    as do non-blocking forms (``get(False)``, ``get_nowait``),
    value-carrying lookups (``d.get(key)``, ``sep.join(parts)``), and
    ``await``-ed coroutine methods (the event loop stays responsive).
    """
    if _path_matches(module.rel_path, _BLOCKING_ALLOWED):
        return []
    awaited = {
        id(node.value)
        for node in ast.walk(module.tree)
        if isinstance(node, ast.Await)
    }
    findings = []
    for node in ast.walk(module.tree):
        if (
            not isinstance(node, ast.Call)
            or not isinstance(node.func, ast.Attribute)
            or node.func.attr not in _BLOCKING_METHODS
            or id(node) in awaited
        ):
            continue
        timeout = _keyword(node, "timeout")
        if timeout is not None and not _is_none(timeout):
            continue
        attr = node.func.attr
        if attr in ("wait", "join"):
            # A positional argument is the timeout (join(2.0)) or the
            # payload (sep.join(parts)) — either way, not an untimed
            # park.
            blocking = not node.args
        else:  # get
            if len(node.args) >= 2:
                blocking = False  # get(True, 5): second arg is timeout
            elif len(node.args) == 1:
                first = node.args[0]
                blocking = (
                    isinstance(first, ast.Constant) and first.value is True
                )
            else:
                block = _keyword(node, "block")
                blocking = block is None or (
                    isinstance(block, ast.Constant) and block.value is True
                )
        if blocking:
            findings.append(
                module.finding(
                    "API007",
                    node,
                    f".{attr}() blocks with no timeout; if the peer "
                    f"process/thread dies this caller hangs forever — "
                    f"pass a finite timeout and handle expiry (only "
                    f"repro/perf and repro/resilience may park "
                    f"indefinitely)",
                )
            )
    return findings


# ----------------------------------------------------------------- registry

RULES: Dict[str, Rule] = {
    rule.id: rule
    for rule in (
        Rule(
            "RNG001",
            "unseeded-generator",
            "unseeded default_rng/SeedSequence draws OS entropy; "
            "recordings become unreplayable",
            check_rng001,
        ),
        Rule(
            "RNG002",
            "banned-entropy-source",
            "stdlib random / os.urandom / secrets / legacy np.random.* "
            "bypass the explicit-Generator seed discipline",
            check_rng002,
        ),
        Rule(
            "RNG003",
            "rng-helper-bypass",
            "Generators must be built by utils.rng.ensure_rng/spawn so "
            "normalize_seed(None) -> 0 applies everywhere",
            check_rng003,
        ),
        Rule(
            "TIME001",
            "wall-clock-in-simulated-time",
            "time.time()/datetime.now() in simulated-time modules breaks "
            "replayability (repro/perf timing helpers exempt)",
            check_time001,
        ),
        Rule(
            "CONC001",
            "worker-global-mutation",
            "parallel_map tasks mutating module globals silently lose "
            "the writes under fork",
            check_conc001,
        ),
        Rule(
            "CONC002",
            "unlocked-guarded-field",
            "fields documented as lock-guarded (_clock/_FIT_CONTEXT) "
            "must be accessed under their lock",
            check_conc002,
        ),
        Rule(
            "CONC003",
            "worker-closure-capture",
            "lambdas/closures submitted to parallel_map capture "
            "unpicklable parent state (handles, live Generators)",
            check_conc003,
        ),
        Rule(
            "API001",
            "hwmon-boundary",
            "raw hwmon register reads outside repro/sensors + "
            "repro/soc bypass fault plans and sensor health",
            check_api001,
        ),
        Rule(
            "API002",
            "float-equality",
            "float ==/!= against literals is fragile on computed trace "
            "data; exact sentinels need an explicit suppression",
            check_api002,
        ),
        Rule(
            "API003",
            "mutable-default-argument",
            "mutable defaults are shared across calls and forked "
            "workers",
            check_api003,
        ),
        Rule(
            "API004",
            "argsort-in-loop",
            "per-iteration argsort outside repro/ml re-derives order "
            "the presorted/batched kernels compute once",
            check_api004,
        ),
        Rule(
            "API005",
            "unbounded-stream-state",
            "push* methods appending to untrimmed self collections "
            "grow with the stream; streaming state must stay O(window)",
            check_api005,
        ),
        Rule(
            "API006",
            "raw-process-pool",
            "bare multiprocessing.Pool/ProcessPoolExecutor/SharedMemory "
            "outside repro/perf bypasses the pooled execution and "
            "shared-memory lifetime layer",
            check_api006,
        ),
        Rule(
            "API007",
            "untimed-blocking-call",
            "blocking Queue.get/Event.wait/Process.join without a "
            "timeout hangs forever when the peer dies; bound every "
            "wait outside repro/perf + repro/resilience",
            check_api007,
        ),
        # Whole-program rules: evaluated by repro.check.flow over the
        # project model, not per module (see that package's docstring).
        Rule(
            "PARSE000",
            "unparseable-file",
            "a file the checker cannot read or parse can hide any "
            "violation; it is reported as a finding so the tree can "
            "never check green around it",
            whole_program=True,
        ),
        Rule(
            "FLOW001",
            "entropy-taint-reaches-sink",
            "a value derived from an unseeded default_rng/SeedSequence "
            "reaches a Trace/archive/classifier sink — even through "
            "helpers in other modules — making the recording "
            "unreplayable; sanitize via utils.rng.ensure_rng",
            whole_program=True,
        ),
        Rule(
            "FLOW002",
            "os-entropy-taint-reaches-sink",
            "a value derived from OS/clock entropy (os.urandom, "
            "secrets, stdlib random, time-seeded generators) reaches "
            "a recording sink; such runs cannot be replayed",
            whole_program=True,
        ),
        Rule(
            "FLOW003",
            "wall-clock-taint-escape",
            "a helper's wall-clock return value flows into "
            "simulated-time code outside repro/perf + "
            "repro/resilience; the interprocedural TIME001",
            whole_program=True,
        ),
        Rule(
            "FLOW004",
            "unlocked-worker-path-write",
            "a function reachable from a parallel_map/WorkerPool task "
            "writes module-level state without a lock; the write is "
            "lost under fork (the interprocedural CONC001)",
            whole_program=True,
        ),
        Rule(
            "FLOW005",
            "inconsistent-lock-order",
            "two locks are acquired in opposite orders on different "
            "paths (including through calls) — the ABBA deadlock "
            "shape",
            whole_program=True,
        ),
    )
}
