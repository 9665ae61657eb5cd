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
RNG003      Generators and ``SeedSequence`` objects are built via
            ``repro.utils.rng`` (``ensure_rng`` / ``spawn``) so the
            ``normalize_seed`` policy applies
TIME001     no wall-clock reads in simulated-time modules
            (``repro/perf`` is exempt; the fleet scheduler's report
            timings carry inline waivers)
CONC003     only module-level functions go to ``parallel_map`` — no
            lambdas/closures (they capture handles and cannot pickle)
API001      hwmon register reads stay behind the
            ``read_series_faulted`` boundary (sensors/soc layers only)
API002      no float ``==`` / ``!=`` on computed data (seed/chunking
            fragile); exact sentinels must be suppressed explicitly
API003      no mutable default arguments (shared across calls — and
            across forked workers)
API004      no ``argsort`` calls inside loops outside ``repro/ml`` —
            per-iteration sorting is the quadratic pattern
            ``grow_trees``' one batched sort replaced
API005      streaming state classes must stay bounded: a ``push*``
            method growing ``self.<attr>`` in place (``append`` /
            ``extend`` / ``+=``) needs a matching trim (``pop`` /
            ``clear`` / ``del`` / slice rebind) somewhere in the
            class, else memory scales with the stream, not the window
API006      no bare ``multiprocessing.Pool`` / ``ProcessPoolExecutor``
            / ``SharedMemory`` outside ``repro/perf`` — ad-hoc pools
            and segments skip the deterministic task→seed assignment
            and crash recovery of the ``repro.perf`` pool; arrays
            travel to workers through ``parallel_map``
PARSE000    unreadable/unparseable files are findings, not skips
FLOW003     (whole-program) wall-clock values must not flow through
            helpers into simulated-time code outside repro/perf
FLOW004     (whole-program) no module-state writes on paths
            reachable from parallel_map/pool task callables
==========  ============================================================

Each per-module rule is a pure function ``(Module) -> List[Finding]``;
the engine (:mod:`repro.check.engine`) handles file discovery and
suppression comments.  Rules marked ``whole_program``
are evaluated by :mod:`repro.check.flow` over the assembled project
model instead.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

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

    @cached_property
    def nodes(self) -> List[ast.AST]:
        """Every node of the tree, in ``ast.walk`` order (walked once)."""
        return list(ast.walk(self.tree))

    @cached_property
    def aliases(self) -> Dict[str, str]:
        """Local name -> canonical dotted origin, from every import."""
        return _import_map(self.nodes)

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


def _import_map(nodes: Iterable[ast.AST]) -> Dict[str, str]:
    """Local name -> canonical dotted origin, from every import node."""
    aliases: Dict[str, str] = {}
    for node in nodes:
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


#: The timing and pool layer: the one place allowed to read the wall
#: clock (TIME001, FLOW003), build process pools (API006) and write
#: module state on worker paths (FLOW004: the pool registry is
#: per-process by design, rebuilt after a ``fork``).
PERF_LAYER = ("repro/perf/",)


# ------------------------------------------------------------------- RNG001

_SEEDED_FACTORIES = ("numpy.random.default_rng", "numpy.random.SeedSequence")


def check_rng001(module: Module) -> List[Finding]:
    """Unseeded numpy Generator construction reaches OS entropy."""
    aliases = module.aliases
    findings = []
    for node in module.nodes:
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
    aliases = module.aliases
    findings = []
    for node in module.nodes:
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

#: The one module allowed to construct Generators and SeedSequences
#: directly — everything else goes through ensure_rng/spawn so the seed
#: policy applies.
_RNG_HELPER_MODULES = ("repro/utils/rng.py",)


def check_rng003(module: Module) -> List[Finding]:
    """Direct default_rng/SeedSequence construction bypasses the policy."""
    if _path_matches(module.rel_path, _RNG_HELPER_MODULES):
        return []
    aliases = module.aliases
    findings = []
    for node in module.nodes:
        if not isinstance(node, ast.Call):
            continue
        target = _canonical(node.func, aliases)
        if target not in _SEEDED_FACTORIES:
            continue
        findings.append(
            module.finding(
                "RNG003",
                node,
                f"{target.rsplit('.', 1)[-1]} built directly; construct "
                f"Generators via repro.utils.rng.ensure_rng or spawn so "
                f"the library seed policy (None -> 0, name-keyed "
                f"streams) applies uniformly",
            )
        )
    return findings


# ------------------------------------------------------------------ TIME001

#: Wall-clock reads: read directly (TIME001) or returned through a
#: helper (FLOW003, :mod:`repro.check.flow.taint`).
WALL_CLOCK_CALLS = frozenset({
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
})


def check_time001(module: Module) -> List[Finding]:
    """Wall-clock reads poison simulated-time determinism."""
    if _path_matches(module.rel_path, PERF_LAYER):
        return []
    aliases = module.aliases
    findings = []
    for node in module.nodes:
        if not isinstance(node, ast.Call):
            continue
        target = _canonical(node.func, aliases)
        if target in WALL_CLOCK_CALLS:
            findings.append(
                module.finding(
                    "TIME001",
                    node,
                    f"{target} reads the wall clock inside a "
                    f"simulated-time module; derive times from the "
                    f"experiment clock, or waive a host-time read that "
                    f"never reaches simulated time with an inline "
                    f"'repro: ignore[TIME001] <reason>' comment",
                )
            )
    return findings


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


def _lambda_names(nodes: Iterable[ast.AST]) -> Set[str]:
    names: Set[str] = set()
    for node in nodes:
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Lambda):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
    return names


def check_conc003(module: Module) -> List[Finding]:
    """Closures/lambdas handed to parallel_map cannot cross the fork."""
    aliases = module.aliases
    nested = _nested_function_names(module.tree)
    lambdas = _lambda_names(module.nodes)
    findings = []
    for node in module.nodes:
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
    for node in module.nodes:
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
    for node in module.nodes:
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
    aliases = module.aliases
    findings = []
    for node in module.nodes:
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

#: Where per-iteration sorts are sanctioned: the CART grower itself
#: (repro/ml — one batched stable argsort per scoring step, covering
#: the drawing nodes of every tree grown in lockstep).
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
    CART spent its time: O(n log n) work per iteration that one
    batched sort (``repro.ml.tree.grow_trees``) does once per step.
    Outside the sanctioned kernels, an ``argsort`` in any loop body
    (or comprehension) is flagged — hoist it above the loop or batch
    the whole operation.
    """
    if _path_matches(module.rel_path, _ARGSORT_ALLOWED):
        return []
    aliases = module.aliases
    findings = []
    seen: Set[int] = set()
    once: Set[int] = set()
    for loop in module.nodes:
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
                        "the quadratic pattern the batched kernels "
                        "replaced; sort once outside the loop or batch "
                        "the sort over one axis (see grow_trees' one "
                        "batched sort in repro.ml.tree)",
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
    for cls in module.nodes:
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

#: Process-pool / shared-memory constructors the perf layer replaces.
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
        "plain arrays passed through repro.perf.parallel_map"
    ),
}


def check_api006(module: Module) -> List[Finding]:
    """Ad-hoc pools/segments bypass the perf layer's guarantees.

    A bare ``multiprocessing.Pool`` or ``ProcessPoolExecutor`` loses
    the :func:`~repro.perf.parallel_map` contract (submission-order
    results, deterministic task→seed assignment, nested-worker serial
    degradation, rebuild after a worker death).  A bare ``SharedMemory`` segment
    needs unlink and resource-tracker bookkeeping in every process
    that touches it; arrays should instead travel to workers inside
    the task pickle, by passing them through ``parallel_map``.  Only
    ``repro/perf/`` — the pool's own layer — may construct these
    directly.
    """
    if _path_matches(module.rel_path, PERF_LAYER):
        return []
    aliases = module.aliases
    findings = []
    for node in module.nodes:
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
                    f"the pooled execution layer; use "
                    f"{replacement} instead",
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
            "Generators and SeedSequences must be built by "
            "utils.rng.ensure_rng/spawn so normalize_seed(None) -> 0 "
            "applies everywhere",
            check_rng003,
        ),
        Rule(
            "TIME001",
            "wall-clock-in-simulated-time",
            "time.time()/datetime.now() in simulated-time modules breaks "
            "replayability (a host-time read for reports takes an inline "
            "'repro: ignore[TIME001] <reason>' comment)",
            check_time001,
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
            "the batched kernels compute once",
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
            "outside repro/perf bypasses the pooled execution layer; "
            "pass arrays through parallel_map",
            check_api006,
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
            "FLOW003",
            "wall-clock-taint-escape",
            "a helper's wall-clock return value flows into "
            "simulated-time code outside repro/perf; the "
            "interprocedural TIME001",
            whole_program=True,
        ),
        Rule(
            "FLOW004",
            "worker-path-module-write",
            "a function reachable from a parallel_map/pool task "
            "writes module-level state; the write is lost under fork, "
            "lock or no lock",
            whole_program=True,
        ),
    )
}
