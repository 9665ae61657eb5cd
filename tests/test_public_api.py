"""Public-API stability tests.

Downstream users import from the package roots; these tests pin the
documented entry points so a refactor cannot silently drop them.
"""

import ast
import importlib
from pathlib import Path

import pytest

#: module -> names that must stay importable from it.
PUBLIC_API = {
    "repro": [
        "Soc", "HwmonSampler", "DnnFingerprinter", "FingerprintConfig",
        "RsaHammingWeightAttack", "characterize", "DpuRunner",
        "build_model", "list_models", "PowerVirusArray", "RsaCircuit",
        "RandomForestClassifier", "Trace", "TraceSet",
    ],
    "repro.boards": [
        "list_boards", "get_board", "sensitive_sensors", "sensor_map_for",
        "VCK190_SENSORS",
    ],
    "repro.fpga": [
        "Fabric", "CircuitSpec", "VoltageRegulator", "PowerVirusArray",
        "RingOscillator", "RoSensorBank", "TdcSensor", "RsaCircuit",
        "AesCircuit", "IsolatedTenantPdn",
    ],
    "repro.sensors": [
        "Ina226", "Ina226Config", "HwmonTree", "HwmonDevice",
    ],
    "repro.soc": [
        "Soc", "PowerRail", "ActivityTimeline", "ConstantActivity",
        "PiecewiseActivity", "OndemandGovernor", "BackgroundLoad",
    ],
    "repro.dpu": [
        "DpuCore", "DpuConfig", "DpuRunner", "DpuCompiler", "ModelSpec",
        "build_model", "list_models", "FIG3_MODELS",
    ],
    "repro.crypto": [
        "hamming_weight", "PAPER_HAMMING_WEIGHTS",
    ],
    "repro.ml": [
        "RandomForestClassifier", "DecisionTreeClassifier",
        "KNeighborsClassifier", "LogisticRegressionClassifier",
        "cross_validate", "accuracy", "top_k_accuracy",
    ],
    "repro.core": [
        "HwmonSampler", "Trace", "TraceSet", "characterize",
        "DnnFingerprinter", "RsaHammingWeightAttack", "CovertChannel",
        "OnsetDetector", "AttackCampaign", "SensorHardening",
    ],
    "repro.analysis": [
        "pearson", "linear_fit", "relative_variation", "welch_t_test",
        "snr", "summarize", "count_groups", "estimate_serving_rate",
    ],
}


@pytest.mark.parametrize("module_name", sorted(PUBLIC_API))
def test_module_exports(module_name):
    module = importlib.import_module(module_name)
    for name in PUBLIC_API[module_name]:
        assert hasattr(module, name), f"{module_name} lost {name}"


@pytest.mark.parametrize("module_name", sorted(PUBLIC_API))
def test_all_lists_are_importable(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", [])
    for name in exported:
        assert hasattr(module, name), f"{module_name}.__all__ lists {name}"


def test_version_string():
    import repro

    assert repro.__version__.count(".") == 2


def test_cli_report_subcommand(capsys, tmp_path):
    from repro.cli import main

    code = main([
        "report",
        "--samples", "40",
        "--rsa-samples", "1200",
        "--output", str(tmp_path / "r.md"),
    ])
    assert code == 0
    text = (tmp_path / "r.md").read_text()
    assert "Fig 2" in text and "Fig 4" in text


#: Modules no production entry point imports yet, with the reason each
#: may stay.  An entry that becomes reachable must leave this table.
UNREACHED_ALLOWED = {"repro.soc.dvfs": "ROADMAP item 12 decides"}

ROOT = Path(__file__).resolve().parents[1]


def _module_table():
    """(dotted name -> parsed tree, package names) under ``src/repro``."""
    modules, packages = {}, set()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        parts = path.relative_to(ROOT / "src").with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
            packages.add(".".join(parts))
        modules[".".join(parts)] = ast.parse(path.read_text(), str(path))
    return modules, packages


def _import_targets(tree, modules, resolve):
    """Every module a tree imports, static imports inside functions too."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in modules:
                    yield alias.name
        elif isinstance(node, ast.ImportFrom) and node.module in modules:
            for alias in node.names:
                yield resolve(node.module, alias.name)


def test_every_module_has_a_production_importer():
    """No ``src/`` module is reachable only from tests.

    Roots are the CLI and every file under ``bench/``, ``benchmarks/``
    and ``examples/``.  A name imported from a package resolves through
    the package's ``__init__`` re-exports to the module defining it; an
    ``__init__`` that defines functions or classes of its own is a
    module whose imports are edges too.
    """
    modules, packages = _module_table()
    reexports = {
        package: {
            alias.asname or alias.name: (node.module, alias.name)
            for node in modules[package].body
            if isinstance(node, ast.ImportFrom)
            for alias in node.names
        }
        for package in packages
    }
    own_code = {
        package for package in packages
        if any(
            isinstance(node, (ast.FunctionDef, ast.ClassDef))
            for node in modules[package].body
        )
    }

    def resolve(module, name):
        while module in packages:
            if f"{module}.{name}" in modules:
                return f"{module}.{name}"
            if name not in reexports[module]:
                return module
            module, name = reexports[module][name]
        return module

    frontier = ["repro.cli", "repro.__main__"]
    for folder in ("bench", "benchmarks", "examples"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            tree = ast.parse(path.read_text(), str(path))
            frontier.extend(_import_targets(tree, modules, resolve))
    reached = set()
    while frontier:
        name = frontier.pop()
        if name in reached or name not in modules:
            continue
        reached.add(name)
        if name not in packages or name in own_code:
            frontier.extend(_import_targets(modules[name], modules, resolve))

    unreached = sorted(
        name for name in set(modules) - packages - reached
        if name not in UNREACHED_ALLOWED
    )
    assert not unreached, f"only tests import {unreached}"
    stale = sorted(set(UNREACHED_ALLOWED) & reached)
    assert not stale, f"now reachable, drop from UNREACHED_ALLOWED: {stale}"


#: Top-level names no production file references, with the reason each
#: may stay.  An entry that becomes referenced must leave this table.
UNREFERENCED_ALLOWED = {
    "repro.analysis.distributions.pairwise_separable": "ROADMAP item 15",
    "repro.analysis.distributions.overlap_fraction": "ROADMAP item 15",
}


def _defined_names(tree):
    """(name, node) per top-level function, class and UPPER_CASE constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                if isinstance(target, ast.Name) and target.id.isupper():
                    yield target.id, node


def _references(statement):
    """Names a statement reads, attribute names and ``from`` imports too."""
    for node in ast.walk(statement):
        if isinstance(node, (ast.Name, ast.Attribute)):
            if isinstance(node.ctx, ast.Load):
                yield node.id if isinstance(node, ast.Name) else node.attr
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name


def test_every_top_level_name_has_a_production_reference():
    """No ``src/`` function, class or constant is reached only by tests.

    Every top-level function, class and UPPER_CASE constant of a module
    under ``src/repro`` must be read, as a name, an attribute or a
    ``from`` import, somewhere in ``src/repro``, ``bench/``,
    ``benchmarks/`` or ``examples/``.  Its own definition does not
    count, nor do an ``__init__``'s top-level re-export imports;
    strings (``__all__``, docstrings) are never references.
    """
    modules, packages = _module_table()
    trees = [
        (name in packages, tree) for name, tree in modules.items()
    ] + [
        (False, ast.parse(path.read_text(), str(path)))
        for folder in ("bench", "benchmarks", "examples")
        for path in sorted((ROOT / folder).rglob("*.py"))
    ]
    readers = {}  # name -> the top-level statements that read it
    for is_package, tree in trees:
        for statement in tree.body:
            if is_package and isinstance(statement, ast.ImportFrom):
                continue
            for name in _references(statement):
                readers.setdefault(name, set()).add(statement)

    unreferenced = {
        f"{module}.{name}"
        for module, tree in modules.items()
        if module not in packages and module not in UNREACHED_ALLOWED
        for name, node in _defined_names(tree)
        if not readers.get(name, set()) - {node}
    }
    unallowed = sorted(unreferenced - set(UNREFERENCED_ALLOWED))
    assert not unallowed, f"only tests reference {unallowed}"
    stale = sorted(set(UNREFERENCED_ALLOWED) - unreferenced)
    assert not stale, f"now referenced, drop from UNREFERENCED_ALLOWED: {stale}"


#: Methods no production file reads, with the reason each may stay.
#: An entry that becomes read must leave this table.
UNREAD_METHODS_ALLOWED = {
    "HwmonDevice.inject_failure": "unbind/stale fault seam for tests",
    "HwmonDevice.clear_failure": "unbind/stale fault seam for tests",
    "ActivityTimeline.silent_between": "exact oracle for quiet_bounds",
    "PiecewiseActivity.silent_between": "exact oracle for quiet_bounds",
    "CycleRunActivity.silent_between": "exact oracle for quiet_bounds",
}


def _string_references(node):
    """Dotted identifiers a string constant names (``"Owner.method"``)."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        if all(part.isidentifier() for part in node.value.split(".")):
            yield from node.value.split(".")


def _is_docstring(node):
    return isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)


def _method_reads(tree):
    """(name, enclosing function nodes) per attribute or string read."""
    stack = [(tree, ())]
    while stack:
        node, scopes = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scopes += (node,)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, scopes
        for name in _string_references(node):
            yield name, scopes
        stack.extend(
            (child, scopes) for child in ast.iter_child_nodes(node)
            if not _is_docstring(child)
        )


def test_every_method_has_a_production_reference():
    """No ``src/`` method or property is reached only by tests.

    Every non-dunder method or property of a class in a reached module
    under ``src/repro`` must be read somewhere in ``src/repro``,
    ``bench/``, ``benchmarks/`` or ``examples/``, outside its own body:
    as an attribute load (``obj.name``; the write ``obj.name = x`` is
    not a read), or through a string constant that names it
    (``getattr(obj, "name")``, ``"Owner.name"`` as the bench tracer's
    ``LAYERS`` holds).  Docstrings are never references.  The scan
    matches on names, so a method shares the reads of every attribute
    with its name.
    """
    modules, _ = _module_table()
    trees = list(modules.values()) + [
        ast.parse(path.read_text(), str(path))
        for folder in ("bench", "benchmarks", "examples")
        for path in sorted((ROOT / folder).rglob("*.py"))
    ]
    readers = {}  # name -> the enclosing functions of each read
    for tree in trees:
        for name, scopes in _method_reads(tree):
            readers.setdefault(name, []).append(scopes)

    unread = set()
    for module, tree in modules.items():
        if module in UNREACHED_ALLOWED:
            continue
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for method in cls.body:
                if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                name = method.name
                if name.startswith("__") and name.endswith("__"):
                    continue
                if not any(
                    method not in scopes for scopes in readers.get(name, [])
                ):
                    unread.add(f"{cls.name}.{name}")
    unallowed = sorted(unread - set(UNREAD_METHODS_ALLOWED))
    assert not unallowed, f"only tests read {unallowed}"
    stale = sorted(set(UNREAD_METHODS_ALLOWED) - unread)
    assert not stale, f"now read, drop from UNREAD_METHODS_ALLOWED: {stale}"


#: Instance attributes no production file reads, with the reason each
#: may stay.  An entry that becomes read must leave this table.
UNREAD_ATTRIBUTES_ALLOWED = {}


def _attribute_stores(cls):
    """Attribute names a class's own methods store on ``self``."""
    stack = list(cls.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.ClassDef):
            continue  # a nested class owns its own attributes
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Store)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            yield node.attr
        stack.extend(ast.iter_child_nodes(node))


def test_every_instance_attribute_is_read():
    """No ``src/`` class stores an attribute that nothing reads.

    Every ``self.<name> = ...`` store in a class of a reached module
    under ``src/repro`` must be read somewhere in ``src/repro``,
    ``bench/``, ``benchmarks/`` or ``examples/``: as an attribute load
    (``obj.name``, the class's own methods included) or through a
    string constant that names it, the same rule the method scan uses.
    A value only tests inspect belongs in a test helper.
    """
    modules, _ = _module_table()
    trees = list(modules.values()) + [
        ast.parse(path.read_text(), str(path))
        for folder in ("bench", "benchmarks", "examples")
        for path in sorted((ROOT / folder).rglob("*.py"))
    ]
    read = {name for tree in trees for name, _ in _method_reads(tree)}
    unread = {
        f"{cls.name}.{name}"
        for module, tree in modules.items()
        if module not in UNREACHED_ALLOWED
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for name in _attribute_stores(cls)
        if name not in read
    }
    unallowed = sorted(unread - set(UNREAD_ATTRIBUTES_ALLOWED))
    assert not unallowed, f"only tests read {unallowed}"
    stale = sorted(set(UNREAD_ATTRIBUTES_ALLOWED) - unread)
    assert not stale, f"now read, drop from UNREAD_ATTRIBUTES_ALLOWED: {stale}"
