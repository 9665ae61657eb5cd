"""File discovery, suppression, reporting.

The engine is the orchestration half of ``repro.check``.  A run has
two phases:

1. a **per-module phase** — parse each file once, run the selected
   syntactic rules (:data:`repro.check.rules.RULES`), apply inline
   ``# repro: ignore[RULE]`` suppressions, and extract the module's
   flow facts (:mod:`repro.check.flow.symbols`).  This phase is pure
   per file, so it fans out over :func:`repro.perf.parallel_map` when
   workers are available;
2. a **whole-program phase** — assemble the facts into a project model
   and run the FLOW rules (:mod:`repro.check.flow`) over the call
   graph.  It is cheap next to parsing.

Every run analyses every file fresh: there is no result cache, so a
changed rule or a changed import can never be answered from stale
results.

Findings from both phases flow through the same inline suppressions,
the checker's one waiver mechanism: a ``# repro: ignore[RULE] reason``
comment on the flagged line.  Files that cannot be read or parsed are
*never* skipped: they produce a synthetic ``PARSE000`` finding (plus a
:class:`ParseError` for the exit-code path), so a broken file cannot
make the tree check green.

Exit-code policy (used by the CLI): a run is *clean* when there are no
findings and no unparsable files.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path, PurePosixPath
from typing import Dict, Iterable, List, Optional, Sequence, Set, Union

from repro.check.findings import Finding
from repro.check.flow import (
    FLOW_RULE_IDS,
    ModuleFacts,
    extract_module_facts,
    run_flow_analysis,
)
from repro.check.rules import RULES, Module, Rule

PathLike = Union[str, Path]

#: Inline suppression: ``# repro: ignore[RULE1,RULE2] optional reason``.
SUPPRESS_RE = re.compile(r"#\s*repro:\s*ignore\[([A-Za-z0-9_,\s]+)\]")


@dataclass(frozen=True)
class ParseError:
    """A file the checker could not parse (reported, and fails the run)."""

    path: str
    line: int
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:0: PARSE {self.message}"

    def to_dict(self) -> Dict:
        return {"path": self.path, "line": self.line, "message": self.message}


@dataclass
class CheckResult:
    """Everything one ``run_check`` pass produced."""

    findings: List[Finding] = field(default_factory=list)
    suppressed: int = 0
    errors: List[ParseError] = field(default_factory=list)
    files_scanned: int = 0
    rules_run: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Clean: nothing to report and every file parsed."""
        return not self.findings and not self.errors


class UnknownRuleError(ValueError):
    """A ``--rules`` selection named a rule that does not exist."""


def select_rules(rule_ids: Optional[Sequence[str]] = None) -> List[Rule]:
    """Resolve a rule-id selection (case-insensitive) to Rule objects."""
    if not rule_ids:
        return list(RULES.values())
    selected = []
    for rule_id in rule_ids:
        rule = RULES.get(rule_id.upper())
        if rule is None:
            known = ", ".join(sorted(RULES))
            raise UnknownRuleError(
                f"unknown rule {rule_id!r}; known rules: {known}"
            )
        selected.append(rule)
    return selected


def iter_python_files(
    paths: Iterable[PathLike], root: Path
) -> List[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    files: Set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if not path.is_absolute():
            path = root / path
        if path.is_dir():
            files.update(
                candidate
                for candidate in path.rglob("*.py")
                if "__pycache__" not in candidate.parts
            )
        elif path.suffix == ".py" and path.exists():
            files.add(path)
        elif not path.exists():
            raise FileNotFoundError(f"no such file or directory: {path}")
    return sorted(files)


def _rel_path(path: Path, root: Path) -> str:
    try:
        return str(PurePosixPath(path.relative_to(root)))
    except ValueError:
        return str(PurePosixPath(path))


def _suppressions(lines: Sequence[str]) -> Dict[int, Set[str]]:
    """Per-line sets of suppressed rule ids (1-based line numbers)."""
    table: Dict[int, Set[str]] = {}
    for lineno, line in enumerate(lines, start=1):
        match = SUPPRESS_RE.search(line)
        if match:
            table[lineno] = {
                piece.strip().upper()
                for piece in match.group(1).split(",")
                if piece.strip()
            }
    return table


def default_root() -> Path:
    """The repo root: cwd when it holds ``src/repro``, else derived
    from this package's location (``src/repro/check`` -> repo)."""
    cwd = Path.cwd()
    if (cwd / "src" / "repro" / "__init__.py").exists():
        return cwd
    src = Path(__file__).resolve().parents[2]
    if src.name == "src" and (src / "repro" / "__init__.py").exists():
        return src.parent
    return cwd


def default_paths(root: Path) -> List[Path]:
    """What to scan when no paths are given: the library source."""
    src = root / "src"
    if src.is_dir():
        return [src]
    return [Path(__file__).resolve().parents[1]]


# ------------------------------------------------------- per-module phase


@dataclass
class ModuleResult:
    """One file's per-module product, pickled back from a worker."""

    findings: List[Finding] = field(default_factory=list)
    suppressed: int = 0
    #: line -> rule ids suppressed there (applied to FLOW findings later)
    suppress_lines: Dict[int, Set[str]] = field(default_factory=dict)
    #: ``None`` when the file failed to parse or no FLOW rule runs
    facts: Optional[ModuleFacts] = None
    parse_error: Optional[ParseError] = None


def _parse_failure(
    rel: str, line: int, message: str, rule_ids: Sequence[str]
) -> ModuleResult:
    """Result for an unreadable/unparseable file."""
    findings = []
    if "PARSE000" in rule_ids:
        findings.append(
            Finding(
                path=rel,
                line=line,
                col=0,
                rule="PARSE000",
                message=(
                    f"file could not be analyzed ({message}); a file "
                    f"the checker cannot parse can hide any violation "
                    f"— fix it or delete it"
                ),
                snippet="",
            )
        )
    return ModuleResult(
        findings=findings, parse_error=ParseError(rel, line, message)
    )


def analyze_source_file(payload) -> ModuleResult:
    """Per-module analysis pass: rules + suppressions + flow facts.

    ``payload`` is ``(absolute path, rel path, selected rule ids)``.
    Pure function of the file's content and the selection — the unit
    ``parallel_map`` fans out.
    """
    path_str, rel, rule_ids = payload
    try:
        module = Module.parse(Path(path_str), rel)
    except SyntaxError as exc:
        return _parse_failure(
            rel, exc.lineno or 1, f"syntax error: {exc.msg}", rule_ids
        )
    except (OSError, UnicodeDecodeError, ValueError) as exc:
        return _parse_failure(rel, 1, f"unreadable: {exc}", rule_ids)

    result = ModuleResult(suppress_lines=_suppressions(module.lines))
    for rule_id in rule_ids:
        rule = RULES[rule_id]
        if rule.whole_program:
            continue
        for finding in rule.check(module):
            if rule.id in result.suppress_lines.get(finding.line, ()):
                result.suppressed += 1
            else:
                result.findings.append(finding)
    if any(rule_id in FLOW_RULE_IDS for rule_id in rule_ids):
        result.facts = extract_module_facts(module)
    return result


def run_check(
    paths: Optional[Sequence[PathLike]] = None,
    rules: Optional[Sequence[str]] = None,
    root: Optional[PathLike] = None,
    *,
    workers: Optional[int] = None,
) -> CheckResult:
    """Run the selected rules over ``paths`` and classify the findings.

    Args:
        paths: files/directories to scan (default: ``<root>/src``).
        rules: rule-id selection (default: every registered rule).
        root: directory findings are reported relative to (default:
            auto-detected repo root).
        workers: worker count for the per-module pass (``None`` honors
            ``AMPEREBLEED_WORKERS``; serial fallback as usual).

    Returns:
        a :class:`CheckResult`; ``result.ok`` is the pass/fail signal.
    """
    from repro.perf.executor import parallel_map

    root = Path(root) if root is not None else default_root()
    selected = select_rules(rules)
    rule_ids = tuple(rule.id for rule in selected)
    scan_paths = (
        [Path(p) for p in paths] if paths else default_paths(root)
    )
    result = CheckResult(rules_run=list(rule_ids))

    files = iter_python_files(scan_paths, root)
    payloads = [(str(path), _rel_path(path, root), rule_ids) for path in files]
    modules = parallel_map(
        analyze_source_file, payloads, workers=workers, chunksize=8
    )

    # -- assemble per-module results ------------------------------------
    findings: List[Finding] = []
    project: Dict[str, ModuleFacts] = {}
    suppress_lines: Dict[str, Dict[int, Set[str]]] = {}
    for (_, rel, _), module in zip(payloads, modules):
        findings.extend(module.findings)
        if module.parse_error is not None:
            result.errors.append(module.parse_error)
            continue
        result.files_scanned += 1
        result.suppressed += module.suppressed
        suppress_lines[rel] = module.suppress_lines
        if module.facts is not None:
            project[module.facts.module] = module.facts

    # -- whole-program phase --------------------------------------------
    for finding in run_flow_analysis(project, rule_ids):
        if finding.rule in suppress_lines.get(finding.path, {}).get(
            finding.line, ()
        ):
            result.suppressed += 1
        else:
            findings.append(finding)
    result.findings = sorted(findings)
    return result


# ---------------------------------------------------------------- rendering


def render_text(result: CheckResult) -> str:
    """Human-readable report: one diagnostic line per finding."""
    lines: List[str] = []
    for error in result.errors:
        lines.append(error.format())
    for finding in result.findings:
        lines.append(finding.format())
    lines.append(
        f"{len(result.findings)} finding"
        f"{'' if len(result.findings) == 1 else 's'} "
        f"({result.suppressed} suppressed) across "
        f"{result.files_scanned} files"
    )
    return "\n".join(lines)


def render_json(result: CheckResult) -> str:
    """Machine-readable report for CI annotation."""
    document = {
        "version": 1,
        "ok": result.ok,
        "summary": {
            "findings": len(result.findings),
            "suppressed": result.suppressed,
            "errors": len(result.errors),
            "files_scanned": result.files_scanned,
            "rules_run": result.rules_run,
        },
        "findings": [finding.to_dict() for finding in result.findings],
        "errors": [error.to_dict() for error in result.errors],
    }
    return json.dumps(document, indent=2)
