"""Finding model for the ``repro.check`` static analyzer.

A :class:`Finding` is one rule violation at one source location.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location.

    Args:
        path: file path, POSIX-style, relative to the scan root.
        line: 1-based source line of the offending node.
        col: 0-based column of the offending node.
        rule: rule identifier (e.g. ``"RNG001"``).
        message: human-readable description of the violation.
        snippet: the stripped source line, for reports.
    """

    path: str
    line: int
    col: int
    rule: str
    message: str
    snippet: str = ""

    def format(self) -> str:
        """One ``path:line:col: RULE message`` diagnostic line."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def to_dict(self) -> Dict:
        """JSON-ready representation (CI annotation schema)."""
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
            "snippet": self.snippet,
        }
