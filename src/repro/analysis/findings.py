"""The types the engine and the checkers share.

A checker receives every parsed file as a :class:`SourceFile` and
returns :class:`Finding` diagnostics: where (``path:line``), which
checker, how bad, what is wrong, and — because a lint that only
complains trains people to suppress it — a concrete fix hint.
"""

from __future__ import annotations

import ast
import enum
from dataclasses import dataclass, field
from typing import NamedTuple, Protocol, Sequence


class Severity(enum.Enum):
    """How a finding affects the exit code.

    ``ERROR`` findings fail the run (exit 1) unless suppressed;
    ``WARNING`` findings are printed but never fail.
    """

    WARNING = "warning"
    ERROR = "error"


@dataclass(frozen=True)
class Finding:
    """One diagnostic produced by a checker."""

    checker: str
    path: str  # repo-relative, forward slashes
    line: int  # 1-based; 0 = whole-file finding
    message: str
    hint: str = ""
    severity: Severity = Severity.ERROR
    # A short stable symbol (class/function/field name) the finding is
    # about, so a finding can be named without its line number.
    symbol: str = ""

    def key(self) -> str:
        """Line-independent identity: checker, file and symbol."""
        return f"{self.checker}:{self.path}:{self.symbol or self.message}"

    def location(self) -> str:
        return f"{self.path}:{self.line}" if self.line else self.path

    def render(self) -> str:
        text = f"{self.location()}: {self.severity.value}[{self.checker}] {self.message}"
        if self.hint:
            text += f"\n    hint: {self.hint}"
        return text


class SourceFile(NamedTuple):
    """One file of the lint run, parsed once and shared by every checker."""

    path: str  # repo-relative, forward slashes
    tree: ast.Module
    source: str


class Checker(Protocol):
    """A checker: an id, a one-line description, and one pass over the
    parsed files (cross-file checkers see them all at once)."""

    id: str
    description: str

    def check(self, files: Sequence[SourceFile]) -> list[Finding]: ...


@dataclass
class LintResult:
    """Outcome of one lint run: what is reported and what was suppressed."""

    findings: list[Finding] = field(default_factory=list)
    suppressed: list[Finding] = field(default_factory=list)
    files_analyzed: int = 0

    @property
    def failed(self) -> bool:
        return any(f.severity is Severity.ERROR for f in self.findings)
