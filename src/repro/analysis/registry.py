"""Checker registry and the two-phase checker protocol.

Checkers run in two phases so per-file work can be cached:

1. **extract** — given one file's AST and source, produce JSON-able
   *facts*.  This is the expensive pass (a full AST walk) and its result
   is cached keyed by the file's content digest and the checker version.
2. **analyze** — given the facts for *every* file (a :class:`Project`),
   produce findings.  This phase is cheap and re-runs every invocation,
   which is what lets cross-file checkers (digest coverage is a union
   over the whole project) stay correct under per-file caching.

A checker bumps ``version`` whenever ``extract`` changes shape, which
invalidates its cached facts without touching other checkers' entries.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable

from repro.analysis.findings import Finding

JsonFacts = Any  # JSON-serialisable: the cache round-trips it through json


@dataclass
class Project:
    """Everything the analyze phase sees: facts per file, plus context."""

    root: Path
    # path (repo-relative, forward slashes) -> checker id -> facts
    facts: dict[str, dict[str, JsonFacts]] = field(default_factory=dict)
    # Engine options checkers may consult (e.g. cache-format's manifest
    # path and --update-manifest flag).
    options: dict[str, Any] = field(default_factory=dict)

    def facts_for(self, checker_id: str) -> Iterable[tuple[str, JsonFacts]]:
        """(path, facts) pairs for one checker, in sorted path order."""
        for path in sorted(self.facts):
            per_file = self.facts[path].get(checker_id)
            if per_file is not None:
                yield path, per_file


class Checker:
    """Base class for registered checkers.  Subclasses set the class
    attributes and implement :meth:`extract` / :meth:`analyze`."""

    id: str = ""
    description: str = ""
    version: int = 1

    def extract(self, tree: ast.AST, source: str, path: str) -> JsonFacts:
        """Per-file facts (JSON-able).  Return ``None`` to store nothing."""
        raise NotImplementedError

    def analyze(self, project: Project) -> list[Finding]:
        """Findings over the whole project's facts."""
        raise NotImplementedError


_REGISTRY: dict[str, Checker] = {}


def register(cls: type[Checker]) -> type[Checker]:
    """Class decorator: instantiate and register a checker by its id."""
    if not cls.id:
        raise ValueError(f"checker {cls.__name__} has no id")
    if cls.id in _REGISTRY:
        raise ValueError(f"duplicate checker id {cls.id!r}")
    _REGISTRY[cls.id] = cls()
    return cls


def all_checkers() -> list[Checker]:
    """Registered checkers in registration order (imports the built-ins)."""
    import repro.analysis.checkers  # noqa: F401  (registers on import)

    return list(_REGISTRY.values())


def get_checker(checker_id: str) -> Checker:
    import repro.analysis.checkers  # noqa: F401

    try:
        return _REGISTRY[checker_id]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown checker {checker_id!r} (known: {known})") from None
