"""digest-coverage: every field of a digest-bearing class is fingerprinted.

The bug class (PR 4): ``NetworkConfig.external_asns`` existed, mattered
to verification (external ASNs enter the attribute universe), but
appeared in no digest — so digest-based change detection declared an
edited network unchanged and ``reverify`` reused stale outcomes.

The invariant, stated mechanically: for any class that computes a
content digest of itself (a *digest-bearing* class), every public field
must be consumed by **some** digest computation — either the class's own
digest method, or a digest-like function elsewhere in the project that
reads the field (the repo legitimately splits coverage: ``topology`` and
``external_asns`` are covered by ``config_digests``/``_network_canon``,
not by ``NetworkConfig`` itself).  The cross-file union is class-blind
(it matches attribute *names*), which trades a little precision for
zero-configuration coverage of exactly the historical failure shape: a
field nobody's digest reads anywhere.

A class is digest-bearing when it defines a (non-static) method whose
name looks like a digest (``digest``/``fingerprint``/``canonical``/
``_fp``).
"""

from __future__ import annotations

import ast
import re
from typing import Sequence

from repro.analysis.findings import Finding, SourceFile

_DIGEST_NAME = re.compile(r"(?:^|_)(digest|digests|fingerprint|fp|canonical|canon)(?:_|$)")


def is_digest_name(name: str) -> bool:
    return bool(_DIGEST_NAME.search(name))


def _attribute_reads(node: ast.AST) -> set[str]:
    """Names of every attribute access anywhere under ``node``."""
    return {
        child.attr for child in ast.walk(node) if isinstance(child, ast.Attribute)
    }


def _self_reads(func: ast.FunctionDef) -> set[str]:
    """Attributes read off the function's first parameter (``self``)."""
    if not func.args.args:
        return set()
    self_name = func.args.args[0].arg
    return {
        child.attr
        for child in ast.walk(func)
        if isinstance(child, ast.Attribute)
        and isinstance(child.value, ast.Name)
        and child.value.id == self_name
    }


def _is_staticmethod(func: ast.FunctionDef) -> bool:
    return any(
        isinstance(dec, ast.Name) and dec.id == "staticmethod"
        for dec in func.decorator_list
    )


def _class_fields(cls: ast.ClassDef) -> dict[str, int]:
    """Public data fields -> definition line.

    Dataclass-style annotated assignments in the class body (``x: int``),
    skipping ``ClassVar``; plus ``self.x = ...`` assignments in
    ``__init__`` for plain classes.
    """
    fields: dict[str, int] = {}
    for stmt in cls.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            if "ClassVar" in ast.dump(stmt.annotation):
                continue
            fields.setdefault(stmt.target.id, stmt.lineno)
    for stmt in cls.body:
        if isinstance(stmt, ast.FunctionDef) and stmt.name == "__init__":
            self_name = stmt.args.args[0].arg if stmt.args.args else "self"
            for child in ast.walk(stmt):
                targets: list[ast.expr] = []
                if isinstance(child, ast.Assign):
                    targets = child.targets
                elif isinstance(child, ast.AnnAssign):
                    targets = [child.target]
                for target in targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == self_name
                    ):
                        fields.setdefault(target.attr, child.lineno)
    return {name: line for name, line in fields.items() if not name.startswith("_")}


class DigestCoverage:
    id = "digest-coverage"
    description = (
        "every public field of a digest-bearing class must be consumed by "
        "some digest computation (the external_asns bug class)"
    )

    def check(self, files: Sequence[SourceFile]) -> list[Finding]:
        # Any digest-like callable, module-level or method, contributes
        # its attribute reads to the project-wide coverage union.
        covered: set[str] = set()
        for file in files:
            for node in ast.walk(file.tree):
                if isinstance(node, ast.FunctionDef) and is_digest_name(node.name):
                    covered |= _attribute_reads(node)
        findings: list[Finding] = []
        for file in files:
            for node in ast.walk(file.tree):
                if isinstance(node, ast.ClassDef):
                    findings.extend(self._class_findings(file.path, node, covered))
        return findings

    def _class_findings(
        self, path: str, cls: ast.ClassDef, covered: set[str]
    ) -> list[Finding]:
        methods = [
            stmt
            for stmt in cls.body
            if isinstance(stmt, ast.FunctionDef)
            and is_digest_name(stmt.name)
            and not _is_staticmethod(stmt)
        ]
        if not methods:
            return []
        self_covered: set[str] = set()
        for method in methods:
            self_covered |= _self_reads(method)
        names = "/".join(method.name for method in methods)
        return [
            Finding(
                checker=self.id,
                path=path,
                line=line,
                message=(
                    f"field {cls.name}.{field_name} is not consumed by any digest "
                    f"computation ({names} on the class, nor any digest-like "
                    f"function project-wide)"
                ),
                hint=(
                    f"include {field_name!r} in {cls.name}.{methods[0].name} (or a "
                    f"covering digest function), or suppress with a reason if the "
                    f"field truly cannot change verification results"
                ),
                symbol=f"{cls.name}.{field_name}",
            )
            for field_name, line in sorted(_class_fields(cls).items())
            if field_name not in self_covered and field_name not in covered
        ]
