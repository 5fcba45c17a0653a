"""The lint pass: parse every file once, run each checker over the parsed
files, apply in-place suppressions.

::

    result = run_lint(repo_root, [repo_root / "src" / "repro"])

Suppressions are applied here, not in checkers, so every checker gets
them for free.  The package imports nothing from the program it
analyses: a syntax error anywhere in ``repro`` must surface as a
``parse-error`` finding, not as an ``ImportError`` in the linter.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Sequence

from repro.analysis.checkers.cache_format import (
    MANIFEST_FILENAME,
    CacheFormatDiscipline,
)
from repro.analysis.checkers.deadline_discipline import DeadlineDiscipline
from repro.analysis.checkers.digest_coverage import DigestCoverage
from repro.analysis.findings import Checker, Finding, LintResult, Severity, SourceFile
from repro.analysis.suppressions import Suppression, is_suppressed, suppression_index


def discover_files(paths: Sequence[Path]) -> list[Path]:
    """All .py files under ``paths`` (files pass through), sorted."""
    found: set[Path] = set()
    for path in paths:
        if path.is_dir():
            found.update(p for p in path.rglob("*.py") if p.is_file())
        elif path.suffix == ".py" and path.is_file():
            found.add(path)
        else:
            raise ValueError(f"{path}: not a directory or .py file")
    return sorted(found)


def _relative(path: Path, root: Path) -> str:
    try:
        return path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.resolve().as_posix()


def _parse(rel: str, data: bytes) -> SourceFile | Finding:
    """The parsed file, or the ``parse-error`` finding that replaces it
    (lint must not die on a bad file — that is exactly when it is needed)."""
    try:
        source = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        return Finding("parse-error", rel, 0, f"not valid UTF-8: {exc}", symbol="encoding")
    try:
        return SourceFile(rel, ast.parse(source, filename=rel), source)
    except SyntaxError as exc:
        return Finding("parse-error", rel, exc.lineno or 0, f"syntax error: {exc.msg}")


def run_lint(root: Path, paths: Sequence[Path], update_manifest: bool = False) -> LintResult:
    """Lint the ``.py`` files under ``paths``; finding paths are relative
    to ``root``, and the cache-shape manifest is ``root/cache-shape.json``
    (rewritten from the code when ``update_manifest``)."""
    files: list[SourceFile] = []
    findings: list[Finding] = []
    discovered = discover_files(paths)
    for file_path in discovered:
        parsed = _parse(_relative(file_path, root), file_path.read_bytes())
        if isinstance(parsed, Finding):
            findings.append(parsed)
        else:
            files.append(parsed)

    checkers: tuple[Checker, ...] = (
        DigestCoverage(),
        DeadlineDiscipline(),
        CacheFormatDiscipline(root / MANIFEST_FILENAME, update_manifest),
    )
    for checker in checkers:
        findings.extend(checker.check(files))

    indexes = {file.path: suppression_index(file.source) for file in files}
    findings.extend(_reasonless_suppressions(indexes))
    result = LintResult(files_analyzed=len(discovered))
    for finding in sorted(findings, key=lambda f: (f.path, f.line, f.checker, f.message)):
        if finding.checker != "suppression" and is_suppressed(
            indexes.get(finding.path, {}), finding.line, finding.checker
        ):
            result.suppressed.append(finding)
        else:
            result.findings.append(finding)
    return result


def _reasonless_suppressions(
    indexes: dict[str, dict[int, list[Suppression]]],
) -> list[Finding]:
    """Reasonless suppressions are warnings: an exemption with no 'why'
    is how the next reader re-introduces the bug it hides."""
    return [
        Finding(
            "suppression",
            path,
            supp.comment_line,
            f"suppression for [{', '.join(supp.checker_ids)}] has no reason string",
            hint="append ` -- why this is safe` to the comment",
            severity=Severity.WARNING,
            symbol=f"line{supp.comment_line}",
        )
        for path, index in indexes.items()
        for supps in index.values()
        for supp in supps
        if not supp.reason
    ]


def render_result(result: LintResult, verbose: bool = False) -> str:
    """Human-readable report for the CLI."""
    lines = [finding.render() for finding in result.findings]
    if verbose:
        lines.extend(f"{finding.render()}  [suppressed]" for finding in result.suppressed)
    errors = sum(1 for f in result.findings if f.severity is Severity.ERROR)
    lines.append(
        f"lint: {result.files_analyzed} files, {errors} error(s), "
        f"{len(result.findings) - errors} warning(s), "
        f"{len(result.suppressed)} suppressed"
    )
    return "\n".join(lines)
