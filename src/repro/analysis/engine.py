"""The lint engine: discover files, extract facts (cached), analyze.

Orchestrates one run end to end::

    result = run_lint(LintOptions(root=repo_root, paths=[src/repro]))

Per-file work (AST parse, checker extraction, the engine's own
suppression index) is cached keyed by content digest
(:mod:`repro.analysis.cache`); the cross-file analyze phase re-runs
every invocation.
Suppressions and the baseline are applied here, not in checkers, so
every checker gets both behaviours for free.

The package imports nothing from the program it analyses: a syntax
error anywhere in ``repro`` must surface as a ``parse-error`` finding,
not as an ``ImportError`` in the linter.

The baseline is a *ratchet*: ``update_baseline`` only ever shrinks it
(resolved findings are dropped; fresh findings are never adopted and
keep failing the run).  Growing the baseline is a deliberate manual
edit, not a flag.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.baseline import load_baseline, partition, save_baseline
from repro.analysis.cache import FactCache, content_digest
from repro.analysis.findings import Finding, LintResult, Severity
from repro.analysis.registry import Checker, Project, all_checkers
from repro.analysis.suppressions import Suppression, is_suppressed

# Facts key reserved for the engine's own per-file records (suppression
# index); checker ids may not collide with it.
_SUPPRESSIONS_KEY = "__suppressions__"


@dataclass
class LintOptions:
    root: Path
    paths: list[Path] = field(default_factory=list)
    cache_file: Path | None = None
    baseline_file: Path | None = None
    update_baseline: bool = False
    manifest_file: Path | None = None
    update_manifest: bool = False
    checker_ids: list[str] | None = None  # None = all registered


def discover_files(paths: list[Path]) -> list[Path]:
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


def _selected_checkers(options: LintOptions) -> list[Checker]:
    checkers = all_checkers()
    if options.checker_ids is None:
        return checkers
    by_id = {checker.id: checker for checker in checkers}
    unknown = [cid for cid in options.checker_ids if cid not in by_id]
    if unknown:
        raise ValueError(
            f"unknown checker(s): {', '.join(unknown)} "
            f"(known: {', '.join(sorted(by_id))})"
        )
    return [by_id[cid] for cid in options.checker_ids]


def run_lint(options: LintOptions) -> LintResult:
    checkers = _selected_checkers(options)
    versions = {checker.id: checker.version for checker in checkers}
    cache = FactCache(options.cache_file)
    result = LintResult()

    project = Project(root=options.root)
    project.options["manifest_file"] = options.manifest_file
    project.options["update_manifest"] = options.update_manifest

    files = discover_files(options.paths or [options.root])
    findings: list[Finding] = []

    # Per file, in sorted order: cached facts if the content digest and
    # checker versions match, else a fresh extraction.
    for file_path in files:
        rel = _relative(file_path, options.root)
        data = file_path.read_bytes()
        digest = content_digest(data)
        facts = cache.lookup(rel, digest, versions)
        if facts is None:
            facts, parse_findings = extract_file_facts(rel, data, checkers)
            cache.store(rel, digest, versions, facts)
            findings.extend(parse_findings)
        else:
            result.files_from_cache += 1
        project.facts[rel] = facts
        result.files_analyzed += 1

    suppression_maps = {
        rel: _suppression_index_from_facts(facts)
        for rel, facts in project.facts.items()
    }

    cache.prune(set(project.facts))
    cache.save()

    for checker in checkers:
        findings.extend(checker.analyze(project))
    findings.extend(_suppression_hygiene(suppression_maps))

    kept: list[Finding] = []
    for finding in findings:
        index = suppression_maps.get(finding.path, {})
        if finding.checker != "suppression" and is_suppressed(
            index, finding.line, finding.checker
        ):
            result.suppressed.append(finding)
        else:
            kept.append(finding)
    kept.sort(key=lambda f: (f.path, f.line, f.checker, f.message))

    baseline = load_baseline(options.baseline_file)
    errors = [f for f in kept if f.severity is Severity.ERROR]
    warnings = [f for f in kept if f.severity is not Severity.ERROR]
    fresh, baselined, resolved = partition(errors, baseline)
    result.fresh = fresh + warnings
    result.fresh.sort(key=lambda f: (f.path, f.line, f.checker, f.message))
    result.baselined = baselined
    result.resolved = resolved

    if options.update_baseline and options.baseline_file is not None:
        # Shrink-only ratchet: keep exactly the baselined findings that
        # still occur.  Fresh findings are NOT adopted — they stay fresh
        # and the run still fails; growing the baseline is a manual edit
        # with review, never a flag.
        save_baseline(options.baseline_file, baselined)
        result.resolved = []
    return result


def extract_file_facts(
    rel: str, data: bytes, checkers: list[Checker]
) -> tuple[dict[str, object], list[Finding]]:
    """Run the extract phase over one file: every checker's facts plus
    the engine's own record (the suppression index).

    Pure with respect to its arguments — no engine state, no
    filesystem.  Parse errors become findings rather than crashes (lint
    must not die on a bad file — that is exactly when it is needed).
    """
    from repro.analysis.suppressions import parse_suppressions

    facts: dict[str, object] = {}
    findings: list[Finding] = []
    try:
        source = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        findings.append(
            Finding("parse-error", rel, 0, f"not valid UTF-8: {exc}", symbol="encoding")
        )
        return facts, findings
    try:
        tree = ast.parse(source, filename=rel)
    except SyntaxError as exc:
        findings.append(
            Finding("parse-error", rel, exc.lineno or 0, f"syntax error: {exc.msg}")
        )
        return facts, findings
    facts[_SUPPRESSIONS_KEY] = [
        {
            "line": supp.line,
            "comment_line": supp.comment_line,
            "ids": list(supp.checker_ids),
            "reason": supp.reason,
        }
        for supp in parse_suppressions(source)
    ]
    for checker in checkers:
        extracted = checker.extract(tree, source, rel)
        if extracted is not None:
            facts[checker.id] = extracted
    return facts, findings


def _suppression_index_from_facts(
    facts: dict[str, object],
) -> dict[int, list[Suppression]]:
    index: dict[int, list[Suppression]] = {}
    records = facts.get(_SUPPRESSIONS_KEY)
    if not isinstance(records, list):
        return index
    for record in records:
        supp = Suppression(
            line=int(record["line"]),
            comment_line=int(record["comment_line"]),
            checker_ids=tuple(record["ids"]),
            reason=str(record["reason"]),
        )
        index.setdefault(supp.line, []).append(supp)
    return index


def _suppression_hygiene(
    suppression_maps: dict[str, dict[int, list[Suppression]]],
) -> list[Finding]:
    """Reasonless suppressions are warnings: an exemption with no 'why'
    is how the next reader re-introduces the bug it hides."""
    findings: list[Finding] = []
    for path in sorted(suppression_maps):
        for supps in suppression_maps[path].values():
            for supp in supps:
                if not supp.reason:
                    findings.append(
                        Finding(
                            "suppression",
                            path,
                            supp.comment_line,
                            f"suppression for [{', '.join(supp.checker_ids)}] "
                            "has no reason string",
                            hint="append ` -- why this is safe` to the comment",
                            severity=Severity.WARNING,
                            symbol=f"line{supp.comment_line}",
                        )
                    )
    return findings


def render_result(result: LintResult, verbose: bool = False) -> str:
    """Human-readable report for the CLI."""
    lines: list[str] = []
    for finding in result.fresh:
        lines.append(finding.render())
    if verbose:
        for finding in result.baselined:
            lines.append(f"{finding.render()}  [baselined]")
        for finding in result.suppressed:
            lines.append(f"{finding.render()}  [suppressed]")
    if result.resolved:
        lines.append(
            f"{len(result.resolved)} baselined finding(s) resolved — run "
            "`lightyear lint --update-baseline` to ratchet the baseline down:"
        )
        for key in result.resolved:
            lines.append(f"  resolved: {key}")
    errors = sum(1 for f in result.fresh if f.severity is Severity.ERROR)
    warnings = len(result.fresh) - errors
    lines.append(
        f"lint: {result.files_analyzed} files "
        f"({result.files_from_cache} cached), "
        f"{errors} fresh error(s), {warnings} warning(s), "
        f"{len(result.baselined)} baselined, {len(result.suppressed)} suppressed"
    )
    return "\n".join(lines)
