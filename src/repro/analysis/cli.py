"""Argument handling shared by ``lightyear lint`` and ``python -m repro.analysis``.

Exit codes: 0 no fresh findings; 1 fresh error findings (or resolved
baseline entries pending a ratchet); 2 usage errors.  Matches the row in
the README's exit-code table.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.analysis.engine import LintOptions, render_result, run_lint
from repro.analysis.registry import all_checkers

#: Default artefact names, resolved against the repo root.
BASELINE_FILENAME = "lint-baseline.json"
MANIFEST_FILENAME = "cache-shape.json"
CACHE_DIRNAME = ".lint-cache"


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to analyse (default: src/repro under the root)",
    )
    parser.add_argument(
        "--root",
        default=None,
        help="repository root (default: auto-detected from this package's "
        "location; paths in findings are reported relative to it)",
    )
    parser.add_argument(
        "--checker",
        action="append",
        dest="checkers",
        metavar="ID",
        default=None,
        help="run only this checker (repeatable); default: all registered",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        metavar="FILE",
        help=f"baseline file (default: ROOT/{BASELINE_FILENAME}); known debt "
        "listed there is reported but does not fail the run",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="shrink the baseline: drop entries whose finding is fixed "
        "(the ratchet; fresh findings are never adopted and still fail)",
    )
    parser.add_argument(
        "--manifest",
        default=None,
        metavar="FILE",
        help=f"cache-shape manifest (default: ROOT/{MANIFEST_FILENAME})",
    )
    parser.add_argument(
        "--update-manifest",
        action="store_true",
        help="regenerate the cache-shape manifest from the current code; run "
        "in the same commit as a CACHE_FORMAT bump",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help=f"per-file fact cache directory (default: ROOT/{CACHE_DIRNAME}); "
        "warm runs skip unchanged files",
    )
    parser.add_argument(
        "--no-cache", action="store_true", help="disable the per-file fact cache"
    )
    parser.add_argument(
        "--list-checkers", action="store_true", help="list checkers and exit"
    )
    parser.add_argument(
        "--verbose",
        action="store_true",
        help="also print baselined and suppressed findings",
    )


def _detect_root(explicit: str | None) -> Path:
    if explicit is not None:
        return Path(explicit).resolve()
    # src/repro/analysis/cli.py -> repo root is four levels up.
    candidate = Path(__file__).resolve().parents[3]
    return candidate


def run_from_args(args: argparse.Namespace) -> int:
    if args.list_checkers:
        for checker in all_checkers():
            print(f"{checker.id}: {checker.description}")
        return 0
    root = _detect_root(args.root)
    paths = [Path(p) for p in args.paths] if args.paths else [root / "src" / "repro"]
    for path in paths:
        if not path.exists():
            print(f"error: {path}: no such file or directory", file=sys.stderr)
            return 2
    baseline = Path(args.baseline) if args.baseline else root / BASELINE_FILENAME
    manifest = Path(args.manifest) if args.manifest else root / MANIFEST_FILENAME
    cache_file = None
    if not args.no_cache:
        cache_dir = Path(args.cache_dir) if args.cache_dir else root / CACHE_DIRNAME
        cache_file = cache_dir / "lint-cache.json"
    options = LintOptions(
        root=root,
        paths=paths,
        cache_file=cache_file,
        baseline_file=baseline,
        update_baseline=args.update_baseline,
        manifest_file=manifest,
        update_manifest=args.update_manifest,
        checker_ids=args.checkers,
    )
    try:
        result = run_lint(options)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(render_result(result, verbose=args.verbose))
    if args.update_manifest:
        print(f"lint: cache-shape manifest written to {manifest}")
    if args.update_baseline:
        print(f"lint: baseline written to {baseline}")
    if result.failed:
        return 1
    if result.resolved:
        # Ratchet direction: resolved debt must leave the baseline, or it
        # could silently cover a future regression at the same site.
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Static analysis of the verifier's soundness invariants",
    )
    add_lint_arguments(parser)
    return run_from_args(parser.parse_args(argv))
