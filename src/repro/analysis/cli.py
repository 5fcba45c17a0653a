"""Argument handling shared by ``lightyear lint`` and ``python -m repro.analysis``.

Exit codes: 0 no error findings; 1 error findings; 2 usage errors.
Matches the row in the README's exit-code table.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.analysis.checkers.cache_format import MANIFEST_FILENAME
from repro.analysis.engine import render_result, run_lint


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
        "--update-manifest",
        action="store_true",
        help=f"regenerate ROOT/{MANIFEST_FILENAME} from the current code; run "
        "in the same commit as a CACHE_FORMAT bump",
    )
    parser.add_argument(
        "--verbose", action="store_true", help="also print suppressed findings"
    )


def run_from_args(args: argparse.Namespace) -> int:
    # src/repro/analysis/cli.py -> the repo root is four levels up.
    root = Path(args.root).resolve() if args.root else Path(__file__).resolve().parents[3]
    paths = [Path(p) for p in args.paths] if args.paths else [root / "src" / "repro"]
    for path in paths:
        if not path.exists():
            print(f"error: {path}: no such file or directory", file=sys.stderr)
            return 2
    try:
        result = run_lint(root, paths, update_manifest=args.update_manifest)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(render_result(result, verbose=args.verbose))
    if args.update_manifest:
        print(f"lint: cache-shape manifest written to {root / MANIFEST_FILENAME}")
    return 1 if result.failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Static analysis of the verifier's soundness invariants",
    )
    add_lint_arguments(parser)
    return run_from_args(parser.parse_args(argv))
