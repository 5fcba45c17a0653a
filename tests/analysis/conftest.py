"""Shared helpers for the static-analysis test suite."""

from pathlib import Path

import pytest

FIXTURES = Path(__file__).parent / "fixtures"
REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture
def lint():
    """Run the lint pass over explicit paths (default: all of ``root``);
    the cache-shape manifest is ``root/cache-shape.json``."""
    from repro.analysis.engine import run_lint

    def run(root, paths=None, update_manifest=False):
        return run_lint(
            Path(root), [Path(p) for p in (paths or [root])], update_manifest
        )

    return run
