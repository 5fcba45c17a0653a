"""The lint CLI: exit codes, the flag set, and the real repo gate."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
REPO_ROOT = Path(__file__).resolve().parents[2]

def _run(*argv):
    return main([str(arg) for arg in argv])


def test_clean_tree_exits_zero(tmp_path):
    shutil.copy(FIXTURES / "digest_coverage" / "good_covered.py", tmp_path / "m.py")
    assert _run("--root", tmp_path, tmp_path) == 0


def test_fresh_findings_exit_one(tmp_path, capsys):
    shutil.copy(FIXTURES / "digest_coverage" / "bad_external_asns.py", tmp_path / "m.py")
    assert _run("--root", tmp_path, tmp_path) == 1
    out = capsys.readouterr().out
    assert "digest-coverage" in out
    assert "m.py:" in out
    assert "hint:" in out


def test_missing_path_exits_two(tmp_path):
    assert _run("--root", tmp_path, tmp_path / "nope") == 2


def test_repo_sources_pass_the_gate():
    """The committed manifest keeps src/repro clean — the same invocation
    CI runs as a blocking job."""
    assert _run("--root", REPO_ROOT, REPO_ROOT / "src" / "repro") == 0


def _module_env():
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    existing = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
    return env


def test_python_dash_m_entry_point():
    """The default run lints src/repro under the detected root: clean,
    with exactly the two reasoned ``sat.py`` loop suppressions."""
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis"],
        capture_output=True, text=True, env=_module_env(), cwd=REPO_ROOT,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1].endswith(
        "0 error(s), 0 warning(s), 2 suppressed"
    )


def test_lightyear_lint_subcommand(tmp_path):
    bad = tmp_path / "m.py"
    shutil.copy(FIXTURES / "digest_coverage" / "bad_external_asns.py", bad)
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", "lint", "--root", str(tmp_path),
         str(tmp_path)],
        capture_output=True, text=True, env=_module_env(), cwd=REPO_ROOT,
    )
    assert proc.returncode == 1
    assert "digest-coverage" in proc.stdout


def test_lint_jobs_flag_is_a_usage_error(tmp_path):
    """Lint is one sorted-file loop: ``--jobs`` is gone from both entry
    points (``verify --jobs`` is unaffected), and argparse says so."""
    (tmp_path / "m.py").write_text("x = 1\n")
    tail = ["--jobs", "2", "--root", str(tmp_path), str(tmp_path)]
    for entry in (["repro.analysis"], ["repro.cli", "lint"]):
        proc = subprocess.run(
            [sys.executable, "-m", *entry, *tail],
            capture_output=True, text=True, env=_module_env(), cwd=REPO_ROOT,
        )
        assert proc.returncode == 2, (entry, proc.stdout + proc.stderr)
        assert "unrecognized arguments: --jobs" in proc.stderr, entry


REMOVED_FLAGS = (
    ["--no-cache"],
    ["--cache-dir", "x"],
    ["--baseline", "x"],
    ["--update-baseline"],
    ["--manifest", "x"],
    ["--checker", "digest-coverage"],
    ["--list-checkers"],
)


@pytest.mark.parametrize("flag", REMOVED_FLAGS, ids=lambda flag: flag[0])
def test_removed_flags_are_usage_errors(flag, tmp_path, capsys):
    """The fact cache, the baseline, the manifest override and checker
    selection are gone from both entry points: argparse exits 2."""
    from repro.cli import main as lightyear

    for entry in (main, lambda argv: lightyear(["lint", *argv])):
        with pytest.raises(SystemExit) as exc:
            entry([*flag, "--root", str(tmp_path), str(tmp_path)])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err


def test_the_linter_imports_nothing_it_lints():
    """Mirror of the test below: ``python -m repro.analysis`` loads no
    ``repro`` module outside ``repro.analysis`` — it must keep working
    when the program it analyses does not import."""
    program = (
        "import sys\n"
        "from repro.analysis.cli import main\n"
        "code = main([])\n"
        "leaked = sorted(m for m in sys.modules if m.startswith('repro.')\n"
        "                and not m.startswith('repro.analysis'))\n"
        "print('leaked:', leaked)\n"
        "sys.exit(code or bool(leaked))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", program],
        capture_output=True, text=True, env=_module_env(), cwd=REPO_ROOT,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "leaked: []" in proc.stdout


def test_lint_reports_a_syntax_error_in_the_package_it_runs_from(tmp_path):
    """The developer-with-a-typo case: a copy of the package with a
    syntax error in ``lang/universe.py``, linted *from that copy*, yields
    a ``parse-error`` finding — not a traceback from importing it."""
    copy = tmp_path / "tree"
    shutil.copytree(
        REPO_ROOT / "src" / "repro", copy / "src" / "repro",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    # With the manifest alongside, the typo is the tree's only finding.
    shutil.copy(REPO_ROOT / "cache-shape.json", copy)
    broken = copy / "src" / "repro" / "lang" / "universe.py"
    broken.write_text(broken.read_text() + "\ndef broken(:\n")
    env = dict(os.environ, PYTHONPATH=str(copy / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis", "--root", str(copy)],
        capture_output=True, text=True, env=env, cwd=tmp_path,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "Traceback" not in proc.stderr
    assert "src/repro/lang/universe.py:" in proc.stdout
    assert "error[parse-error]" in proc.stdout
    assert "1 error(s)," in proc.stdout


# Modules a JSON ``verify`` never runs, so must never import: the
# simulator and decision process, the dialect parser, and the library
# extras of ``repro.core``.
NOT_IMPORTED_BY_VERIFY = (
    "repro.bgp.simulator",
    "repro.bgp.selection",
    "repro.bgp.configparse",
    "repro.core.inference",
    "repro.core.scenario",
)


def test_verify_does_not_import_the_linter(tmp_path):
    """``lightyear verify`` builds its parser without ``repro.analysis``:
    only the ``lint`` command (or no command: help, the parity test below)
    materialises the lint arguments.  Nor does a JSON ``verify`` load any
    of :data:`NOT_IMPORTED_BY_VERIFY`."""
    import json

    from repro.bgp.configjson import config_to_json
    from repro.workloads.figure1 import build_figure1

    spec = {
        "safety": [
            {
                "name": "trivial",
                "location": "R2->ISP2",
                "predicate": {"kind": "true"},
                "invariants": {"default": {"kind": "true"}, "overrides": {}},
            }
        ]
    }
    (tmp_path / "base.json").write_text(config_to_json(build_figure1()))
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    program = (
        "import sys\n"
        "from repro.cli import main\n"
        "code = main(['verify', sys.argv[1], sys.argv[2]])\n"
        "leaked = sorted(m for m in sys.modules if m.startswith('repro.analysis')\n"
        f"                or m in {NOT_IMPORTED_BY_VERIFY!r})\n"
        "print('leaked:', leaked)\n"
        "sys.exit(code or bool(leaked))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", program,
         str(tmp_path / "base.json"), str(tmp_path / "spec.json")],
        capture_output=True, text=True, env=_module_env(), cwd=REPO_ROOT,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "PASSED" in proc.stdout
    assert "leaked: []" in proc.stdout


def _option_strings(parser):
    return {
        opt
        for action in parser._actions
        for opt in action.option_strings
    }


def test_entry_point_parity():
    """`python -m repro.analysis` and `lightyear lint` must expose the
    same flags — both build on add_lint_arguments, and this pins that
    neither grows a private option the other lacks."""
    import argparse

    from repro.analysis.cli import add_lint_arguments
    from repro.cli import build_parser

    standalone = argparse.ArgumentParser()
    add_lint_arguments(standalone)

    subparsers = next(
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    lint_parser = subparsers.choices["lint"]

    standalone_opts = _option_strings(standalone)
    lint_opts = _option_strings(lint_parser)
    assert standalone_opts == lint_opts == {
        "-h", "--help", "--root", "--update-manifest", "--verbose",
    }
