"""The lint CLI: exit codes, the ratchet workflow, and the real repo gate."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

from repro.analysis.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
REPO_ROOT = Path(__file__).resolve().parents[2]

CHECKER_IDS = (
    "digest-coverage",
    "pickle-safety",
    "deadline-discipline",
    "cache-format-discipline",
)


def _run(*argv):
    return main([str(arg) for arg in argv])


def test_clean_tree_exits_zero(tmp_path):
    shutil.copy(FIXTURES / "digest_coverage" / "good_covered.py", tmp_path / "m.py")
    assert _run("--root", tmp_path, "--no-cache", tmp_path) == 0


def test_fresh_findings_exit_one(tmp_path, capsys):
    shutil.copy(FIXTURES / "digest_coverage" / "bad_external_asns.py", tmp_path / "m.py")
    assert _run("--root", tmp_path, "--no-cache", tmp_path) == 1
    out = capsys.readouterr().out
    assert "digest-coverage" in out
    assert "m.py:" in out
    assert "hint:" in out


def test_missing_path_exits_two(tmp_path):
    assert _run("--root", tmp_path, "--no-cache", tmp_path / "nope") == 2


def test_unknown_checker_exits_two(tmp_path):
    (tmp_path / "m.py").write_text("x = 1\n")
    assert _run("--root", tmp_path, "--no-cache",
                "--checker", "no-such-checker", tmp_path) == 2


def test_list_checkers(capsys):
    assert _run("--list-checkers") == 0
    out = capsys.readouterr().out
    for checker_id in CHECKER_IDS:
        assert checker_id in out


def test_ratchet_workflow_exit_codes(tmp_path):
    import json

    target = tmp_path / "net.py"
    baseline = tmp_path / "baseline.json"
    shutil.copy(FIXTURES / "digest_coverage" / "bad_external_asns.py", target)
    base = ("--root", tmp_path, "--no-cache", "--checker", "digest-coverage",
            "--baseline", baseline, tmp_path)

    assert _run(*base) == 1                        # fresh violation
    # Shrink-only: --update-baseline does NOT adopt the fresh finding.
    assert _run("--update-baseline", *base) == 1
    assert json.loads(baseline.read_text())["findings"] == []

    # Adoption is a manual, reviewed edit of the baseline file.
    baseline.write_text(json.dumps(
        {"findings": ["digest-coverage:net.py:Network.external_asns"]}
    ))
    assert _run(*base) == 0                        # baselined: gate passes

    shutil.copy(FIXTURES / "digest_coverage" / "good_covered.py", target)
    assert _run(*base) == 1                        # resolved debt demands a ratchet
    assert _run("--update-baseline", *base) == 0   # baseline shrinks
    assert _run(*base) == 0


def test_cache_dir_round_trip(tmp_path, capsys):
    shutil.copy(FIXTURES / "digest_coverage" / "good_covered.py", tmp_path / "m.py")
    base = ("--root", tmp_path, "--cache-dir", tmp_path / "cache", tmp_path)
    assert _run(*base) == 0
    assert _run(*base) == 0
    out = capsys.readouterr().out
    assert "(1 cached)" in out.splitlines()[-1]


def test_repo_sources_pass_the_gate():
    """The committed baseline + manifest keep src/repro clean — the same
    invocation CI runs as a blocking job."""
    assert _run("--root", REPO_ROOT, "--no-cache", REPO_ROOT / "src" / "repro") == 0


def _module_env():
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    existing = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
    return env


def test_python_dash_m_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis", "--list-checkers"],
        capture_output=True, text=True, env=_module_env(), cwd=REPO_ROOT,
    )
    assert proc.returncode == 0
    assert "deadline-discipline" in proc.stdout


def test_lightyear_lint_subcommand(tmp_path):
    bad = tmp_path / "m.py"
    shutil.copy(FIXTURES / "digest_coverage" / "bad_external_asns.py", bad)
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", "lint", "--root", str(tmp_path),
         "--no-cache", str(tmp_path)],
        capture_output=True, text=True, env=_module_env(), cwd=REPO_ROOT,
    )
    assert proc.returncode == 1
    assert "digest-coverage" in proc.stdout


def test_lint_jobs_flag_is_a_usage_error(tmp_path):
    """Lint is one sorted-file loop: ``--jobs`` is gone from both entry
    points (``verify --jobs`` is unaffected), and argparse says so."""
    (tmp_path / "m.py").write_text("x = 1\n")
    tail = ["--jobs", "2", "--root", str(tmp_path), "--no-cache", str(tmp_path)]
    for entry in (["repro.analysis"], ["repro.cli", "lint"]):
        proc = subprocess.run(
            [sys.executable, "-m", *entry, *tail],
            capture_output=True, text=True, env=_module_env(), cwd=REPO_ROOT,
        )
        assert proc.returncode == 2, (entry, proc.stdout + proc.stderr)
        assert "unrecognized arguments: --jobs" in proc.stderr, entry


def test_the_linter_imports_nothing_it_lints():
    """Mirror of the test below: ``python -m repro.analysis`` loads no
    ``repro`` module outside ``repro.analysis`` — it must keep working
    when the program it analyses does not import."""
    program = (
        "import sys\n"
        "from repro.analysis.cli import main\n"
        "code = main(['--no-cache'])\n"
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
        [sys.executable, "-m", "repro.analysis", "--no-cache", "--root", str(copy)],
        capture_output=True, text=True, env=env, cwd=tmp_path,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "Traceback" not in proc.stderr
    assert "src/repro/lang/universe.py:" in proc.stdout
    assert "error[parse-error]" in proc.stdout
    assert "1 fresh error(s)" in proc.stdout


def test_verify_does_not_import_the_linter(tmp_path):
    """``lightyear verify`` builds its parser without ``repro.analysis``:
    only the ``lint`` command (or no command: help, the parity test below)
    materialises the lint arguments."""
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
        "leaked = sorted(m for m in sys.modules if m.startswith('repro.analysis'))\n"
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
    assert "--no-cache" in standalone_opts
    assert standalone_opts == lint_opts
