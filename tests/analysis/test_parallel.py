"""Parallel lint on the exec runtime: determinism, degradation, plumbing.

The headline contract is the differential test: a serial run and a
``--jobs 4`` run over the same tree must produce byte-identical output.
Everything else pins the pieces that make that hold — sorted plan order,
plan-order outcome routing, pickle-safe tasks, and the degrade-to-serial
path when the process pool is unavailable.
"""

import pickle
import shutil
from pathlib import Path

import pytest

from repro.analysis.cli import main
from repro.analysis.execution import (
    LINT_STAGE,
    ExtractionOutcome,
    ExtractionTask,
    ProcessExtractionBackend,
    SerialExtractionBackend,
    build_lint_plan,
    run_extraction,
)

FIXTURES = Path(__file__).parent / "fixtures"


def _task(rel: str, source: str, checkers=("digest-coverage",)) -> ExtractionTask:
    return ExtractionTask(rel=rel, data=source.encode(), checker_ids=tuple(checkers))


def _mixed_tree(tmp_path: Path) -> Path:
    """A tree with findings from several checkers — enough files that a
    process pool actually fans out."""
    for sub in ("digest_coverage", "budget_flow", "deadline_discipline"):
        for src in (FIXTURES / sub).glob("*.py"):
            shutil.copy(src, tmp_path / f"{sub}__{src.name}")
    return tmp_path


class TestDifferential:
    def test_serial_and_jobs4_output_is_byte_identical(self, tmp_path, capsys):
        root = _mixed_tree(tmp_path)
        base = ["--root", str(root), "--no-cache", str(root)]

        serial_code = main(base)
        serial_out = capsys.readouterr().out
        parallel_code = main(["--jobs", "4", *base])
        parallel_out = capsys.readouterr().out

        assert serial_code == parallel_code == 1  # the tree has findings
        assert serial_out == parallel_out

    def test_engine_findings_match_across_backends(self, lint, tmp_path):
        root = _mixed_tree(tmp_path)
        serial = lint(root, jobs=None)
        parallel = lint(root, jobs=4)

        def flat(result):
            return [
                (f.checker, f.path, f.line, f.symbol, f.message)
                for f in result.fresh
            ]

        assert flat(serial) == flat(parallel)
        assert len(serial.fresh) > 0

    def test_jobs_auto_resolves_and_matches_serial(self, lint, tmp_path):
        root = _mixed_tree(tmp_path)
        auto = lint(root, jobs="auto")
        serial = lint(root, jobs=None)
        assert [f.key() for f in auto.fresh] == [f.key() for f in serial.fresh]


class TestPlanShape:
    def test_one_group_per_file_in_sorted_order(self):
        tasks = [_task("b.py", "x = 1\n"), _task("a.py", "y = 2\n")]
        plan = build_lint_plan(tasks)
        assert [group.key for group in plan.groups] == [
            ("lint", "a.py"), ("lint", "b.py"),
        ]
        assert all(group.stage == LINT_STAGE for group in plan.groups)
        assert [stage.name for stage in plan.stages] == [LINT_STAGE]
        assert all(len(group.checks) == 1 for group in plan.groups)

    def test_outcomes_come_back_in_plan_order(self):
        tasks = [
            _task("c.py", "x = 1\n"),
            _task("a.py", "y = 2\n"),
            _task("b.py", "z = 3\n"),
        ]
        outcomes = run_extraction(tasks, jobs=None)
        assert [outcome.rel for outcome in outcomes] == ["a.py", "b.py", "c.py"]

    def test_empty_task_list_short_circuits(self):
        assert run_extraction([], jobs=4) == []


class TestPickling:
    def test_task_and_outcome_round_trip(self):
        task = _task("m.py", "def f():\n    return 1\n")
        clone = pickle.loads(pickle.dumps(task))
        outcome = clone.run(None, None, (), None)
        assert isinstance(outcome, ExtractionOutcome)
        assert outcome.rel == "m.py"
        assert pickle.loads(pickle.dumps(outcome)).rel == "m.py"

    def test_syntax_error_becomes_a_finding_not_a_crash(self):
        # A worker must never die on bad input: the parse failure rides
        # back as a finding, in-process and cross-process alike.
        task = _task("broken.py", "def f(:\n")
        outcome = task.run(None, None, (), None)
        assert outcome.findings
        assert any("syntax" in f.message.lower() for f in outcome.findings)


class TestDegradation:
    def test_broken_pool_falls_back_to_serial(self, monkeypatch):
        class BrokenPool:
            name = "process"

            def __init__(self, jobs):
                pass

            def run(self, request):
                return None  # the pool-unavailable contract

        import repro.analysis.execution as execution

        monkeypatch.setattr(execution, "ProcessExtractionBackend", BrokenPool)
        tasks = [_task("a.py", "x = 1\n"), _task("b.py", "y = 2\n")]
        with pytest.warns(RuntimeWarning, match="lint process pool unavailable"):
            outcomes = run_extraction(tasks, jobs=4)
        assert [outcome.rel for outcome in outcomes] == ["a.py", "b.py"]

    def test_single_task_never_pays_for_a_pool(self, monkeypatch):
        def explode(self, request):
            raise AssertionError("process pool engaged for a single file")

        monkeypatch.setattr(ProcessExtractionBackend, "run", explode)
        outcomes = run_extraction([_task("a.py", "x = 1\n")], jobs=4)
        assert [outcome.rel for outcome in outcomes] == ["a.py"]

    def test_backends_satisfy_the_structural_protocol(self):
        # Backend is a non-runtime-checkable Protocol; pin the structure
        # the scheduler relies on by hand.
        for backend in (SerialExtractionBackend(), ProcessExtractionBackend(2)):
            assert isinstance(backend.name, str)
            assert callable(backend.run)


class TestRealPool:
    def test_process_backend_really_extracts(self, lint, tmp_path):
        # End-to-end through a real ProcessPoolExecutor — the one test
        # that pays for worker start-up, kept small.
        root = _mixed_tree(tmp_path)
        result = lint(root, jobs=2)
        assert result.fresh
