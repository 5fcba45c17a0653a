"""Recovery tests: a worker process dies, or the pool cannot start.

The fault-tolerance claim is deliberately small: when the process map's
machinery fails — a worker is killed mid-run, or no pool can be created —
the batch is re-run on the serial path, *recorded* (one ``serial_fallbacks``
event, one ``RuntimeWarning`` per context, exit 3 from the CLI), with
outcomes identical to a serial run and no child process left behind.  A
genuine exception raised by a check is not machinery failure and must
propagate.  These tests kill workers at deterministic points via the
fault-injection harness and counter-assert exactly that.

``REPRO_CHAOS_SEED`` (set by the CI chaos job) varies the mesh size and
which owner's check kills its worker.
"""

from __future__ import annotations

import multiprocessing
import os
import warnings
from functools import partial

import pytest

from repro.cli import EXIT_DEGRADED, main
from repro.core.checks import check_owner
from repro.core.exec import ExecutionContext, Scheduler
from repro.core.report import DegradationReport
from repro.core.safety import verify_safety
from repro.testing import faults
from repro.testing.faults import FaultPlan

from tests import oracle
from tests.core.conftest import fullmesh_problem, run_batch, safety_pieces

CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))
MESH_SIZE = 4 + CHAOS_SEED % 3
KILL_OWNER = f"R{1 + CHAOS_SEED % 3}"


@pytest.fixture(autouse=True)
def _clean_faults():
    faults.reset()
    yield
    faults.reset()


def _kill_plan(checks, owner: str = KILL_OWNER) -> FaultPlan:
    """Kill the worker that reaches ``owner``'s first check."""
    victim = next(c for c in checks if check_owner(c) == owner)
    return FaultPlan(kill_in_check_match=str(victim))


def _assert_no_leaked_children():
    # Every worker a process map spawned must be reaped before the call
    # returns; a leaked child here would outlive the test session.
    assert multiprocessing.active_children() == []


def test_killed_worker_falls_back_to_one_serial_rerun():
    config, ghost, prop, invariants = fullmesh_problem(MESH_SIZE)
    universe, checks = safety_pieces(config, ghost, prop, invariants)
    serial = run_batch(checks, config, universe, (ghost,))

    faults.install(_kill_plan(checks))
    context = ExecutionContext(2)
    degradation = DegradationReport()
    # Two runs on one context, both containing the poison check: the
    # worker dies in each batch, so two fallbacks but one warning.  The
    # second batch is the victim's owner plus one other (a single-owner
    # batch would never reach the pool).
    second = [
        i
        for i, c in enumerate(checks)
        if check_owner(c) in (KILL_OWNER, "R4")
    ]
    results = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for batch in (checks, [checks[i] for i in second]):
            results.append(
                Scheduler(context).run(
                    {("a",): batch}, config, universe, (ghost,), degradation=degradation
                )[("a",)]
            )
    # Identical outcomes to the serial path, in order: the kill fires only
    # inside a worker, so the parent's serial re-run completes — the same
    # run as ``serial``, witnesses included.
    key = partial(oracle.outcome_key, witness=True)
    assert list(map(key, results[0])) == list(map(key, serial))
    assert [oracle.outcome_key(o) for o in results[1]] == [
        oracle.outcome_key(serial[i]) for i in second
    ]
    assert degradation.serial_fallbacks == 2
    assert len(degradation.reasons) == 2
    fallback_warnings = [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert len(fallback_warnings) == 1, "one warning per context, not per batch"
    assert "degraded to the serial path" in str(fallback_warnings[0].message)
    _assert_no_leaked_children()


def test_verify_safety_reports_recovery_as_degradation():
    config, ghost, prop, invariants = fullmesh_problem(4)
    __, checks = safety_pieces(config, ghost, prop, invariants)
    reference = verify_safety(config, prop, invariants, ghosts=(ghost,))
    faults.install(_kill_plan(checks))
    with pytest.warns(RuntimeWarning, match="degraded to the serial path"):
        report = verify_safety(
            config, prop, invariants, ghosts=(ghost,), context=ExecutionContext(2)
        )
    assert report.passed
    assert oracle.listing(report, witness=True) == oracle.listing(reference, witness=True)
    assert report.degradation is not None
    assert report.degradation.serial_fallbacks == 1
    assert report.degradation.degraded()
    _assert_no_leaked_children()


def test_clean_run_reports_no_degradation():
    config, ghost, prop, invariants = fullmesh_problem(4)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        report = verify_safety(
            config, prop, invariants, ghosts=(ghost,), context=ExecutionContext(2)
        )
    assert report.passed
    assert report.degradation is not None
    assert not report.degradation.degraded()
    _assert_no_leaked_children()


def test_serial_fallback_is_observable_not_silent(broken_process_pool):
    config, ghost, prop, invariants = fullmesh_problem(4)
    with pytest.warns(RuntimeWarning, match="degraded to the serial path") as caught:
        report = verify_safety(
            config, prop, invariants, ghosts=(ghost,), context=ExecutionContext(2)
        )
    # Attributed to this call, not to a driver frame inside repro.core.
    assert [w.filename for w in caught] == [__file__]
    assert report.passed
    assert report.degradation is not None
    assert report.degradation.serial_fallbacks == 1
    assert report.degradation.reasons
    _assert_no_leaked_children()


def test_exception_in_check_propagates_and_pool_survives():
    config, ghost, prop, invariants = fullmesh_problem(4)
    universe, checks = safety_pieces(config, ghost, prop, invariants)
    victim = next(c for c in checks if check_owner(c) == "R1")
    faults.install(FaultPlan(raise_in_check_match=str(victim)))
    degradation = DegradationReport()
    with pytest.raises(faults.FaultInjected):
        run_batch(
            checks, config, universe, (ghost,), context=ExecutionContext(2),
            degradation=degradation,
        )
    # A genuine check exception is not a crash: nothing degraded to serial
    # (the serial path would have raised the same exception anyway), the
    # failed call's workers are gone, and the next call gets a fresh pool.
    assert degradation.serial_fallbacks == 0
    _assert_no_leaked_children()
    faults.reset()
    serial = run_batch(checks, config, universe, (ghost,))
    again = run_batch(
        checks, config, universe, (ghost,), context=ExecutionContext(2),
        degradation=degradation,
    )
    assert [oracle.outcome_key(o) for o in again] == [oracle.outcome_key(o) for o in serial]
    assert degradation.serial_fallbacks == 0
    _assert_no_leaked_children()


def test_cli_killed_worker_exits_degraded_with_the_same_verdict(
    tmp_path, capsys, monkeypatch
):
    from tests.core.test_deadlines import CONFIG_TEXT, SPEC_JSON

    config = tmp_path / "network.cfg"
    config.write_text(CONFIG_TEXT)
    spec = tmp_path / "spec.json"
    spec.write_text(SPEC_JSON)

    def verdict_lines(out: str) -> list[str]:
        # Up to the em dash: the property and its verdict, not the timings.
        return [line.split(" — ")[0] for line in out.splitlines() if " — " in line]

    assert main(["verify", str(config), str(spec)]) == 0
    clean = capsys.readouterr().out
    assert "degraded execution" not in clean

    # Through the environment, the way a chaos run of the real CLI sets it.
    monkeypatch.setenv("REPRO_FAULTS", "kill_in_check_match=import check at R1")
    faults.reset()
    with pytest.warns(RuntimeWarning, match="degraded to the serial path"):
        code = main(["verify", str(config), str(spec), "--jobs", "2"])
    assert code == EXIT_DEGRADED
    degraded = capsys.readouterr().out
    assert verdict_lines(degraded)[0] == verdict_lines(clean)[0]
    assert "PASSED" in verdict_lines(degraded)[0]
    assert "1 serial fallback(s)" in degraded
    _assert_no_leaked_children()
