"""The two execution paths must be interchangeable.

Three pillars:

* shared-encoding :class:`CheckSession` reuse (the serial default) returns
  outcomes identical to hermetic fresh-solver checks on the fullmesh
  workload — including counterexample witnesses on broken networks;
* the process map (``parallel`` > 1) returns the same outcomes in the same
  order as the serial path (or falls back to it where process pools are
  unavailable);
* job-count resolution (``auto``, integers, serial forcing) behaves as the
  CLI contract promises.
"""

from __future__ import annotations

import os

import pytest

from repro.bgp.policy import RouteMap, RouteMapClause, DeleteCommunity
from repro.core.checks import check_owner
from repro.core.exec import ExecutionContext, resolve_jobs
from repro.core.safety import run_checks, verify_safety
from repro.workloads.fullmesh import TRANSIT_COMMUNITY

from tests.core.conftest import fullmesh_problem, safety_pieces


def _outcome_fingerprint(outcome):
    failure = outcome.failure
    return (
        str(outcome.check),
        outcome.passed,
        outcome.unknown,
        None
        if failure is None
        else (str(failure.input_route), str(failure.output_route), failure.rejected),
    )


def test_session_reuse_matches_fresh_solvers_on_fullmesh():
    config, ghost, prop, invariants = fullmesh_problem(6)
    universe, checks = safety_pieces(config, ghost, prop, invariants)
    # Reference: hermetic solver per check (no session).
    reference = [check.run(config, universe, (ghost,)) for check in checks]
    # Default serial path: one shared session per owner router.
    shared = run_checks(checks, config, universe, (ghost,))
    assert [_outcome_fingerprint(o) for o in shared] == [
        _outcome_fingerprint(o) for o in reference
    ]
    assert all(o.passed for o in shared)


def test_session_reuse_matches_fresh_solvers_on_broken_fullmesh():
    # Strip the transit tag inside the mesh: checks must fail identically,
    # with the same localisation, under both discharge strategies.
    config, ghost, prop, invariants = fullmesh_problem(4)
    strip = RouteMap("STRIP", (RouteMapClause(10, actions=(DeleteCommunity(TRANSIT_COMMUNITY),)),))
    config.routers["R3"].neighbors["R1"].import_map = strip
    universe, checks = safety_pieces(config, ghost, prop, invariants)
    reference = [check.run(config, universe, (ghost,)) for check in checks]
    shared = run_checks(checks, config, universe, (ghost,))
    assert [_outcome_fingerprint(o) for o in shared] == [
        _outcome_fingerprint(o) for o in reference
    ]
    assert any(not o.passed for o in shared)


def test_process_backend_agrees_with_serial():
    config, ghost, prop, invariants = fullmesh_problem(5)
    universe, checks = safety_pieces(config, ghost, prop, invariants)
    serial = run_checks(checks, config, universe, (ghost,), context=ExecutionContext(parallel=1))
    parallel = run_checks(checks, config, universe, (ghost,), context=ExecutionContext(parallel=2))
    assert [_outcome_fingerprint(o) for o in parallel] == [
        _outcome_fingerprint(o) for o in serial
    ]


def test_process_backend_ships_counterexamples_back():
    config, ghost, prop, invariants = fullmesh_problem(4)
    strip = RouteMap("STRIP", (RouteMapClause(10, actions=(DeleteCommunity(TRANSIT_COMMUNITY),)),))
    config.routers["R3"].neighbors["R1"].import_map = strip
    report = verify_safety(config, prop, invariants, ghosts=(ghost,), context=ExecutionContext(parallel=2))
    assert not report.passed
    assert report.failures, "counterexamples must survive the process boundary"
    assert any(f.blamed_router == "R3" for f in report.failures)


def test_verify_safety_parallel_auto_passes():
    config, ghost, prop, invariants = fullmesh_problem(5)
    report = verify_safety(config, prop, invariants, ghosts=(ghost,), context=ExecutionContext(parallel="auto"))
    assert report.passed


def test_resolve_jobs_contract():
    assert resolve_jobs(None) == 1
    assert resolve_jobs(0) == 1
    assert resolve_jobs(1) == 1
    assert resolve_jobs(4) == 4
    # "auto" means the CPUs actually *available* to this process — the
    # process CPU count (3.13+) or the affinity mask where supported —
    # never more than the machine total.  (The per-source preference
    # order is pinned by the monkeypatched tests in test_exec_runtime.)
    auto = resolve_jobs("auto")
    assert auto >= 1
    assert auto <= (os.cpu_count() or auto)
    if getattr(os, "process_cpu_count", lambda: None)():
        assert auto == os.process_cpu_count()
    elif hasattr(os, "sched_getaffinity"):
        assert auto == len(os.sched_getaffinity(0))
    else:
        assert auto == (os.cpu_count() or 1)
    with pytest.raises(ValueError):
        resolve_jobs(-2)


def test_unknown_backend_rejected():
    # There is no backend to pick any more: ``parallel`` alone selects
    # between the serial path and the process map.
    config, ghost, prop, invariants = fullmesh_problem(3)
    universe, checks = safety_pieces(config, ghost, prop, invariants)
    with pytest.raises(TypeError):
        run_checks(checks, config, universe, (ghost,), backend="gpu")


def test_chunking_is_complete_and_owner_pure():
    from repro.core.exec.pool import chunk_by_owner

    config, ghost, prop, invariants = fullmesh_problem(5)
    __, checks = safety_pieces(config, ghost, prop, invariants)
    chunks = chunk_by_owner(checks)
    indices = sorted(i for chunk in chunks for i, __ in chunk)
    assert indices == list(range(len(checks)))
    for chunk in chunks:
        owners = {check_owner(check) for __, check in chunk}
        assert len(owners) == 1
