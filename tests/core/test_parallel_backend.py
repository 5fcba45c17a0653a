"""The two execution paths must be interchangeable.

Pinned here:

* the process map (``parallel`` > 1) ships counterexamples back whole
  (that it decides as the hermetic reference does is the oracle's
  ``parallel`` cells, ``tests/oracle.py``);
* job-count resolution (``auto``, integers, serial forcing) behaves as the
  CLI contract promises, and the process map's chunks are complete and
  owner-pure.
"""

from __future__ import annotations

import os

import pytest

from repro.core.checks import check_owner
from repro.core.exec import ExecutionContext, resolve_jobs
from repro.core.safety import verify_safety

from tests import oracle
from tests.core.conftest import fullmesh_problem, safety_pieces


def test_process_backend_ships_counterexamples_back():
    # Counterexamples, blame included, survive the process boundary.
    case = oracle.fullmesh_case(4, "safety", planted=True)
    report = oracle.run("parallel", case)
    assert oracle.blamed_routers(oracle.fingerprint(report)) == {"R2"}
    assert report.failures and all(f.input_route is not None for f in report.failures)


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


def test_chunking_is_complete_and_owner_pure():
    from repro.core.checks import group_checks_by_owner

    config, ghost, prop, invariants = fullmesh_problem(5)
    __, checks = safety_pieces(config, ghost, prop, invariants)
    groups = group_checks_by_owner(checks)
    assert sorted(map(id, (c for group in groups.values() for c in group))) == sorted(map(id, checks))
    for owner, group in groups.items():
        assert {check_owner(check) for check in group} == {owner}
        # Each group keeps its checks in input order.
        assert group == [check for check in checks if check_owner(check) == owner]
