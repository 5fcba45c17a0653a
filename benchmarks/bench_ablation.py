"""Ablations for the design choices the paper calls out.

* **split vs combined properties** (§6.1 "best practices"): many simple
  properties with simple invariants vs one conjunctive property.
* **incremental vs full re-verification** (§2/§7): after a single-router
  edit, only that router's checks re-run.
* **parallel vs sequential checks** (§2 "trivially parallelizable").
* **rcc-style local-only checking** (§7): user-listed checks without the
  generated assume-guarantee closure miss a planted internal bug.

Run: ``pytest benchmarks/bench_ablation.py --benchmark-only``
"""

from __future__ import annotations

import pytest

from repro.baselines.localonly import LocalOnlyChecker
from repro.bgp.policy import DeleteCommunity, RouteMap, RouteMapClause
from repro.bgp.topology import Edge
from repro.core.exec import ExecutionContext
from repro.core.safety import verify_safety, verify_safety_family
from repro.core.workspace import Workspace
from repro.lang.predicates import GhostIs, HasCommunity, Implies, Not, TruePred
from repro.workloads.figure1 import TRANSIT_COMMUNITY, build_figure1
from repro.workloads.wan import build_wan
from repro.workloads.wan_properties import (
    all_peering_problems,
    combined_peering_problem,
)

from benchmarks.conftest import fullmesh_problem
from tests.core.conftest import no_transit_invariants, no_transit_property


WAN_ARGS = dict(regions=4, routers_per_region=3, peers_per_edge=2)


def test_split_properties(benchmark):
    wan = build_wan(**WAN_ARGS)

    def run():
        return [
            verify_safety_family(
                wan.config, p.properties, p.invariants, ghosts=(p.ghost,)
            )
            for p in all_peering_problems(wan)
        ]

    reports = benchmark.pedantic(run, rounds=1, iterations=1)
    assert all(r.passed for r in reports)
    benchmark.extra_info["properties"] = len(reports)
    benchmark.extra_info["max_vars_any_check"] = max(r.max_vars for r in reports)


def test_combined_property(benchmark):
    wan = build_wan(**WAN_ARGS)
    problem = combined_peering_problem(wan)

    def run():
        return verify_safety_family(
            wan.config, problem.properties, problem.invariants, ghosts=(problem.ghost,)
        )

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    assert report.passed
    # The combined property's checks are bigger for the solver — the
    # paper's observed reason to prefer many simple properties.
    benchmark.extra_info["max_vars_any_check"] = report.max_vars


def test_full_reverification(benchmark):
    config, ghost, prop, invariants = fullmesh_problem(20)

    def run():
        return verify_safety(config, prop, invariants, ghosts=(ghost,))

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    assert report.passed
    benchmark.extra_info["checks_run"] = report.num_checks


def test_incremental_reverification(benchmark):
    config, ghost, prop, invariants = fullmesh_problem(20)
    workspace = Workspace(config, ghosts=(ghost,))
    workspace.verify(prop, invariants)

    # Edit one router: R5 gets a new (harmless) import map on its eBGP session.
    from benchmarks.conftest import fullmesh_problem as rebuild

    edited, __, __, __ = rebuild(20)
    edited.routers["R5"].neighbors["E5"].import_map = RouteMap(
        "EXT-IN-V2", edited.routers["R5"].neighbors["E5"].import_map.clauses
    )

    def run():
        workspace.apply(edited)
        (entry,) = workspace.reverify()
        return entry.report

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    assert report.passed
    benchmark.extra_info["checks_rerun"] = report.rerun_checks
    benchmark.extra_info["checks_cached"] = report.reused_checks
    # One router touched out of 20: the vast majority of checks are reused.
    assert report.reused_checks > 0.9 * report.num_checks


def test_sequential_checks(benchmark):
    config, ghost, prop, invariants = fullmesh_problem(30)

    def run():
        return verify_safety(config, prop, invariants, ghosts=(ghost,))

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    assert report.passed


def test_parallel_checks(benchmark):
    config, ghost, prop, invariants = fullmesh_problem(30)

    def run():
        return verify_safety(
            config, prop, invariants, ghosts=(ghost,), context=ExecutionContext(parallel=8)
        )

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    assert report.passed
    benchmark.extra_info["note"] = (
        "parallel=8 is the owner-chunked process map; near-duplicate fullmesh "
        "checks make it slower than serial (see README: When --jobs helps)"
    )


def test_localonly_misses_internal_bug(benchmark):
    """rcc-style checking passes while Lightyear fails the same network."""
    buggy = build_figure1()
    buggy.routers["R2"].neighbors["R1"].import_map = RouteMap(
        "STRIP",
        (RouteMapClause(10, actions=(DeleteCommunity(TRANSIT_COMMUNITY),)),),
    )
    from repro.lang.ghost import GhostAttribute

    ghost = GhostAttribute.source_tracker(
        "FromISP1", buggy.topology, [Edge("ISP1", "R1")]
    )
    key = Implies(GhostIs("FromISP1"), HasCommunity(TRANSIT_COMMUNITY))

    def run():
        checker = LocalOnlyChecker(buggy, ghosts=(ghost,))
        # The two "obvious" checks a careful operator would write:
        checker.add_import_check(Edge("ISP1", "R1"), TruePred(), key)
        checker.add_export_check(Edge("R2", "ISP2"), key, Not(GhostIs("FromISP1")))
        local_result = checker.run()
        lightyear_report = verify_safety(
            buggy, no_transit_property(), no_transit_invariants(buggy), ghosts=(ghost,)
        )
        return local_result, lightyear_report

    local_result, lightyear_report = benchmark.pedantic(run, rounds=1, iterations=1)
    assert local_result.passed  # rcc-style: bug missed
    assert not lightyear_report.passed  # Lightyear: bug caught
    blamed = {f.blamed_router for f in lightyear_report.failures}
    assert blamed == {"R2"}
    benchmark.extra_info["localonly_missed_bug"] = True
    benchmark.extra_info["lightyear_blamed"] = sorted(blamed)
