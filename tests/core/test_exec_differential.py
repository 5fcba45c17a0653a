"""Differential tests: the PR 9 scheduler vs pre-refactor semantics.

The execution-runtime refactor's contract is behavioral identity: every
verification path now builds a :class:`CheckPlan` and hands it to the
:class:`Scheduler`, and nothing observable may change.  The reference
implementations here re-create the pre-refactor semantics directly —
hermetic per-check discharge (checks are independent, so the reference
needs no shared state) and the legacy barriered liveness order — and the
suite asserts the scheduler-driven paths return identical reports:
outcome fingerprints *in order*, unknown-reason buckets, degradation
counters, and cache-consultation counters, across the serial path and
the process map and over seeded random configurations.
"""

from __future__ import annotations

import random

import pytest

from repro.bgp.policy import DeleteCommunity, RouteMap, RouteMapClause
from repro.bgp.topology import Edge
from repro.core.checks import generate_safety_checks
from repro.core.exec import ExecutionContext, Scheduler
from repro.core.liveness import (
    IMPLICATION_KEY,
    PROPAGATION_KEY,
    generate_liveness_checks,
    liveness_plan,
    liveness_universe,
    subproof_key,
    verify_liveness,
)
from repro.core.properties import InvariantMap, SafetyProperty
from repro.core.report import DegradationReport
from repro.core.safety import build_universe, run_checks, verify_safety
from repro.core.workspace import Workspace
from repro.lang.ghost import GhostAttribute
from repro.lang.predicates import GhostIs, HasCommunity, Implies, Not
from repro.workloads.figure1 import build_figure1
from repro.workloads.fullmesh import TRANSIT_COMMUNITY
from repro.workloads.randomnet import build_random_network

from tests.core.conftest import customer_liveness_property

#: The job counts every differential case runs over: the serial path and
#: the process map.
JOBS = (1, 2)


def _fingerprint(outcome):
    failure = outcome.failure
    return (
        str(outcome.check),
        outcome.passed,
        outcome.unknown,
        outcome.unknown_reason,
        None
        if failure is None
        else (str(failure.input_route), str(failure.output_route), failure.rejected),
    )


def _no_transit_problem(n: int, model: str, seed: int, broken: bool):
    """A seeded random no-transit problem; ``broken`` strips the tag
    on one seeded-random internal import, violating the invariant there."""
    config = build_random_network(n, model=model, seed=seed)
    if broken:
        rng = random.Random(seed)
        internal = sorted(
            edge
            for edge in config.topology.edges
            if config.topology.is_router(edge.src)
            and config.topology.is_router(edge.dst)
        )
        edge = internal[rng.randrange(len(internal))]
        strip = RouteMap(
            "STRIP",
            (RouteMapClause(10, actions=(DeleteCommunity(TRANSIT_COMMUNITY),)),),
        )
        config.routers[edge.dst].neighbors[edge.src].import_map = strip
    ghost = GhostAttribute.source_tracker("FromE1", config.topology, [Edge("E1", "R1")])
    prop = SafetyProperty(
        location=Edge("R2", "E2"), predicate=Not(GhostIs("FromE1")), name="no-transit"
    )
    invariants = InvariantMap(
        config.topology,
        default=Implies(GhostIs("FromE1"), HasCommunity(TRANSIT_COMMUNITY)),
    )
    invariants.set_edge("R2", "E2", Not(GhostIs("FromE1")))
    return config, ghost, prop, invariants


# -- safety: both execution paths vs the hermetic reference ------------


@pytest.mark.parametrize(
    "n,model,seed,broken",
    [(5, "gnp", 0, False), (5, "ba", 1, True), (5, "ring", 2, False), (6, "gnp", 3, True)],
)
def test_safety_identical_across_backends(n, model, seed, broken):
    config, ghost, prop, invariants = _no_transit_problem(n, model, seed, broken)
    universe = build_universe(config, invariants, [prop.predicate], (ghost,))
    checks = generate_safety_checks(config, invariants, prop.location, prop.predicate)
    reference = [_fingerprint(check.run(config, universe, (ghost,))) for check in checks]
    if broken:
        assert any(not passed for __, passed, *__rest in reference)
    for parallel in JOBS:
        degradation = DegradationReport()
        outcomes = run_checks(
            checks,
            config,
            universe,
            (ghost,),
            parallel=parallel,
            degradation=degradation,
        )
        assert [_fingerprint(o) for o in outcomes] == reference, parallel
        # A healthy platform records no degradation on any path.
        assert degradation.serial_fallbacks == 0, parallel


def test_safety_report_buckets_identical_across_backends():
    config, ghost, prop, invariants = _no_transit_problem(5, "ba", 4, True)
    reference = verify_safety(config, prop, invariants, ghosts=(ghost,))
    for parallel in JOBS:
        report = verify_safety(
            config, prop, invariants, ghosts=(ghost,), parallel=parallel
        )
        assert report.passed == reference.passed
        assert report.unknown_reason_counts == reference.unknown_reason_counts
        assert [_fingerprint(o) for o in report.iter_outcomes()] == [
            _fingerprint(o) for o in reference.iter_outcomes()
        ]


# -- liveness: pipelined and barriered plans vs the reference ----------


def test_liveness_plans_match_hermetic_reference():
    config = build_figure1()
    prop = customer_liveness_property()
    checks = generate_liveness_checks(config, prop)
    universe = liveness_universe(config, prop)
    prop_ref = [_fingerprint(c.run(config, universe, ())) for c in checks.propagation]
    impl_ref = _fingerprint(checks.implication.run(config, universe, ()))
    sub_ref = {
        router: [_fingerprint(c.run(config, universe, ())) for c in sub]
        for router, sub in checks.subproof_checks.items()
    }
    # Pipelined (the live order) and barriered (the pre-PR-9 order) plans
    # must be indistinguishable in everything but wall-clock shape.
    for pipelined in (True, False):
        context = ExecutionContext()
        result = Scheduler(context).run(
            liveness_plan(checks, pipelined=pipelined), config, universe, ()
        )
        assert [
            _fingerprint(o) for o in result.group(PROPAGATION_KEY)
        ] == prop_ref, pipelined
        assert _fingerprint(result.group(IMPLICATION_KEY)[0]) == impl_ref
        for router, ref in sub_ref.items():
            got = [_fingerprint(o) for o in result.group(subproof_key(router))]
            assert got == ref, (pipelined, router)


@pytest.mark.parametrize("buggy", [False, True])
def test_liveness_driver_identical_across_backends(buggy):
    config = build_figure1(buggy_r3_strip=buggy)
    prop = customer_liveness_property()
    reference = verify_liveness(config, prop)
    assert reference.passed is (not buggy)
    for parallel in JOBS:
        report = verify_liveness(config, prop, parallel=parallel)
        assert report.passed == reference.passed, parallel
        assert [_fingerprint(o) for o in report.iter_outcomes()] == [
            _fingerprint(o) for o in reference.iter_outcomes()
        ], parallel
        assert report.unknown_reason_counts == reference.unknown_reason_counts


# -- incremental reverify: cached + fresh vs from-scratch --------------


@pytest.mark.parametrize(
    "parallel", [pytest.param(None, id="serial-None"), pytest.param(2, id="process-2")]
)
def test_incremental_reverify_matches_scratch(parallel):
    config, ghost, prop, invariants = _no_transit_problem(5, "gnp", 0, False)
    edited, __, __, __ = _no_transit_problem(5, "gnp", 0, True)
    workspace = Workspace(config, ghosts=(ghost,), parallel=parallel)
    try:
        first = workspace.verify(prop, invariants)
        assert first.passed
        workspace.apply(edited)
        result = workspace.reverify()[0].last_result
    finally:
        workspace.close()
    scratch = verify_safety(edited, prop, invariants, ghosts=(ghost,))
    # The tracker lists outcomes owner group by owner group, the scratch
    # run edge by edge, so compare as multisets; pass/fail and unknown
    # buckets must agree too.
    assert sorted(_fingerprint(o) for o in result.report.iter_outcomes()) == sorted(
        _fingerprint(o) for o in scratch.iter_outcomes()
    ), parallel
    assert result.report.passed == scratch.passed is False
    assert (
        result.report.unknown_reason_counts == scratch.unknown_reason_counts
    )
    # Consultation accounting: a one-router edit consults exactly that
    # router's owner group — the O(changed-owner) claim.
    assert result.checks_consulted == result.rerun_checks
    assert result.rerun_checks + result.cached_checks == scratch.num_checks
    assert 0 < result.rerun_checks < scratch.num_checks


def test_incremental_liveness_reverify_matches_scratch():
    config = build_figure1()
    edited = build_figure1(buggy_r3_strip=True)
    prop = customer_liveness_property()
    workspace = Workspace(config)
    try:
        first = workspace.verify(prop)
        assert first.passed
        workspace.apply(edited)
        result = workspace.reverify()[0].last_result
    finally:
        workspace.close()
    scratch = verify_liveness(edited, prop)
    assert sorted(_fingerprint(o) for o in result.report.iter_outcomes()) == sorted(
        _fingerprint(o) for o in scratch.iter_outcomes()
    )
    assert result.report.passed == scratch.passed is False
    assert result.checks_consulted == result.rerun_checks
    assert result.rerun_checks + result.cached_checks == scratch.num_checks
