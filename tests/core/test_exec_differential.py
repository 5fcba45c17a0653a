"""Differential tests: the scheduler vs hermetic per-check discharge.

The execution runtime's contract is behavioral identity: every
verification path hands a ``{key: checks}`` mapping to the
:class:`Scheduler`, and nothing observable may depend on how the batch
ran.  The reference here is hermetic per-check discharge
(``check.run(..., session=None)``: checks are independent, so the
reference needs no shared state), and the suite asserts the
scheduler-driven paths return identical reports: outcome fingerprints
*in order*, unknown-reason buckets, degradation counters, and
cache-consultation counters, across the serial path and the process map,
over seeded random configurations — and, for the §5 mapping, in either
key order, which is the independence that makes one batch enough.
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
    LivenessProblem,
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
            context=ExecutionContext(parallel=parallel),
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
            config, prop, invariants, ghosts=(ghost,), context=ExecutionContext(parallel)
        )
        assert report.passed == reference.passed
        assert report.unknown_reason_counts == reference.unknown_reason_counts
        assert [_fingerprint(o) for o in report.iter_outcomes()] == [
            _fingerprint(o) for o in reference.iter_outcomes()
        ]


# -- liveness: the §5 mapping vs the reference, in any order -----------


def _figure1_liveness():
    """The Figure-1 §5 sections and each one's hermetic fingerprints."""
    config = build_figure1()
    prop = customer_liveness_property()
    problem = LivenessProblem(prop)
    universe = build_universe(config, None, problem.predicates(), ())
    sections = problem.checks(config)
    reference = {
        key: [_fingerprint(check.run(config, universe, ())) for check in checks]
        for key, checks in sections.items()
    }
    return config, prop, universe, sections, reference


def test_liveness_mapping_matches_hermetic_reference():
    # verify_liveness's own mapping, read back through its report.
    config, prop, __, __, reference = _figure1_liveness()
    report = verify_liveness(config, prop)
    assert [_fingerprint(o) for o in report.propagation_outcomes] == reference[
        PROPAGATION_KEY
    ]
    assert [_fingerprint(report.implication_outcome)] == reference[IMPLICATION_KEY]
    assert len(report.interference_reports) == len(reference) - 2
    for router, sub in report.interference_reports.items():
        assert [_fingerprint(o) for o in sub.outcomes] == reference[
            subproof_key(router)
        ], router


def test_outcomes_do_not_depend_on_mapping_order():
    # Independence (the §4.3/§5.3 theorems) is what licenses running a
    # whole proof as one batch with no stages: any key order gives every
    # key the hermetic outcomes, over sessions warmed in a different order.
    config, __, universe, sections, reference = _figure1_liveness()
    for keys in (list(sections), list(reversed(sections))):
        mapping = {key: sections[key] for key in keys}
        result = Scheduler(ExecutionContext()).run(mapping, config, universe, ())
        assert list(result) == keys
        for key in keys:
            assert [_fingerprint(o) for o in result[key]] == reference[key], key
        # Flat order is mapping order, check for check.
        assert [o.check for outcomes in result.values() for o in outcomes] == [
            check for checks in mapping.values() for check in checks
        ]


@pytest.fixture
def pools_built(monkeypatch):
    """Counts ``ProcessPoolExecutor`` constructions (they still work)."""
    import concurrent.futures

    real = concurrent.futures.ProcessPoolExecutor
    built = []

    def counting(*args, **kwargs):
        built.append(kwargs.get("max_workers"))
        return real(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", counting)
    return built


@pytest.mark.parametrize("buggy", [False, True])
def test_liveness_driver_identical_across_backends(buggy, pools_built):
    config = build_figure1(buggy_r3_strip=buggy)
    prop = customer_liveness_property()
    reference = verify_liveness(config, prop)
    assert reference.passed is (not buggy)
    for parallel in JOBS:
        del pools_built[:]
        report = verify_liveness(config, prop, context=ExecutionContext(parallel))
        # One batch: the whole §5 pipeline shares a single process map.
        assert len(pools_built) == (1 if parallel > 1 else 0), parallel
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
