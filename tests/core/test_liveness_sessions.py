"""Tests for session/universe reuse across the §5 liveness pipeline.

PR 3 threads one covering universe and one owner-keyed ``SessionPool``
through ``verify_liveness``: propagation checks, the final implication
(now discharged via the scheduler instead of a hermetic bypass), and
every no-interference sub-proof share encodings.  The pinned claims:

* pooled/hoisted liveness is outcome-identical to the old fresh-solver,
  per-sub-proof-universe pipeline (pass and fail cases);
* the covering universe content-covers every universe a sub-step would
  have built for itself — including atoms that only appear in
  caller-supplied ``interference_invariants``;
* a warm pool re-verifies with zero marginal encoding;
* the implication check goes through the shared pool (the ``None``-owner
  session discharges it alongside the sub-proof implications);
* the process map (``ExecutionContext(parallel=2)``) agrees with serial.
"""

from __future__ import annotations

from repro.bgp.route import Community
from repro.core.checks import CheckKind, LocalCheck
from repro.core.exec import ExecutionContext
from repro.core.liveness import (
    LivenessProblem,
    generate_propagation_checks,
    interference_properties,
    verify_liveness,
)
from repro.core.properties import InvariantMap
from repro.core.safety import build_universe, verify_safety
from repro.lang.predicates import HasCommunity, Implies
from repro.smt.solver import SessionPool
from repro.workloads.figure1 import build_figure1
from repro.workloads.fullmesh import build_full_mesh, full_mesh_liveness_property
from repro.workloads.wan import build_wan
from repro.workloads.wan_properties import (
    ip_reuse_liveness_problem,
    verify_ip_reuse_liveness_problems,
)

from tests.core.conftest import customer_liveness_property


def _outcome_fp(outcome):
    failure = outcome.failure
    return (
        str(outcome.check),
        outcome.passed,
        outcome.unknown,
        None
        if failure is None
        else (str(failure.input_route), str(failure.output_route), failure.rejected),
    )


def _liveness_fp(report):
    return (
        [_outcome_fp(o) for o in report.propagation_outcomes],
        _outcome_fp(report.implication_outcome),
        {
            router: [_outcome_fp(o) for o in rep.outcomes]
            for router, rep in report.interference_reports.items()
        },
    )


def _reference_liveness_fp(config, prop, interference_invariants=None, ghosts=()):
    """The pre-reuse pipeline: hermetic solvers, per-sub-proof universes."""
    universe = build_universe(
        config, None, [prop.predicate, *prop.constraints], ghosts
    )
    propagation = [
        check.run(config, universe, ghosts)
        for check in generate_propagation_checks(config, prop)
    ]
    implication = LocalCheck(
        kind=CheckKind.IMPLICATION,
        edge=None,
        location=prop.location,
        assumption=prop.constraints[-1],
        goal=prop.predicate,
        description=f"implication check at {prop.location}: C_n implies the property",
    ).run(config, universe, ghosts)
    interference = {}
    for router, safety_prop in interference_properties(prop).items():
        if interference_invariants and router in interference_invariants:
            inv = interference_invariants[router]
        else:
            inv = InvariantMap(config.topology, default=safety_prop.predicate)
        # universe=None: each sub-proof builds its own, as the old code did.
        interference[router] = verify_safety(config, safety_prop, inv, ghosts=ghosts)
    return (
        [_outcome_fp(o) for o in propagation],
        _outcome_fp(implication),
        {
            router: [_outcome_fp(o) for o in rep.outcomes]
            for router, rep in interference.items()
        },
    )


def test_pooled_liveness_matches_fresh_pipeline(fig1_config):
    prop = customer_liveness_property()
    pooled = verify_liveness(fig1_config, prop)
    assert pooled.passed
    assert _liveness_fp(pooled) == _reference_liveness_fp(fig1_config, prop)


def test_pooled_liveness_matches_fresh_pipeline_on_broken_network():
    config = build_figure1(buggy_r3_strip=True)
    prop = customer_liveness_property()
    pooled = verify_liveness(config, prop)
    assert not pooled.passed
    assert _liveness_fp(pooled) == _reference_liveness_fp(config, prop)


def test_liveness_shares_one_session_per_owner(fig1_config):
    pool = SessionPool()
    context = ExecutionContext(sessions=pool)
    report = verify_liveness(fig1_config, customer_liveness_property(), context=context)
    assert report.passed
    # Propagation + implication + two whole-network sub-proofs all drew
    # from the same pool: one session per owner for the entire pipeline.
    assert set(pool.keys()) == {"R1", "R2", "R3", None}
    assert pool.created == 4


def test_implication_check_goes_through_shared_pool(fig1_config):
    """Regression: the final implication used to bypass the scheduler with
    a hermetic one-shot solver.  Now the ``None``-owner session answers
    it together with the sub-proof implications: one liveness implication
    plus one per no-interference sub-proof (R3 and R2) — each either
    solved by that session or recalled from the pool's query memo."""
    pool = SessionPool()
    context = ExecutionContext(sessions=pool)
    verify_liveness(fig1_config, customer_liveness_property(), context=context)
    none_session = pool.peek(None)
    assert none_session is not None
    assert none_session.checks_discharged + none_session.memo_hits == 3
    assert none_session.checks_discharged >= 1


def test_warm_pool_liveness_adds_no_encoding():
    config = build_full_mesh(5)
    prop = full_mesh_liveness_property(5)
    pool = SessionPool()
    context = ExecutionContext(sessions=pool)
    first = verify_liveness(config, prop, context=context)
    assert first.passed
    warm_encoding = pool.total_encoding()
    sizes = pool.encoding_sizes()

    second = verify_liveness(config, prop, context=context)
    assert second.passed
    assert pool.total_encoding() == warm_encoding
    assert pool.encoding_sizes() == sizes
    assert _liveness_fp(first) == _liveness_fp(second)


def test_liveness_universe_covers_subproof_universes(fig1_config):
    """Regression: the hoisted universe must content-cover every universe a
    no-interference sub-proof would have built for itself — including atoms
    that only occur in caller-supplied interference invariants."""
    prop = customer_liveness_property()
    extra = Community(777, 7)
    props = interference_properties(prop)
    custom = {}
    for router, safety_prop in props.items():
        custom[router] = InvariantMap(fig1_config.topology, default=safety_prop.predicate)
    # An invariant atom appearing nowhere in the property or constraints.
    custom["R3"].set_router(
        "R1", Implies(HasCommunity(extra), props["R3"].predicate)
    )

    hoisted = build_universe(
        fig1_config, None, LivenessProblem(prop, custom).predicates(), ()
    )
    assert extra in hoisted.communities

    for router, safety_prop in props.items():
        per_router = build_universe(
            fig1_config, custom[router], [safety_prop.predicate], ()
        )
        assert set(per_router.communities) <= set(hoisted.communities)
        assert set(per_router.asns) <= set(hoisted.asns)
        assert set(per_router.ghosts) <= set(hoisted.ghosts)

    # End to end: with the hoisted universe the custom-atom invariant must
    # lower without a missing-atom KeyError, sharing one pool throughout.
    report = verify_liveness(fig1_config, prop, interference_invariants=custom)
    fp = _reference_liveness_fp(fig1_config, prop, interference_invariants=custom)
    assert _liveness_fp(report) == fp


def test_liveness_process_backend_agrees_with_serial(fig1_config):
    prop = customer_liveness_property()
    serial = verify_liveness(fig1_config, prop)
    process = verify_liveness(fig1_config, prop, context=ExecutionContext(parallel=2))
    assert _liveness_fp(process) == _liveness_fp(serial)


def test_hoisted_wan_liveness_sweep_matches_per_region_runs():
    wan = build_wan(regions=3, routers_per_region=3, peers_per_edge=1)
    pool = SessionPool()
    context = ExecutionContext(sessions=pool)
    hoisted = verify_ip_reuse_liveness_problems(wan, workspace=context)
    assert len(hoisted) == wan.regions
    for region, (problem, report) in enumerate(hoisted):
        solo_problem = ip_reuse_liveness_problem(wan, region)
        solo = verify_liveness(
            wan.config,
            solo_problem.property,
            interference_invariants=solo_problem.interference_invariants,
            ghosts=(solo_problem.ghost,),
        )
        assert report.passed == solo.passed
        assert report.num_checks == solo.num_checks
        assert _liveness_fp(report) == _liveness_fp(solo)
    # The sweep shared one pool: a single session per owner overall.
    assert pool.created == len(set(wan.config.topology.routers)) + 1
