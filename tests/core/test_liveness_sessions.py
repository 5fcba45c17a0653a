"""Tests for session/universe reuse across the §5 liveness pipeline.

PR 3 threads one covering universe and one owner-keyed ``SessionPool``
through ``verify_liveness``: propagation checks, the final implication
(now discharged via the scheduler instead of a hermetic bypass), and
every no-interference sub-proof share encodings.  The pinned claims:

* hoisting is invisible: on hermetic solvers the covering universe gives
  every section the outcomes, witness routes included, that each step's
  own universe gives (pass and fail cases);
* pooled liveness decides as the hermetic reference does, in order
  (oracle cells, ``tests/oracle.py``);
* the covering universe content-covers every universe a sub-step would
  have built for itself — including atoms that only appear in
  caller-supplied ``interference_invariants``;
* a warm pool re-verifies with zero marginal encoding;
* the implication check goes through the shared pool (the ``None``-owner
  session discharges it alongside the sub-proof implications);
* the process map (``ExecutionContext(parallel=2)``) agrees with serial
  (the oracle's ``figure1-liveness-parallel`` cell).
"""

from __future__ import annotations

from repro.bgp.route import Community
from repro.core.exec import ExecutionContext
from repro.core.liveness import (
    IMPLICATION_KEY,
    PROPAGATION_KEY,
    LivenessProblem,
    interference_properties,
    resolve_interference_invariants,
    subproof_key,
    verify_liveness,
)
from repro.core.properties import InvariantMap
from repro.core.report import DegradationReport, GroupOutcomes
from repro.core.safety import build_universe
from repro.lang.predicates import HasCommunity, Implies
from repro.smt.solver import SessionPool
from repro.workloads.figure1 import build_figure1
from repro.workloads.fullmesh import build_full_mesh, full_mesh_liveness_property
from repro.workloads.wan import build_wan
from repro.workloads.wan_properties import (
    ip_reuse_liveness_problem,
    verify_ip_reuse_liveness_problems,
)

from tests import oracle
from tests.core.conftest import customer_liveness_property


FIGURE1_LIVENESS = oracle.CASES["figure1-liveness"]


def _per_step_universes(config, ghosts, problem):
    """The pre-hoisting pipeline on hermetic solvers: propagation and the
    implication under the property's own universe, each no-interference
    sub-proof under the universe it would build for itself."""
    prop = problem.prop
    own = build_universe(config, None, [prop.predicate, *prop.constraints], ghosts)
    universes = {PROPAGATION_KEY: own, IMPLICATION_KEY: own}
    properties, invariants = resolve_interference_invariants(config, prop, problem.invariants)
    for router, safety_prop in properties.items():
        universe = build_universe(config, invariants[router], [safety_prop.predicate], ghosts)
        universes[subproof_key(router)] = universe
    groups = {
        key: [GroupOutcomes.of(checks, [c.run(config, universes[key], ghosts) for c in checks])]
        for key, checks in problem.checks(config).items()
    }
    return problem.report(groups, 0.0, DegradationReport())


def _assert_hoisting_is_invisible(case):
    config = case.config()
    ghosts, problem = case.problem(config)
    hoisted = oracle.hermetic_report(config, ghosts, problem)
    per_step = _per_step_universes(config, ghosts, problem)
    assert oracle.listing(hoisted, witness=True) == oracle.listing(per_step, witness=True)


def test_pooled_liveness_matches_fresh_pipeline():
    _assert_hoisting_is_invisible(FIGURE1_LIVENESS)
    reference = oracle.agree(FIGURE1_LIVENESS, "pooled")
    assert not oracle.blamed_routers(reference)


def test_pooled_liveness_matches_fresh_pipeline_on_broken_network():
    case = oracle.CASES["figure1-liveness-planted"]
    _assert_hoisting_is_invisible(case)
    reference = oracle.agree(case, "pooled")
    assert oracle.blamed_routers(reference) == {"R3"}


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
    # Every answer of the second run is a memo hit replaying the first's model.
    assert oracle.listing(first, witness=True) == oracle.listing(second, witness=True)


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
    problem = lambda config: ((), LivenessProblem(prop, custom))
    case = oracle.Case("figure1-liveness-custom", build_figure1, problem)
    _assert_hoisting_is_invisible(case)
    oracle.agree(case, "pooled")


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
        assert oracle.listing(report) == oracle.listing(solo)
    # The sweep shared one pool: a single session per owner overall.
    assert pool.created == len(set(wan.config.topology.routers)) + 1
