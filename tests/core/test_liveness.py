"""Liveness verification on the Figure 1 network (Table 3 end to end)."""

from __future__ import annotations

import pytest

from repro.bgp.topology import Edge
from repro.core.checks import CheckKind
from repro.core.exec import ExecutionContext
from repro.core.liveness import (
    generate_propagation_checks,
    interference_properties,
    resolve_interference_invariants,
    verify_liveness,
)
from repro.core.properties import LivenessProperty
from repro.core.report import (
    IMPLICATION_KEY,
    PROPAGATION_KEY,
    GroupOutcomes,
    VerificationReport,
    subproof_key,
)
from repro.core.safety import build_universe, invariant_predicates
from repro.lang.predicates import HasCommunity, Not, PrefixIn, TruePred
from repro.workloads.figure1 import TRANSIT_COMMUNITY, build_figure1

from tests import oracle
from tests.core.conftest import customer_liveness_property


def test_propagation_check_structure(fig1_config):
    prop = customer_liveness_property()
    checks = generate_propagation_checks(fig1_config, prop)
    kinds = [c.kind for c in checks]
    # Path Customer->R3, R3, R3->R2, R2, R2->ISP2 has two imports
    # (Customer->R3 at R3, R3->R2 at R2) and two exports (R3, R2).
    assert kinds == [
        CheckKind.PROPAGATE_IMPORT,
        CheckKind.PROPAGATE_EXPORT,
        CheckKind.PROPAGATE_IMPORT,
        CheckKind.PROPAGATE_EXPORT,
    ]
    # Table 3's propagation rows.
    edges = [Edge("Customer", "R3"), Edge("R3", "R2"), Edge("R3", "R2"), Edge("R2", "ISP2")]
    assert [c.edge for c in checks] == edges


def test_interference_properties_target_path_routers(fig1_config):
    props = interference_properties(customer_liveness_property())
    assert set(props) == {"R3", "R2"}
    for safety_prop in props.values():
        assert "no-interference" in safety_prop.name


def test_liveness_fails_when_r3_keeps_communities():
    config = build_figure1(buggy_r3_strip=True)
    report = verify_liveness(config, customer_liveness_property())
    assert not report.passed
    # The propagation check at R3's customer import must fail: a tagged
    # customer route stays tagged.
    prop_failures = [
        o for o in report.section_outcomes(PROPAGATION_KEY) if not o.passed and o.failure
    ]
    assert prop_failures
    witness = prop_failures[0].failure
    assert witness.check.edge == Edge("Customer", "R3")
    assert TRANSIT_COMMUNITY in witness.input_route.communities


def test_liveness_fails_when_path_filter_rejects_good_routes(fig1_config):
    # Claim good routes have a /26 customer prefix: R3's import only accepts
    # up to /24, so propagation fails with a rejection witness.
    from repro.bgp.prefix import Prefix, PrefixRange

    narrow = PrefixIn((PrefixRange(Prefix.parse("20.0.0.0/8"), 26, 26),))
    good = narrow & Not(HasCommunity(TRANSIT_COMMUNITY))
    prop = LivenessProperty(
        location=Edge("R2", "ISP2"),
        predicate=narrow,
        path=(
            Edge("Customer", "R3"),
            "R3",
            Edge("R3", "R2"),
            "R2",
            Edge("R2", "ISP2"),
        ),
        constraints=(narrow, good, good, good, narrow),
    )
    report = verify_liveness(fig1_config, prop)
    assert not report.passed
    rejection = [
        o.failure
        for o in report.section_outcomes(PROPAGATION_KEY)
        if o.failure is not None and o.failure.rejected
    ]
    assert rejection, "expected a rejected-good-route witness"


def test_liveness_implication_check_failure(fig1_config):
    # C_n does not imply the property: catch it at the implication check.
    has_cust = PrefixIn.under(__import__("repro.bgp.prefix", fromlist=["Prefix"]).Prefix.parse("20.0.0.0/8"))
    prop = LivenessProperty(
        location=Edge("R2", "ISP2"),
        predicate=HasCommunity(TRANSIT_COMMUNITY),  # absurd goal
        path=(Edge("Customer", "R3"), "R3", Edge("R3", "R2"), "R2", Edge("R2", "ISP2")),
        constraints=(TruePred(),) * 5,
    )
    report = verify_liveness(fig1_config, prop)
    assert not report.section_outcomes(IMPLICATION_KEY)[0].passed


def test_liveness_rejects_bogus_path(fig1_config):
    prop = LivenessProperty(
        location=Edge("R2", "ISP2"),
        predicate=TruePred(),
        path=("R3", Edge("R3", "R1"), "R2", Edge("R2", "ISP2")),  # R3->R1 then R2?
        constraints=(TruePred(),) * 4,
    )
    with pytest.raises(ValueError):
        verify_liveness(fig1_config, prop)


def test_liveness_report_metrics(fig1_config):
    report = verify_liveness(fig1_config, customer_liveness_property())
    assert report.num_checks > 4
    assert report.max_vars > 0
    assert report.solve_time_s >= 0
    assert "PASSED" in report.summary()


def test_custom_interference_invariants(fig1_config):
    # Supplying explicit invariant maps for the no-interference sub-proofs
    # must work when they are inductive.
    from repro.core.properties import InvariantMap

    prop = customer_liveness_property()
    props = interference_properties(prop)
    invariants = {
        router: InvariantMap(fig1_config.topology, default=sp.predicate)
        for router, sp in props.items()
    }
    report = verify_liveness(
        fig1_config, prop, interference_invariants=invariants
    )
    assert report.passed


# -- one universe and one pool for the whole §5 proof ---------------------


def _per_step_universes(config, ghosts, problem):
    """The §5 proof on hermetic solvers with the universe each step would
    build for itself: the property's for propagation and the implication,
    each sub-proof's own (its invariants' atoms included)."""
    prop = problem.prop
    own = build_universe(config, [prop.predicate, *prop.constraints], ghosts)
    universes = {PROPAGATION_KEY: own, IMPLICATION_KEY: own}
    hoisted = build_universe(config, problem.predicates(), ghosts)
    properties, invariants = resolve_interference_invariants(config, prop, problem.invariants)
    for router, safety_prop in properties.items():
        preds = [safety_prop.predicate, *invariant_predicates(invariants[router])]
        universe = build_universe(config, preds, ghosts)
        universes[subproof_key(router)] = universe
        for atoms in ("communities", "asns", "ghosts"):  # the hoisted one covers it
            assert set(getattr(universe, atoms)) <= set(getattr(hoisted, atoms))
    groups = {
        key: [GroupOutcomes.of(checks, [c.run(config, universes[key], ghosts) for c in checks])]
        for key, checks in problem.checks(config).items()
    }
    return VerificationReport(problem.property, groups, 0.0)


@pytest.mark.parametrize("name", ["figure1-liveness", "figure1-liveness-planted", "figure1-liveness-custom"])
def test_hoisting_the_universe_is_invisible(name):
    # Witness routes included; "custom" has an invariant atom (777:7)
    # that only a sub-proof's own universe would otherwise contain.
    case = oracle.CASES[name]
    config = case.config()
    ghosts, problem = case.problem(config)
    hoisted = oracle.listing(oracle.run("hermetic", case), witness=True)
    assert hoisted == oracle.listing(_per_step_universes(config, ghosts, problem), witness=True)


def test_the_whole_proof_shares_one_pool(fig1_config):
    context = ExecutionContext()
    pool = context.sessions
    assert verify_liveness(fig1_config, customer_liveness_property(), context=context).passed
    # Propagation, the two sub-proofs and the implication: one session
    # per owner.  The implication goes through the pool too (it used to
    # bypass it with a one-shot solver): the None-owner session answers
    # it and each sub-proof's implication, solved or recalled.
    assert set(pool.keys()) == {"R1", "R2", "R3", None} and pool.created == 4
    implications = pool.peek(None)
    assert implications.checks_discharged + implications.memo_hits == 3
    assert implications.checks_discharged >= 1
    # A second run on the warm pool encodes nothing.
    sizes = pool.encoding_sizes()
    verify_liveness(fig1_config, customer_liveness_property(), context=context)
    assert pool.encoding_sizes() == sizes
