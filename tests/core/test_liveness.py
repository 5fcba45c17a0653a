"""Liveness verification on the Figure 1 network (Table 3 end to end)."""

from __future__ import annotations

import pytest

from repro.bgp.topology import Edge
from repro.core.checks import CheckKind
from repro.core.liveness import (
    generate_propagation_checks,
    interference_properties,
    verify_liveness,
)
from repro.core.properties import LivenessProperty
from repro.lang.predicates import HasCommunity, Not, PrefixIn, TruePred
from repro.workloads.figure1 import TRANSIT_COMMUNITY, build_figure1

from tests.core.conftest import customer_liveness_property


def test_customer_liveness_verifies(fig1_config):
    report = verify_liveness(fig1_config, customer_liveness_property())
    assert report.passed, "\n".join(f.explain() for f in report.failures)


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
    assert checks[0].edge == Edge("Customer", "R3")
    assert checks[-1].edge == Edge("R2", "ISP2")


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
        o for o in report.propagation_outcomes if not o.passed and o.failure
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
        for o in report.propagation_outcomes
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
    assert not report.implication_outcome.passed


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
