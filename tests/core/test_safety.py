"""Safety verification on the Figure 1 network (Table 2 end to end)."""

from __future__ import annotations

import pytest

from repro.bgp.topology import Edge
from repro.core.checks import CheckKind, generate_safety_checks
from repro.core.exec import ExecutionContext
from repro.core.properties import SafetyProperty
from repro.core.safety import verify_safety
from repro.core.workspace import Workspace
from repro.lang.predicates import GhostIs, HasCommunity, Implies, Not
from repro.workloads.figure1 import TRANSIT_COMMUNITY, build_figure1

from tests.core.conftest import no_transit_invariants, no_transit_property


def test_no_transit_verifies(fig1_config, from_isp1):
    report = verify_safety(
        fig1_config,
        no_transit_property(),
        no_transit_invariants(fig1_config),
        ghosts=(from_isp1,),
    )
    assert report.passed, "\n".join(f.explain() for f in report.failures)
    assert not report.unknowns


def test_check_count_is_linear_in_edges(fig1_config, from_isp1):
    # 12 directed edges; every edge into a router gets an import check (9),
    # every edge out of a router gets an export check (9), plus implication.
    checks = generate_safety_checks(
        fig1_config,
        no_transit_invariants(fig1_config),
        Edge("R2", "ISP2"),
        Not(GhostIs("FromISP1")),
    )
    kinds = [c.kind for c in checks]
    assert kinds.count(CheckKind.IMPORT) == 9
    assert kinds.count(CheckKind.EXPORT) == 9
    assert kinds.count(CheckKind.ORIGINATE) == 0
    assert kinds.count(CheckKind.IMPLICATION) == 1
    assert len(checks) == 19


def test_buggy_tagging_fails_and_localises_to_r1(from_isp1):
    config = build_figure1(buggy_r1_tagging=True)
    report = verify_safety(
        config,
        no_transit_property(),
        no_transit_invariants(config),
        ghosts=(from_isp1,),
    )
    assert not report.passed
    failures = report.failures
    assert failures, "expected at least one failed check"
    blamed = {f.blamed_router for f in failures}
    assert blamed == {"R1"}
    # The witness demonstrates the exact bug: a low-MED route from ISP1
    # accepted without the transit community.
    witness = failures[0]
    assert witness.input_route.med <= 10
    assert witness.output_route is not None
    assert TRANSIT_COMMUNITY not in witness.output_route.communities
    assert witness.output_route.ghost_value("FromISP1") is True
    assert "ISP1-IN" in witness.blamed_policy


def test_missing_edge_invariant_fails_implication(fig1_config, from_isp1):
    # Forget to set the R2->ISP2 invariant: the key invariant alone does not
    # imply the property, and the implication check must catch it.
    from repro.core.properties import InvariantMap

    inv = InvariantMap(
        fig1_config.topology,
        default=Implies(GhostIs("FromISP1"), HasCommunity(TRANSIT_COMMUNITY)),
    )
    report = verify_safety(
        fig1_config, no_transit_property(), inv, ghosts=(from_isp1,)
    )
    assert not report.passed
    implication_failures = [
        f for f in report.failures if f.check.kind is CheckKind.IMPLICATION
    ]
    assert implication_failures
    witness = implication_failures[0]
    # A tagged FromISP1 route satisfies the invariant but not the property.
    assert witness.input_route.ghost_value("FromISP1") is True
    assert TRANSIT_COMMUNITY in witness.input_route.communities


def test_too_strong_invariant_fails_at_establishing_filter(fig1_config, from_isp1):
    # Claim that *no* FromISP1 route exists inside the network: R1's import
    # cannot establish that, and the failure localises to the ISP1 edge.
    from repro.core.properties import InvariantMap
    from repro.lang.predicates import Not as NotPred

    inv = InvariantMap(fig1_config.topology, default=NotPred(GhostIs("FromISP1")))
    report = verify_safety(
        fig1_config, no_transit_property(), inv, ghosts=(from_isp1,)
    )
    assert not report.passed
    blamed_edges = {f.check.edge for f in report.failures if f.check.edge}
    assert Edge("ISP1", "R1") in blamed_edges


def test_parallel_checks_agree_with_sequential(fig1_config, from_isp1):
    inv = no_transit_invariants(fig1_config)
    seq = verify_safety(
        fig1_config, no_transit_property(), inv, ghosts=(from_isp1,)
    )
    par = verify_safety(
        fig1_config,
        no_transit_property(),
        inv,
        ghosts=(from_isp1,),
        context=ExecutionContext(parallel=4),
    )
    assert seq.passed == par.passed
    assert seq.num_checks == par.num_checks


def test_engine_rejects_invalid_config():
    from repro.bgp.config import NetworkConfig
    from repro.bgp.topology import Topology

    topo = Topology()
    topo.add_router("R1")
    config = NetworkConfig(topo)  # R1 has no RouterConfig
    with pytest.raises(ValueError):
        Workspace(config)


def test_report_summary_text(fig1_config, from_isp1):
    report = verify_safety(
        fig1_config,
        no_transit_property(),
        no_transit_invariants(fig1_config),
        ghosts=(from_isp1,),
    )
    text = report.summary()
    assert "PASSED" in text
    assert "19 local checks" in text


def test_ghost_free_safety_property(fig1_config):
    # A property that needs no ghosts: routes sent to ISP2 never carry the
    # internal transit community (R2's export filter drops them).
    prop = SafetyProperty(
        location=Edge("R2", "ISP2"),
        predicate=Not(HasCommunity(TRANSIT_COMMUNITY)),
        name="no-transit-community-leak",
    )
    from repro.core.properties import InvariantMap
    from repro.lang.predicates import TruePred

    inv = InvariantMap(fig1_config.topology, default=TruePred())
    inv.set_edge("R2", "ISP2", Not(HasCommunity(TRANSIT_COMMUNITY)))
    report = verify_safety(fig1_config, prop, inv)
    assert report.passed, "\n".join(f.explain() for f in report.failures)
