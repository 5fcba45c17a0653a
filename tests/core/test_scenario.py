"""Tests for impact assessment: immediate vs latent bug classification."""

from __future__ import annotations

from repro.bgp.topology import Edge
from repro.core.safety import verify_safety
from repro.core.scenario import assess_impact
from repro.lang.ghost import GhostAttribute
from repro.workloads.figure1 import TRANSIT_COMMUNITY, build_figure1

from tests import oracle
from tests.core.conftest import isp1_ghost, no_transit_invariants, no_transit_property


def test_missing_tag_bug_is_immediate():
    # R1 fails to tag low-MED routes: such a route announced by ISP1 today
    # flows straight through R2 to ISP2 — immediate impact.
    config = build_figure1(buggy_r1_tagging=True)
    ghost = isp1_ghost(config)
    report = verify_safety(
        config, no_transit_property(), no_transit_invariants(config), ghosts=(ghost,)
    )
    assert not report.passed
    assessment = assess_impact(config, no_transit_property(), ghost, report.failures[0])
    assert assessment.classification == "immediate"
    assert assessment.announced_from == ["ISP1"]
    assert "IMMEDIATE" in assessment.explain()


def test_strip_on_unused_path_is_latent():
    # R2 strips the community on its import from R3.  ISP1 routes travel
    # R1 -> R2 directly (iBGP full mesh; R3 never re-advertises them), so
    # the bug has no effect on today's routing — yet the local check fails:
    # the §6.1 "latent bug" shape.
    config = build_figure1()
    config.routers["R2"].neighbors["R3"].import_map = oracle.STRIP
    ghost = isp1_ghost(config)
    report = verify_safety(
        config, no_transit_property(), no_transit_invariants(config), ghosts=(ghost,)
    )
    assert not report.passed
    failure = next(f for f in report.failures if f.check.edge == Edge("R3", "R2"))
    assessment = assess_impact(config, no_transit_property(), ghost, failure)
    assert assessment.classification == "latent"
    assert "LATENT" in assessment.explain()


def test_assessment_with_no_ghost_sources_is_latent():
    config = build_figure1(buggy_r1_tagging=True)
    ghost = isp1_ghost(config)
    report = verify_safety(
        config, no_transit_property(), no_transit_invariants(config), ghosts=(ghost,)
    )
    orphan = GhostAttribute("Orphan")  # tracks nothing
    assessment = assess_impact(
        config, no_transit_property(), orphan, report.failures[0]
    )
    assert not assessment.reproduced
    assert assessment.announced_from == []


def test_assessment_on_router_location():
    # Property at a router: a bogus route selected there counts as impact.
    from repro.core.properties import InvariantMap, SafetyProperty
    from repro.lang.predicates import GhostIs, HasCommunity, Implies, Not

    config = build_figure1(buggy_r1_tagging=True)
    ghost = isp1_ghost(config)
    prop = SafetyProperty(
        location="R2",
        predicate=Implies(GhostIs("FromISP1"), HasCommunity(TRANSIT_COMMUNITY)),
        name="tagged-at-r2",
    )
    invariants = InvariantMap(config.topology, default=prop.predicate)
    report = verify_safety(config, prop, invariants, ghosts=(ghost,))
    assert not report.passed
    assessment = assess_impact(config, prop, ghost, report.failures[0])
    # The untagged route does reach and get selected at R2.
    assert assessment.classification == "immediate"
