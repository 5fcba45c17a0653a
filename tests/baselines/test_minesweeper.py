"""Tests for the Minesweeper-style monolithic baseline."""

from __future__ import annotations


from repro.baselines.minesweeper import (
    MinesweeperVerifier,
    symbolic_prefer_or_eq,
)
from repro.bgp.prefix import Prefix
from repro.bgp.route import Route
from repro.bgp.topology import Edge
from repro.core.properties import SafetyProperty
from repro.lang.ghost import GhostAttribute
from repro.lang.predicates import GhostIs, HasCommunity, Not
from repro.lang.symroute import SymbolicRoute
from repro.lang.universe import AttributeUniverse
from repro.smt.solver import Model
from repro.workloads.figure1 import TRANSIT_COMMUNITY, build_figure1
from repro.workloads.fullmesh import build_full_mesh


def _no_transit_setup(config):
    ghost = GhostAttribute.source_tracker(
        "FromISP1", config.topology, [Edge("ISP1", "R1")]
    )
    prop = SafetyProperty(
        location=Edge("R2", "ISP2"),
        predicate=Not(GhostIs("FromISP1")),
        name="no-transit",
    )
    return ghost, prop


def test_preference_relation_is_total_on_concretes():
    universe = AttributeUniverse((), (), ())
    model = Model({}, {})
    cases = [
        (Route(prefix=Prefix.parse("1.0.0.0/8"), local_pref=200),
         Route(prefix=Prefix.parse("1.0.0.0/8"), local_pref=100), True),
        (Route(prefix=Prefix.parse("1.0.0.0/8"), as_path=(1,)),
         Route(prefix=Prefix.parse("1.0.0.0/8"), as_path=(1, 2)), True),
        (Route(prefix=Prefix.parse("1.0.0.0/8"), med=5),
         Route(prefix=Prefix.parse("1.0.0.0/8"), med=2), False),
    ]
    for a, b, expect in cases:
        sa = SymbolicRoute.concrete(a, universe)
        sb = SymbolicRoute.concrete(b, universe)
        assert model.eval_bool(symbolic_prefer_or_eq(sa, sb)) is expect


def test_figure1_no_transit_verified_monolithically():
    config = build_figure1()
    ghost, prop = _no_transit_setup(config)
    verifier = MinesweeperVerifier(config, ghosts=(ghost,))
    result = verifier.verify(prop)
    assert result.verified
    assert result.counterexample is None
    assert not result.timed_out


def test_figure1_buggy_tagging_found_monolithically():
    config = build_figure1(buggy_r1_tagging=True)
    ghost, prop = _no_transit_setup(config)
    verifier = MinesweeperVerifier(config, ghosts=(ghost,))
    result = verifier.verify(prop)
    assert not result.verified
    assert result.counterexample is not None
    # The violating route at R2->ISP2 is a FromISP1 route; per the bug it
    # slipped past tagging, so it cannot carry the transit community.
    assert result.counterexample.ghost_value("FromISP1") is True
    assert TRANSIT_COMMUNITY not in result.counterexample.communities


def test_agreement_with_lightyear_on_community_leak():
    # A property both tools can state without ghosts.
    config = build_figure1()
    prop = SafetyProperty(
        location=Edge("R2", "ISP2"),
        predicate=Not(HasCommunity(TRANSIT_COMMUNITY)),
        name="no-community-leak",
    )
    result = MinesweeperVerifier(config).verify(prop)
    assert result.verified

    from repro.core.properties import InvariantMap
    from repro.core.safety import verify_safety
    from repro.lang.predicates import TruePred

    inv = InvariantMap(config.topology, default=TruePred())
    inv.set_edge("R2", "ISP2", Not(HasCommunity(TRANSIT_COMMUNITY)))
    report = verify_safety(config, prop, inv)
    assert report.passed == result.verified


def test_router_location_property():
    # Routes selected at R1 from ISP1 always carry the transit community.
    config = build_figure1()
    ghost, __ = _no_transit_setup(config)
    prop = SafetyProperty(
        location="R1",
        predicate=GhostIs("FromISP1").implies(HasCommunity(TRANSIT_COMMUNITY)),
        name="tagged-at-r1",
    )
    result = MinesweeperVerifier(config, ghosts=(ghost,)).verify(prop)
    assert result.verified


def test_encoding_size_grows_superlinearly():
    ghost_sizes = {}
    for n in (3, 6):
        config = build_full_mesh(n)
        ghost = GhostAttribute.source_tracker(
            "FromE1", config.topology, [Edge("E1", "R1")]
        )
        prop = SafetyProperty(
            location=Edge("R2", "E2"),
            predicate=Not(GhostIs("FromE1")),
        )
        verifier = MinesweeperVerifier(config, ghosts=(ghost,))
        ghost_sizes[n] = verifier.encoding_size(prop)
    vars3, __ = ghost_sizes[3]
    vars6, __ = ghost_sizes[6]
    # Doubling the mesh should far more than double the encoding.
    assert vars6 > 3 * vars3


def test_timeout_reports_timed_out():
    config = build_full_mesh(4)
    ghost = GhostAttribute.source_tracker(
        "FromE1", config.topology, [Edge("E1", "R1")]
    )
    prop = SafetyProperty(
        location=Edge("R2", "E2"), predicate=Not(GhostIs("FromE1"))
    )
    verifier = MinesweeperVerifier(config, ghosts=(ghost,))
    # The monolithic query needs dozens of conflicts on this mesh, so one
    # is not enough: undecided, and flagged as a timeout, not a verdict.
    result = verifier.verify(prop, conflict_budget=1)
    assert result.timed_out and not result.verified
    assert result.counterexample is None
    assert verifier.verify(prop).verified


def test_fullmesh_no_transit_verified_small():
    config = build_full_mesh(3)
    ghost = GhostAttribute.source_tracker(
        "FromE1", config.topology, [Edge("E1", "R1")]
    )
    prop = SafetyProperty(
        location=Edge("R2", "E2"), predicate=Not(GhostIs("FromE1"))
    )
    result = MinesweeperVerifier(config, ghosts=(ghost,)).verify(prop)
    assert result.verified
