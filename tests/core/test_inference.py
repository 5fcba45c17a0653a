"""Tests for automatic invariant inference (the §8 extension)."""

from __future__ import annotations

import pytest

from repro.bgp.policy import AddCommunity, RouteMap, RouteMapClause
from repro.bgp.route import Community
from repro.bgp.topology import Edge
from repro.core.exec import ExecutionContext
from repro.core.inference import (
    candidate_communities,
    infer_safety_invariants,
)
from repro.core.safety import verify_safety
from repro.lang.ghost import GhostAttribute
from repro.lang.predicates import GhostIs, Not
from repro.workloads.figure1 import TRANSIT_COMMUNITY, build_figure1
from repro.workloads.fullmesh import build_full_mesh

from tests.core.conftest import no_transit_property


def _setup(config):
    ghost = GhostAttribute.source_tracker(
        "FromISP1", config.topology, [Edge("ISP1", "R1")]
    )
    return ghost, no_transit_property()


def test_candidates_prioritise_source_edge_communities():
    config = build_figure1()
    ghost, __ = _setup(config)
    candidates = candidate_communities(config, ghost)
    assert candidates[0] == TRANSIT_COMMUNITY


def test_inference_finds_the_tracking_community():
    config = build_figure1()
    ghost, prop = _setup(config)
    result = infer_safety_invariants(config, prop, ghost)
    assert result.found
    assert result.winner.community == TRANSIT_COMMUNITY
    assert "inferred" in result.summary()


def test_inferred_invariants_actually_verify():
    config = build_figure1()
    ghost, prop = _setup(config)
    result = infer_safety_invariants(config, prop, ghost)
    invariants = result.invariants(config)
    report = verify_safety(config, prop, invariants, ghosts=(ghost,))
    assert report.passed


def test_inference_runs_every_candidate_on_the_callers_context():
    config = build_figure1()
    ghost, prop = _setup(config)
    # An already-spent wall budget reaches every candidate's checks: all
    # UNKNOWN, so nothing is "found" — and nothing was ever encoded.
    spent = ExecutionContext(wall_budget_s=1e-9)
    result = infer_safety_invariants(config, prop, ghost, context=spent)
    assert not result.found and result.attempts
    assert len(spent.sessions) == 0
    # A plain one decides, on the caller's session pool.
    context = ExecutionContext()
    assert infer_safety_invariants(config, prop, ghost, context=context).found
    assert context.sessions.checks_discharged > 0


def test_inference_fails_on_buggy_network_with_counterexamples():
    config = build_figure1(buggy_r1_tagging=True)
    ghost, prop = _setup(config)
    result = infer_safety_invariants(config, prop, ghost)
    assert not result.found
    assert result.attempts
    # Every rejected candidate is refuted by concrete counterexamples.
    assert all(a.failures for a in result.attempts if not a.passed)
    with pytest.raises(LookupError):
        result.invariants(config)
    assert "no candidate" in result.summary()


def test_inference_skips_decoy_communities():
    # Add a decoy community on an unrelated filter; the search must still
    # land on the real tracking community.
    config = build_figure1()
    decoy = Community(42, 42)
    config.routers["R3"].neighbors["R2"].export_map = RouteMap(
        "DECOY", (RouteMapClause(10, actions=(AddCommunity(decoy),)),)
    )
    ghost, prop = _setup(config)
    result = infer_safety_invariants(config, prop, ghost)
    assert result.found
    assert result.winner.community == TRANSIT_COMMUNITY


def test_inference_on_full_mesh():
    config = build_full_mesh(6)
    ghost = GhostAttribute.source_tracker(
        "FromE1", config.topology, [Edge("E1", "R1")]
    )
    from repro.core.properties import SafetyProperty

    prop = SafetyProperty(
        location=Edge("R2", "E2"), predicate=Not(GhostIs("FromE1")), name="no-transit"
    )
    result = infer_safety_invariants(config, prop, ghost)
    assert result.found
    assert result.winner.community == TRANSIT_COMMUNITY


def test_max_candidates_bound_respected():
    config = build_figure1()
    ghost, prop = _setup(config)
    result = infer_safety_invariants(config, prop, ghost, max_candidates=0)
    assert not result.found
    assert result.attempts == []
