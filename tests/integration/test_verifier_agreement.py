"""Agreement between the modular and monolithic verifiers.

Lightyear is sound but (deliberately) incomplete: it proves exactly what
the supplied invariants support.  Minesweeper explores the full joint state
space.  The checkable relationship is therefore one-directional:

    if Lightyear verifies a property (under *some* invariants),
    then Minesweeper must verify the same property.

This test fuzzes small networks with randomly composed policies, lets the
§8 inference search find invariants, and asserts the implication whenever
it succeeds — a differential test of both verifiers at once.
"""

from __future__ import annotations

import random

import pytest

from repro.baselines.minesweeper import MinesweeperVerifier
from repro.bgp.config import NeighborConfig, NetworkConfig, RouterConfig
from repro.bgp.policy import (
    AddCommunity,
    DeleteCommunity,
    Disposition,
    MatchCommunity,
    RouteMap,
    RouteMapClause,
)
from repro.bgp.route import Community
from repro.bgp.topology import Edge, Topology
from repro.core.inference import infer_safety_invariants
from repro.core.properties import SafetyProperty
from repro.lang.ghost import GhostAttribute
from repro.lang.predicates import GhostIs, Not


C = Community(100, 1)

# A pool of simple policies the fuzzer composes.
TAG = RouteMap("TAG", (RouteMapClause(10, actions=(AddCommunity(C),)),))
PASS = None  # no route map: identity
STRIP = RouteMap("STRIP", (RouteMapClause(10, actions=(DeleteCommunity(C),)),))
BLOCK_TAGGED = RouteMap(
    "BLOCK",
    (
        RouteMapClause(10, Disposition.DENY, matches=(MatchCommunity(C),)),
        RouteMapClause(20),
    ),
)
DENY_ALL = RouteMap.deny_all()

POLICIES = [TAG, PASS, STRIP, BLOCK_TAGGED, DENY_ALL]


def _build_network(e1_import, internal_maps, egress_export) -> NetworkConfig:
    """A 3-router line: E1 - R1 - R2 - R3 - E3."""
    topo = Topology()
    for r in ("R1", "R2", "R3"):
        topo.add_router(r)
    topo.add_external("E1")
    topo.add_external("E3")
    topo.add_peering("R1", "E1")
    topo.add_peering("R1", "R2")
    topo.add_peering("R2", "R3")
    topo.add_peering("R3", "E3")

    config = NetworkConfig(topo)
    config.set_external_asn("E1", 100)
    config.set_external_asn("E3", 300)

    r1 = RouterConfig("R1", 65000)
    r1.add_neighbor(NeighborConfig("E1", 100, import_map=e1_import))
    r1.add_neighbor(NeighborConfig("R2", 65000, export_map=internal_maps[0]))
    r2 = RouterConfig("R2", 65000)
    r2.add_neighbor(NeighborConfig("R1", 65000, import_map=internal_maps[1]))
    r2.add_neighbor(NeighborConfig("R3", 65000, export_map=internal_maps[2]))
    r3 = RouterConfig("R3", 65000)
    r3.add_neighbor(NeighborConfig("R2", 65000, import_map=internal_maps[3]))
    r3.add_neighbor(NeighborConfig("E3", 300, export_map=egress_export))
    for rc in (r1, r2, r3):
        config.add_router_config(rc)
    return config


def _no_transit(config):
    """(ghost, property): no E1 route is sent on R3->E3."""
    ghost = GhostAttribute.source_tracker("FromE1", config.topology, [Edge("E1", "R1")])
    prop = SafetyProperty(Edge("R3", "E3"), Not(GhostIs("FromE1")), name="no-transit")
    return ghost, prop


@pytest.mark.parametrize("seed", range(100))  # about one in ten makes the claim
def test_lightyear_pass_implies_minesweeper_verifies(seed):
    rng = random.Random(seed)
    e1_import = rng.choice([TAG, DENY_ALL])
    internal_maps = [rng.choice(POLICIES) for __ in range(4)]
    config = _build_network(e1_import, internal_maps, rng.choice(POLICIES))
    ghost, prop = _no_transit(config)
    inferred = infer_safety_invariants(config, prop, ghost, max_candidates=4)
    if not inferred.found:
        return  # Lightyear (with this candidate pool) cannot prove it: no claim.
    ms = MinesweeperVerifier(config, ghosts=(ghost,)).verify(
        prop, conflict_budget=20000
    )
    assert not ms.timed_out
    assert ms.verified, (
        "Lightyear verified but Minesweeper found a counterexample: "
        f"{ms.counterexample} — soundness violation in one of the verifiers"
    )


def test_known_safe_network_agrees():
    config = _build_network(TAG, [PASS, PASS, PASS, PASS], BLOCK_TAGGED)
    ghost, prop = _no_transit(config)
    inferred = infer_safety_invariants(config, prop, ghost)
    assert inferred.found
    ms = MinesweeperVerifier(config, ghosts=(ghost,)).verify(prop)
    assert ms.verified


def test_known_broken_network_agrees():
    # An internal STRIP breaks the scheme: Lightyear cannot prove it, and
    # Minesweeper exhibits a concrete leak.
    config = _build_network(TAG, [PASS, STRIP, PASS, PASS], BLOCK_TAGGED)
    ghost, prop = _no_transit(config)
    inferred = infer_safety_invariants(config, prop, ghost)
    assert not inferred.found
    ms = MinesweeperVerifier(config, ghosts=(ghost,)).verify(prop)
    assert not ms.verified
    assert ms.counterexample is not None
    assert ms.counterexample.ghost_value("FromE1") is True
