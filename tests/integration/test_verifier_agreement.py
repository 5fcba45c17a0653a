"""Agreement between the modular and monolithic verifiers.

Lightyear is sound but (deliberately) incomplete: it proves exactly what
the supplied invariants support.  Minesweeper explores the full joint state
space.  The checkable relationship is therefore one-directional:

    if Lightyear verifies a property (under *some* invariants),
    then Minesweeper must verify the same property.

This test fuzzes small networks with randomly composed policies and lets
the §8 inference search find invariants.  Each cell redraws from its seed
until the search succeeds (about one draw in six), so every cell asserts
the implication — a differential test of both verifiers at once.
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
    RouteMap,
    RouteMapClause,
)
from repro.bgp.route import Community
from repro.bgp.topology import Edge, Topology
from repro.core.inference import infer_safety_invariants
from repro.core.properties import SafetyProperty
from repro.lang.ghost import GhostAttribute
from repro.lang.predicates import GhostIs, HasCommunity, Not


C = Community(100, 1)

# A pool of simple policies the fuzzer composes.
TAG = RouteMap("TAG", (RouteMapClause(10, actions=(AddCommunity(C),)),))
PASS = None  # no route map: identity
STRIP = RouteMap("STRIP", (RouteMapClause(10, actions=(DeleteCommunity(C),)),))
BLOCK_TAGGED = RouteMap(
    "BLOCK",
    (
        RouteMapClause(10, Disposition.DENY, matches=(HasCommunity(C),)),
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


#: Draws a cell may take to find a network Lightyear proves; over 300
#: seeds none needed more than 34.
MAX_DRAWS = 60


def _provable_network(rng: random.Random):
    """(config, ghost, property) of the first drawn network whose
    no-transit property the inference search proves."""
    for __ in range(MAX_DRAWS):
        e1_import = rng.choice([TAG, DENY_ALL])
        internal_maps = [rng.choice(POLICIES) for __ in range(4)]
        config = _build_network(e1_import, internal_maps, rng.choice(POLICIES))
        ghost, prop = _no_transit(config)
        if infer_safety_invariants(config, prop, ghost, max_candidates=4).found:
            return config, ghost, prop
    pytest.fail(f"no draw in {MAX_DRAWS} is a network Lightyear proves")


@pytest.mark.parametrize("seed", range(60))
def test_lightyear_pass_implies_minesweeper_verifies(seed):
    config, ghost, prop = _provable_network(random.Random(seed))
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
