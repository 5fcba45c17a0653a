"""Property tests for the canonical per-router policy digest.

The digest is the key of the incremental-reverification outcome cache and
of the transfer-output cache, so it must satisfy two directions:

* **stability** — it depends only on policy *content*: permuting neighbor
  insertion order, community-set construction order, or unrelated routers
  must not change it;
* **sensitivity** — any change to the router's route maps, originations,
  sessions, ASN, or reflector clients must change it.

The last test closes the loop: digest equality ⇒ the incremental verifier
reruns nothing.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.config import NeighborConfig, NetworkConfig, RouterConfig
from repro.bgp.policy import (
    AddCommunity,
    ClearCommunities,
    DeleteCommunity,
    Disposition,
    MatchCommunity,
    MatchLocalPrefRange,
    MatchMedRange,
    MatchNot,
    MatchPrefix,
    PrependAsPath,
    RouteMap,
    RouteMapClause,
    SetLocalPref,
    SetMed,
    canonical_policy,
    route_map_digest,
)
from repro.bgp.prefix import Prefix, PrefixRange
from repro.bgp.route import Community, Route

C1 = Community(100, 1)
C2 = Community(7, 7)
C3 = Community(9, 9)


# ---------------------------------------------------------------------------
# Strategies (mirroring tests/lang/test_transfer.py)
# ---------------------------------------------------------------------------


@st.composite
def matches(draw):
    kind = draw(st.integers(0, 4))
    if kind == 0:
        return MatchCommunity(draw(st.sampled_from([C1, C2])))
    if kind == 1:
        base = draw(st.sampled_from(["10.0.0.0/8", "20.0.0.0/8", "0.0.0.0/0"]))
        prefix = Prefix.parse(base)
        lo = draw(st.integers(prefix.length, 32))
        hi = draw(st.integers(lo, 32))
        return MatchPrefix((PrefixRange(prefix, lo, hi),))
    if kind == 2:
        lo = draw(st.integers(0, 50))
        return MatchMedRange(lo, draw(st.integers(lo, 100)))
    if kind == 3:
        lo = draw(st.integers(0, 200))
        return MatchLocalPrefRange(lo, draw(st.integers(lo, 400)))
    return MatchNot(MatchCommunity(draw(st.sampled_from([C1, C2]))))


@st.composite
def actions(draw):
    kind = draw(st.integers(0, 5))
    if kind == 0:
        return SetLocalPref(draw(st.integers(0, 400)))
    if kind == 1:
        return SetMed(draw(st.integers(0, 100)))
    if kind == 2:
        return AddCommunity(draw(st.sampled_from([C1, C2])))
    if kind == 3:
        return DeleteCommunity(draw(st.sampled_from([C1, C2])))
    if kind == 4:
        return ClearCommunities()
    return PrependAsPath(draw(st.sampled_from([666, 65000])), draw(st.integers(1, 2)))


@st.composite
def route_maps(draw):
    n = draw(st.integers(1, 4))
    clauses = []
    for i in range(n):
        deny = draw(st.booleans())
        clause_matches = tuple(draw(st.lists(matches(), max_size=2)))
        if deny:
            clauses.append(RouteMapClause((i + 1) * 10, Disposition.DENY, clause_matches))
        else:
            clause_actions = tuple(draw(st.lists(actions(), max_size=3)))
            clauses.append(
                RouteMapClause((i + 1) * 10, Disposition.PERMIT, clause_matches, clause_actions)
            )
    return RouteMap("RAND", tuple(clauses))


def _router(
    neighbor_order=("E1", "P1", "P2"),
    community_order=(C1, C2, C3),
    import_map=None,
    export_map=None,
    asn=65000,
    rr_clients=frozenset(),
) -> RouterConfig:
    """One router whose construction order is a parameter."""
    origin = Route(
        prefix=Prefix.parse("10.1.0.0/16"),
        communities=list(community_order),
        ghost={},
    )
    neighbors = {
        "E1": NeighborConfig(
            "E1", 65100, import_map=import_map, export_map=export_map,
            originated=(origin,),
        ),
        "P1": NeighborConfig("P1", asn),
        "P2": NeighborConfig("P2", asn),
    }
    rc = RouterConfig("R1", asn, rr_clients=rr_clients)
    for peer in neighbor_order:
        rc.add_neighbor(neighbors[peer])
    return rc


IMPORT_MAP = RouteMap(
    "IN",
    (
        RouteMapClause(10, Disposition.DENY, matches=(MatchCommunity(C2),)),
        RouteMapClause(20, actions=(AddCommunity(C1), SetLocalPref(200))),
    ),
)


# ---------------------------------------------------------------------------
# Stability
# ---------------------------------------------------------------------------


def test_digest_ignores_neighbor_insertion_order():
    rng = random.Random(7)
    reference = _router(import_map=IMPORT_MAP).digest()
    for __ in range(6):
        order = ["E1", "P1", "P2"]
        rng.shuffle(order)
        assert _router(neighbor_order=order, import_map=IMPORT_MAP).digest() == reference


def test_digest_ignores_community_set_construction_order():
    rng = random.Random(8)
    reference = _router().digest()
    for __ in range(6):
        order = [C1, C2, C3]
        rng.shuffle(order)
        assert _router(community_order=order).digest() == reference


def test_digest_ignores_unrelated_routers():
    """Config-level: editing R2 leaves R1's digest untouched."""
    from repro.bgp.topology import Topology

    def build(r2_map):
        topo = Topology()
        topo.add_router("R1")
        topo.add_router("R2")
        topo.add_peering("R1", "R2")
        config = NetworkConfig(topo)
        r1 = RouterConfig("R1", 65000)
        r1.add_neighbor(NeighborConfig("R2", 65000, import_map=IMPORT_MAP))
        r2 = RouterConfig("R2", 65000)
        r2.add_neighbor(NeighborConfig("R1", 65000, import_map=r2_map))
        config.add_router_config(r1)
        config.add_router_config(r2)
        return config

    base = build(None).policy_digests()
    edited = build(IMPORT_MAP).policy_digests()
    assert base["R1"] == edited["R1"]
    assert base["R2"] != edited["R2"]


@settings(max_examples=100, deadline=None)
@given(route_maps())
def test_digest_stable_across_rebuilds(route_map):
    """A structurally rebuilt router digests identically (any route map)."""
    rebuilt = RouteMap(route_map.name, tuple(route_map.clauses))
    assert route_map_digest(route_map) == route_map_digest(rebuilt)
    a = _router(import_map=route_map).digest()
    b = _router(neighbor_order=("P2", "E1", "P1"), import_map=rebuilt).digest()
    assert a == b


# ---------------------------------------------------------------------------
# Sensitivity
# ---------------------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(route_maps())
def test_digest_changes_when_a_clause_is_appended(route_map):
    extended = RouteMap(
        route_map.name,
        route_map.clauses
        + (RouteMapClause(990, actions=(SetLocalPref(7777),)),),
    )
    assert canonical_policy(route_map) != canonical_policy(extended)
    assert route_map_digest(route_map) != route_map_digest(extended)
    assert _router(import_map=route_map).digest() != _router(import_map=extended).digest()


def test_digest_changes_on_every_policy_dimension():
    reference = _router(import_map=IMPORT_MAP).digest()
    # Action constant changed deep inside a clause.
    tweaked = RouteMap(
        "IN",
        (
            IMPORT_MAP.clauses[0],
            RouteMapClause(20, actions=(AddCommunity(C1), SetLocalPref(201))),
        ),
    )
    assert _router(import_map=tweaked).digest() != reference
    # Route-map renamed (content is metadata-complete, names included).
    renamed = RouteMap("IN-V2", IMPORT_MAP.clauses)
    assert _router(import_map=renamed).digest() != reference
    # Same map moved from import to export.
    assert _router(export_map=IMPORT_MAP).digest() != reference
    # Origination, ASN, reflector clients.
    assert _router(import_map=IMPORT_MAP, community_order=(C1,)).digest() != reference
    assert _router(import_map=IMPORT_MAP, asn=65001).digest() != reference
    assert (
        _router(import_map=IMPORT_MAP, rr_clients=frozenset({"P1"})).digest()
        != reference
    )


def test_originated_ghost_order_is_canonical():
    a = Route(prefix=Prefix.parse("10.1.0.0/16"), ghost={"x": True, "y": False})
    b = Route(prefix=Prefix.parse("10.1.0.0/16"), ghost={"y": False, "x": True})
    assert canonical_policy(a) == canonical_policy(b)


# ---------------------------------------------------------------------------
# Digest equality ⇒ cache reuse
# ---------------------------------------------------------------------------


def test_digest_equality_implies_cached_check_reuse():
    """A reorder-only rebuild of the config reruns zero checks."""
    from repro.core.workspace import Workspace
    from repro.workloads.figure1 import build_figure1
    from tests.core.conftest import (
        no_transit_invariants,
        no_transit_property,
        reverify,
    )
    from repro.lang.ghost import GhostAttribute
    from repro.bgp.topology import Edge

    config = build_figure1()
    ghost = GhostAttribute.source_tracker(
        "FromISP1", config.topology, [Edge("ISP1", "R1")]
    )
    workspace = Workspace(config, ghosts=(ghost,))
    workspace.verify(no_transit_property(), no_transit_invariants(config))

    # Rebuild the same network with every router's neighbors inserted in
    # reverse order; digests must match, so nothing reruns.
    shuffled = NetworkConfig(config.topology)
    for name, rc in config.routers.items():
        copy = RouterConfig(rc.name, rc.asn, rr_clients=rc.rr_clients)
        for peer in reversed(list(rc.neighbors)):
            copy.add_neighbor(rc.neighbors[peer])
        shuffled.add_router_config(copy)
    for node, asn in config.external_asns.items():
        shuffled.set_external_asn(node, asn)
    assert shuffled.policy_digests() == config.policy_digests()

    result = reverify(workspace, shuffled)
    assert result.rerun_checks == 0
    assert result.reuse_fraction == 1.0
    assert result.report.passed
