"""Tests for the synthetic workload generators."""

from __future__ import annotations

import pytest

from repro.bgp.prefix import Prefix
from repro.bgp.route import Community, Route
from repro.bgp.simulator import Simulator
from repro.bgp.topology import Edge
from repro.workloads.fullmesh import TRANSIT_COMMUNITY, build_full_mesh
from repro.workloads.wan import REUSED_POOL, WanNetwork, build_wan, region_community


# ---------------------------------------------------------------------------
# Full mesh
# ---------------------------------------------------------------------------


def test_full_mesh_shape():
    config = build_full_mesh(5)
    topo = config.topology
    assert len(topo.routers) == 5
    assert len(topo.externals) == 5
    # Directed edges: 5*4 internal + 2*5 external = 30.
    assert len(topo.edges) == 5 * 4 + 10
    assert not config.validate()


def test_full_mesh_minimum_size():
    with pytest.raises(ValueError):
        build_full_mesh(1)


def test_full_mesh_policies_mirror_figure1():
    config = build_full_mesh(4)
    tagged = config.import_route(
        Edge("E1", "R1"), Route(prefix=Prefix.parse("99.0.0.0/8"))
    )
    assert TRANSIT_COMMUNITY in tagged.communities
    # R2 -> E2 export drops tagged routes.
    assert config.export_route(Edge("R2", "E2"), tagged) is None
    # Long prefixes are filtered at every eBGP import.
    long = Route(prefix=Prefix.parse("99.0.0.0/28"))
    assert config.import_route(Edge("E3", "R3"), long) is None


def test_full_mesh_simulation_no_transit():
    config = build_full_mesh(4)
    sim = Simulator(config)
    result = sim.run({"E1": [Route(prefix=Prefix.parse("99.0.0.0/8"))]})
    assert result.routes_forwarded_on(Edge("R2", "E2")) == []
    # The route still reaches R2 internally (tagged).
    assert result.selected("R2", Prefix.parse("99.0.0.0/8")) is not None


# ---------------------------------------------------------------------------
# WAN
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def wan() -> WanNetwork:
    return build_wan(regions=3, routers_per_region=3, peers_per_edge=2)


def test_wan_shape(wan):
    topo = wan.config.topology
    assert len(topo.routers) == 9
    assert len(wan.edge_routers) == 3
    assert len(wan.peers) == 6
    assert len(wan.datacenters) == 3
    assert not wan.config.validate()


def test_wan_region_metadata(wan):
    assert wan.region_of("W0-0") == 0
    assert wan.region_of("W2-1") == 2
    with pytest.raises(KeyError):
        wan.region_of("NOPE")
    dc, attach = wan.dc_edge_into(1)
    assert wan.datacenters[dc] == (1, attach)
    assert wan.documented_communities[0] == region_community(0)


def test_wan_peer_import_rejects_bogons(wan):
    peer = next(iter(wan.peers))
    router = wan.peers[peer]
    edge = Edge(peer, router)
    bogon = Route(prefix=Prefix.parse("10.1.0.0/16"))
    assert wan.config.import_route(edge, bogon) is None
    default = Route(prefix=Prefix.parse("0.0.0.0/0"))
    assert wan.config.import_route(edge, default) is None
    ok = Route(prefix=Prefix.parse("99.0.0.0/8"), communities={Community(1, 1)}, local_pref=500)
    imported = wan.config.import_route(edge, ok)
    assert imported is not None
    assert imported.communities == frozenset()
    assert imported.local_pref == 100


def test_wan_peer_import_rejects_bad_as(wan):
    peer = next(iter(wan.peers))
    edge = Edge(peer, wan.peers[peer])
    bad = Route(prefix=Prefix.parse("99.0.0.0/8"), as_path=(3000, 666))
    assert wan.config.import_route(edge, bad) is None


def test_wan_dc_import_tags_reused_prefixes(wan):
    dc, attach = wan.dc_edge_into(0)
    edge = Edge(dc, attach)
    reused = Route(prefix=Prefix.parse("172.16.1.0/24"), communities={Community(9, 9)})
    imported = wan.config.import_route(edge, reused)
    assert imported.communities == frozenset({region_community(0)})
    public = Route(prefix=Prefix.parse("99.0.0.0/8"), communities={Community(9, 9)})
    imported2 = wan.config.import_route(edge, public)
    assert imported2.communities == frozenset()


def test_wan_interregion_import_blocks_regional_communities(wan):
    # W0-0 and W1-0 are inter-region neighbors.
    edge = Edge("W0-0", "W1-0")
    assert wan.config.topology.has_edge(*edge)
    tagged = Route(
        prefix=Prefix.parse("172.16.1.0/24"),
        communities={region_community(0)},
    )
    assert wan.config.import_route(edge, tagged) is None
    untagged = Route(prefix=Prefix.parse("99.0.0.0/8"))
    assert wan.config.import_route(edge, untagged) is not None


def test_wan_peer_export_only_own_space(wan):
    peer = next(iter(wan.peers))
    router = wan.peers[peer]
    edge = Edge(router, peer)
    own = Route(prefix=Prefix.parse("8.8.1.0/24"))
    assert wan.config.export_route(edge, own) is not None
    other = Route(prefix=Prefix.parse("99.0.0.0/8"))
    assert wan.config.export_route(edge, other) is None


def test_wan_buggy_edge_router_accepts_bogons():
    wan = build_wan(regions=2, routers_per_region=2, buggy_edge_router="W0-0")
    peer = next(p for p, r in wan.peers.items() if r == "W0-0")
    bogon = Route(prefix=Prefix.parse("10.1.0.0/16"))
    assert wan.config.import_route(Edge(peer, "W0-0"), bogon) is not None
    # The other region's edge router is unaffected.
    other_peer = next(p for p, r in wan.peers.items() if r == "W1-0")
    assert wan.config.import_route(Edge(other_peer, "W1-0"), bogon) is None


def test_wan_adhoc_aspath_bug():
    wan = build_wan(regions=2, routers_per_region=2, adhoc_aspath_router="W1-0")
    peer = next(p for p, r in wan.peers.items() if r == "W1-0")
    bad = Route(prefix=Prefix.parse("99.0.0.0/8"), as_path=(3000, 666))
    assert wan.config.import_route(Edge(peer, "W1-0"), bad) is not None


def test_wan_wrong_community_bug():
    wan = build_wan(regions=2, routers_per_region=2, wrong_community_region=1)
    dc, attach = wan.dc_edge_into(1)
    reused = Route(prefix=Prefix.parse("172.16.1.0/24"))
    imported = wan.config.import_route(Edge(dc, attach), reused)
    assert region_community(1) not in imported.communities
    # The bogus community is not in the documented metadata.
    assert not imported.communities & set(wan.documented_communities.values())


def test_wan_reused_route_helper(wan):
    route = wan.reused_route()
    assert REUSED_POOL.contains(route.prefix)


def test_wan_simulation_reused_stays_in_region():
    wan = build_wan(regions=2, routers_per_region=2)
    dc, attach = wan.dc_edge_into(0)
    result = Simulator(wan.config).run({dc: [wan.reused_route()]})
    reused_prefix = wan.reused_route().prefix
    # Every router in region 0 hears it; no router in region 1 does.
    for router in wan.routers_by_region[0]:
        assert result.selected(router, reused_prefix) is not None
    for router in wan.routers_by_region[1]:
        assert result.selected(router, reused_prefix) is None
