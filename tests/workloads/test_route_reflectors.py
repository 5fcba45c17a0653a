"""Route-reflector support: simulator rules and the WAN with reflector
stars.  Verifying that WAN (peering, ip-reuse safety, and liveness via a
region's reflector, checked against simulated traces too) is the oracle's
``rrwan-*`` cases (``tests/oracle.py``)."""

from __future__ import annotations

import pytest

from repro.bgp.config import NeighborConfig, NetworkConfig, RouterConfig
from repro.bgp.prefix import Prefix
from repro.bgp.route import Route
from repro.bgp.simulator import Simulator
from repro.bgp.topology import Topology
from repro.workloads.wan import build_wan


def _star_network(clients: int = 3) -> NetworkConfig:
    """One route reflector RR with client routers C0..Cn, C0 has external E."""
    topo = Topology()
    topo.add_router("RR")
    names = [f"C{i}" for i in range(clients)]
    for c in names:
        topo.add_router(c)
        topo.add_peering("RR", c)
    topo.add_external("E")
    topo.add_peering(names[0], "E")

    config = NetworkConfig(topo)
    config.set_external_asn("E", 100)
    rr = RouterConfig("RR", 65000, rr_clients=frozenset(names))
    for c in names:
        rr.add_neighbor(NeighborConfig(c, 65000))
    config.add_router_config(rr)
    for i, c in enumerate(names):
        rc = RouterConfig(c, 65000)
        rc.add_neighbor(NeighborConfig("RR", 65000))
        if i == 0:
            rc.add_neighbor(NeighborConfig("E", 100))
        config.add_router_config(rc)
    assert not config.validate()
    return config


def test_reflector_propagates_client_route_to_other_clients():
    config = _star_network()
    route = Route(prefix=Prefix.parse("99.0.0.0/8"))
    result = Simulator(config).run({"E": [route]})
    # C0 learns over eBGP, advertises to RR, RR reflects to C1 and C2.
    for router in ("C0", "RR", "C1", "C2"):
        assert result.selected(router, route.prefix) is not None, router


def test_without_reflector_clients_route_stays_at_hub():
    config = _star_network()
    config.routers["RR"].rr_clients = frozenset()  # plain iBGP speaker
    route = Route(prefix=Prefix.parse("99.0.0.0/8"))
    result = Simulator(config).run({"E": [route]})
    assert result.selected("RR", route.prefix) is not None
    # The full-mesh rule stops re-advertisement at the hub.
    assert result.selected("C1", route.prefix) is None
    assert result.selected("C2", route.prefix) is None


def test_rr_digest_differs_from_plain_router():
    with_clients = RouterConfig("RR", 65000, rr_clients=frozenset({"C0"}))
    without = RouterConfig("RR", 65000)
    assert with_clients.digest_leaves().digest() != without.digest_leaves().digest()


# ---------------------------------------------------------------------------
# WAN with route-reflector regions
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def rr_wan():
    return build_wan(
        regions=3, routers_per_region=4, peers_per_edge=1, route_reflectors=True
    )


def test_rr_wan_topology_is_star(rr_wan):
    topo = rr_wan.config.topology
    members = rr_wan.routers_by_region[0]
    # Clients peer only with the reflector inside the region.
    assert topo.has_edge(members[0], members[1])
    assert not topo.has_edge(members[1], members[2])
    assert rr_wan.config.routers[members[0]].rr_clients == frozenset(members[1:])


def test_rr_wan_reused_route_reaches_whole_region():
    wan = build_wan(regions=2, routers_per_region=4, route_reflectors=True)
    dc, attach = wan.dc_edge_into(0)
    result = Simulator(wan.config).run({dc: [wan.reused_route()]})
    prefix = wan.reused_route().prefix
    for router in wan.routers_by_region[0]:
        assert result.selected(router, prefix) is not None, router
    for router in wan.routers_by_region[1]:
        assert result.selected(router, prefix) is None, router
