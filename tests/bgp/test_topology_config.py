"""Tests for topology construction and NetworkConfig policy functions."""

from __future__ import annotations

import pytest

from repro.bgp.config import NeighborConfig, NetworkConfig, RouterConfig
from repro.bgp.policy import RouteMap
from repro.bgp.prefix import Prefix
from repro.bgp.route import Community, Route
from repro.bgp.topology import Edge, Topology
from repro.workloads.figure1 import build_figure1


def test_topology_basic_construction():
    topo = Topology()
    topo.add_router("R1")
    topo.add_external("E1")
    topo.add_peering("R1", "E1")
    assert topo.has_edge("R1", "E1") and topo.has_edge("E1", "R1")
    assert topo.routers == {"R1"}
    assert topo.externals == {"E1"}
    assert topo.successors("R1") == {"E1"}
    assert topo.predecessors("R1") == {"E1"}


def test_topology_rejects_unknown_and_dual_roles():
    topo = Topology()
    topo.add_router("R1")
    with pytest.raises(ValueError):
        topo.add_edge("R1", "nowhere")
    with pytest.raises(ValueError):
        topo.add_external("R1")
    topo.add_external("E1")
    with pytest.raises(ValueError):
        topo.add_router("E1")


def test_topology_rejects_external_to_external_edge():
    topo = Topology()
    topo.add_external("E1")
    topo.add_external("E2")
    with pytest.raises(ValueError):
        topo.add_edge("E1", "E2")


def test_edge_classification():
    config = build_figure1()
    topo = config.topology
    internal = set(topo.internal_edges())
    external = set(topo.external_edges())
    assert Edge("R1", "R2") in internal
    assert Edge("ISP1", "R1") in external
    assert not internal & external
    assert internal | external == topo.edges


def test_edge_iteration_order_is_by_source_then_destination():
    """``internal_edges``/``external_edges`` filter first and sort by a
    ``(src, dst)`` key; the order is the one ``sorted(edges)`` gives."""
    topo = build_figure1().topology
    assert list(topo.internal_edges()) == [
        Edge("R1", "R2"), Edge("R1", "R3"), Edge("R2", "R1"),
        Edge("R2", "R3"), Edge("R3", "R1"), Edge("R3", "R2"),
    ]
    assert list(topo.external_edges()) == [
        Edge("Customer", "R3"), Edge("ISP1", "R1"), Edge("ISP2", "R2"),
        Edge("R1", "ISP1"), Edge("R2", "ISP2"), Edge("R3", "Customer"),
    ]
    assert sorted(topo.internal_edges()) == list(topo.internal_edges())
    assert sorted(topo.external_edges()) == list(topo.external_edges())


def test_validate_path_accepts_figure1_witness():
    topo = build_figure1().topology
    topo.validate_path(
        ["Customer", Edge("Customer", "R3"), "R3", Edge("R3", "R2"), "R2", Edge("R2", "ISP2")]
    )


@pytest.mark.parametrize(
    "path",
    [
        [],
        ["R3", Edge("R2", "ISP2")],
        [Edge("R3", "R2"), "R3"],
        ["R3", Edge("R3", "R2"), "R1"],
        ["NOPE"],
    ],
)
def test_validate_path_rejects_non_paths(path):
    topo = build_figure1().topology
    with pytest.raises((ValueError, TypeError)):
        topo.validate_path(path)


def test_config_validate_flags_missing_router_config():
    topo = Topology()
    topo.add_router("R1")
    topo.add_router("R2")
    topo.add_peering("R1", "R2")
    config = NetworkConfig(topo)
    config.add_router_config(RouterConfig("R1", 65000))
    problems = config.validate()
    assert any("R2" in p for p in problems)


def test_config_validate_flags_asn_mismatch():
    topo = Topology()
    topo.add_router("R1")
    topo.add_external("E1")
    topo.add_peering("R1", "E1")
    config = NetworkConfig(topo)
    config.set_external_asn("E1", 100)
    rc = RouterConfig("R1", 65000)
    rc.add_neighbor(NeighborConfig("E1", 999))
    config.add_router_config(rc)
    assert any("remote-as" in p for p in config.validate())


def test_import_export_identity_without_route_maps():
    config = build_figure1()
    route = Route(prefix=Prefix.parse("10.0.0.0/8"))
    # R1 -> R2 iBGP session has no route maps: identity on both directions.
    assert config.import_route(Edge("R1", "R2"), route) == route
    assert config.export_route(Edge("R1", "R2"), route) == route


def test_export_prepends_as_on_ebgp_only():
    config = build_figure1()
    route = Route(prefix=Prefix.parse("20.0.0.0/8"))
    ebgp_out = config.export_route(Edge("R2", "ISP2"), route)
    assert ebgp_out.as_path == (65000,)
    ibgp_out = config.export_route(Edge("R2", "R1"), route)
    assert ibgp_out.as_path == ()


def test_import_applies_figure1_tagging():
    config = build_figure1()
    route = Route(prefix=Prefix.parse("10.0.0.0/8"))
    imported = config.import_route(Edge("ISP1", "R1"), route)
    assert Community(100, 1) in imported.communities


def test_export_filter_drops_tagged_route():
    config = build_figure1()
    tagged = Route(
        prefix=Prefix.parse("10.0.0.0/8"), communities=frozenset({Community(100, 1)})
    )
    assert config.export_route(Edge("R2", "ISP2"), tagged) is None
    clean = Route(prefix=Prefix.parse("10.0.0.0/8"))
    assert config.export_route(Edge("R2", "ISP2"), clean) is not None


def test_originate_defaults_empty():
    config = build_figure1()
    assert config.originate(Edge("R1", "R2")) == ()


def test_router_digest_changes_with_config():
    rc1 = RouterConfig("R1", 65000)
    rc1.add_neighbor(NeighborConfig("E1", 100))
    rc2 = RouterConfig("R1", 65000)
    rc2.add_neighbor(NeighborConfig("E1", 100, import_map=RouteMap.deny_all()))
    assert rc1.digest() != rc2.digest()
    rc3 = RouterConfig("R1", 65000)
    rc3.add_neighbor(NeighborConfig("E1", 100))
    assert rc1.digest() == rc3.digest()


def test_duplicate_neighbor_rejected():
    rc = RouterConfig("R1", 65000)
    rc.add_neighbor(NeighborConfig("E1", 100))
    with pytest.raises(ValueError):
        rc.add_neighbor(NeighborConfig("E1", 100))
