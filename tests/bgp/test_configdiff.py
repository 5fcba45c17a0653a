"""Tests for structural configuration diffing."""

from __future__ import annotations

from repro.bgp.config import NeighborConfig
from repro.bgp.configdiff import diff_configs
from repro.bgp.policy import RouteMap
from repro.bgp.prefix import Prefix
from repro.bgp.route import Route
from repro.workloads.figure1 import build_figure1


def test_identical_configs_diff_empty():
    diff = diff_configs(build_figure1(), build_figure1())
    assert diff.is_empty
    assert diff.summary() == "no changes"


def test_route_map_change_detected_and_named():
    old = build_figure1()
    new = build_figure1()
    new.routers["R2"].neighbors["R1"].import_map = RouteMap.deny_all()
    diff = diff_configs(old, new)
    assert diff.changed_routers == ["R2"]
    assert not diff.topology_changed
    assert any("import route-map changed" in c for c in diff.details["R2"])
    assert "changed: R2" in diff.summary()


def test_originated_route_change_detected():
    old = build_figure1()
    new = build_figure1()
    new.routers["R1"].neighbors["ISP1"].originated = (
        Route(prefix=Prefix.parse("8.8.0.0/16")),
    )
    diff = diff_configs(old, new)
    assert diff.changed_routers == ["R1"]
    assert any("originated" in c for c in diff.details["R1"])


def test_session_addition_detected():
    old = build_figure1()
    new = build_figure1()
    new.topology.add_external("ISP3")
    new.set_external_asn("ISP3", 400)
    new.topology.add_peering("R1", "ISP3")
    new.routers["R1"].add_neighbor(NeighborConfig("ISP3", 400))
    diff = diff_configs(old, new)
    assert diff.topology_changed
    assert diff.changed_routers == ["R1"]
    assert any("session to ISP3 added" in c for c in diff.details["R1"])


def test_remote_asn_change_detected():
    old = build_figure1()
    new = build_figure1()
    new.routers["R3"].neighbors["Customer"].remote_asn = 999
    diff = diff_configs(old, new)
    assert diff.changed_routers == ["R3"]
    assert any("remote-as 300 -> 999" in c for c in diff.details["R3"])


def test_diff_agrees_with_incremental_verifier_ownership():
    # The routers the diff flags are exactly the ones whose checks the
    # incremental verifier re-runs.
    from repro.core.workspace import Workspace

    from tests.core.conftest import (
        isp1_ghost,
        no_transit_invariants,
        no_transit_property,
        reverify,
    )

    old = build_figure1()
    ghost = isp1_ghost(old)
    workspace = Workspace(old, ghosts=(ghost,))
    workspace.verify(no_transit_property(), no_transit_invariants(old))

    new = build_figure1()
    new.routers["R2"].neighbors["R1"].import_map = RouteMap.permit_all()
    diff = diff_configs(old, new)
    assert diff.changed_routers == ["R2"]

    result = reverify(workspace, new)
    # R2 owns imports on 3 in-edges and exports on 3 out-edges.
    assert result.rerun_checks == 6
