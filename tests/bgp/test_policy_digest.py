"""Property tests for the canonical per-router policy digest.

The digest is the key of the incremental-reverification outcome cache and
of the transfer-output cache, so it must satisfy two directions:

* **stability** — it depends only on policy *content*: permuting neighbor
  insertion order, community-set construction order, or unrelated routers
  must not change it;
* **sensitivity** — a change to any field of a router or of one of its
  sessions must change it, and a change to any attribute of the network
  must change the configuration's digest map.

The last test closes the loop: digest equality ⇒ the incremental verifier
reruns nothing.
"""

from __future__ import annotations

import random

import pytest

from repro.bgp.config import NeighborConfig, NetworkConfig, RouterConfig
from repro.bgp.policy import (
    AddCommunity,
    ClearCommunities,
    DeleteCommunity,
    Disposition,
    PrependAsPath,
    RouteMap,
    RouteMapClause,
    SetLocalPref,
    SetMed,
    SetNextHop,
    SetOrigin,
    canonical_policy,
    route_map_digest,
)
from repro.bgp.prefix import Prefix, PrefixRange
from repro.bgp.route import Community, Route
from repro.core.incremental import config_digests
from repro.lang.predicates import (
    AllOf,
    AnyOf,
    AsPathHas,
    AsPathLenIn,
    HasCommunity,
    LocalPrefIn,
    MedIn,
    NextHopIn,
    Not,
    OriginIs,
    PrefixIn,
)
from repro.record import fields, replace

from tests import draws

C1, C2, C3 = Community(100, 1), Community(7, 7), Community(9, 9)


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


def _digest(router: RouterConfig) -> str:
    return router.digest_leaves().digest()


IMPORT_MAP = RouteMap(
    "IN",
    (
        RouteMapClause(10, Disposition.DENY, matches=(HasCommunity(C2),)),
        RouteMapClause(20, actions=(AddCommunity(C1), SetLocalPref(200))),
    ),
)


# ---------------------------------------------------------------------------
# Stability
# ---------------------------------------------------------------------------


def test_digest_ignores_neighbor_insertion_order():
    rng = random.Random(7)
    reference = _digest(_router(import_map=IMPORT_MAP))
    for __ in range(6):
        order = ["E1", "P1", "P2"]
        rng.shuffle(order)
        assert _digest(_router(neighbor_order=order, import_map=IMPORT_MAP)) == reference


def test_digest_ignores_community_set_construction_order():
    rng = random.Random(8)
    reference = _digest(_router())
    for __ in range(6):
        order = [C1, C2, C3]
        rng.shuffle(order)
        assert _digest(_router(community_order=order)) == reference


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

    base = config_digests(build(None))
    edited = config_digests(build(IMPORT_MAP))
    assert base["R1"] == edited["R1"]
    assert base["R2"] != edited["R2"]


@pytest.mark.parametrize("seed", range(100))
def test_digest_stable_across_rebuilds(seed):
    """A structurally rebuilt router digests identically (any route map)."""
    route_map = draws.route_map(random.Random(seed))
    rebuilt = RouteMap(route_map.name, tuple(route_map.clauses))
    assert route_map_digest(route_map) == route_map_digest(rebuilt)
    a = _digest(_router(import_map=route_map))
    b = _digest(_router(neighbor_order=("P2", "E1", "P1"), import_map=rebuilt))
    assert a == b


# ---------------------------------------------------------------------------
# Sensitivity
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(100))
def test_digest_changes_when_a_clause_is_appended(seed):
    route_map = draws.route_map(random.Random(seed))
    extended = RouteMap(
        route_map.name,
        route_map.clauses
        + (RouteMapClause(990, actions=(SetLocalPref(7777),)),),
    )
    assert canonical_policy(route_map) != canonical_policy(extended)
    assert route_map_digest(route_map) != route_map_digest(extended)
    assert _digest(_router(import_map=route_map)) != _digest(_router(import_map=extended))


# One edit per field of every record a router digest reads (the router,
# its sessions, their originated routes, route maps and clauses) and per
# attribute of a ``NetworkConfig``.  A field added without a row here fails
# ``test_every_digested_field_has_an_edit``, so no configuration input
# escapes the digest map unseen: ``external_asns`` once did, and
# ``canonical_policy`` lists a ``Route``'s fields by hand.


def _on_e1(edit):
    """``edit`` applied to a router's E1 session."""

    def apply(router):
        sessions = (edit(n) if n.peer == "E1" else n for n in router.neighbors.values())
        return replace(router, neighbors={n.peer: n for n in sessions})

    return apply


def _on_origin(edit):
    return _on_e1(lambda n: replace(n, originated=tuple(map(edit, n.originated))))


def _on_import_map(edit):
    return _on_e1(lambda n: replace(n, import_map=edit(n.import_map)))


def _on_clause(index, edit):
    """``edit`` applied to clause ``index`` of the E1 import map."""

    def apply(route_map):
        clauses = list(route_map.clauses)
        clauses[index] = edit(clauses[index])
        return replace(route_map, clauses=tuple(clauses))

    return _on_import_map(apply)


ROUTER_EDITS = {
    "RouterConfig.name": lambda r: replace(r, name="R2"),
    "RouterConfig.asn": lambda r: replace(r, asn=65001),
    "RouterConfig.neighbors": lambda r: replace(
        r, neighbors={p: n for p, n in r.neighbors.items() if p != "P2"}
    ),
    "RouterConfig.rr_clients": lambda r: replace(r, rr_clients=frozenset({"P1"})),
    "NeighborConfig.peer": _on_e1(lambda n: replace(n, peer="E2")),
    "NeighborConfig.remote_asn": _on_e1(lambda n: replace(n, remote_asn=65101)),
    "NeighborConfig.import_map": _on_e1(lambda n: replace(n, import_map=None)),
    "NeighborConfig.export_map": _on_e1(lambda n: replace(n, export_map=IMPORT_MAP)),
    "NeighborConfig.originated": _on_e1(lambda n: replace(n, originated=())),
    "Route.prefix": _on_origin(lambda o: replace(o, prefix=Prefix.parse("10.2.0.0/16"))),
    "Route.as_path": _on_origin(lambda o: replace(o, as_path=(65100,))),
    "Route.next_hop": _on_origin(lambda o: replace(o, next_hop=1)),
    "Route.local_pref": _on_origin(lambda o: replace(o, local_pref=200)),
    "Route.med": _on_origin(lambda o: replace(o, med=5)),
    "Route.communities": _on_origin(lambda o: replace(o, communities=frozenset({C1}))),
    "Route.origin": _on_origin(lambda o: replace(o, origin=2)),
    "Route.ghost": _on_origin(lambda o: replace(o, ghost={"x": True})),
    "RouteMap.name": _on_import_map(lambda m: replace(m, name="IN-V2")),
    "RouteMap.clauses": _on_import_map(lambda m: replace(m, clauses=m.clauses[1:])),
    "RouteMapClause.seq": _on_clause(0, lambda c: replace(c, seq=5)),
    "RouteMapClause.disposition": _on_clause(0, lambda c: replace(c, disposition=Disposition.PERMIT)),
    "RouteMapClause.matches": _on_clause(0, lambda c: replace(c, matches=(HasCommunity(C3),))),
    "RouteMapClause.actions": _on_clause(1, lambda c: replace(c, actions=c.actions[:1])),
}


def _add_external(config):
    config.topology.add_external("ISP9")
    config.topology.add_peering("ISP9", "R1")


NETWORK_EDITS = {
    "NetworkConfig.topology": _add_external,
    "NetworkConfig.routers": lambda config: setattr(config.routers["R3"], "asn", 65001),
    "NetworkConfig.external_asns": lambda config: config.set_external_asn("ISP1", 101),
}


def test_every_digested_field_has_an_edit():
    from repro.workloads.figure1 import build_figure1

    digested = (RouterConfig, NeighborConfig, Route, RouteMap, RouteMapClause)
    assert set(ROUTER_EDITS) == {f"{cls.__name__}.{name}" for cls in digested for name in fields(cls)}
    assert set(NETWORK_EDITS) == {f"NetworkConfig.{name}" for name in vars(build_figure1())}


@pytest.mark.parametrize("edit", ROUTER_EDITS.values(), ids=ROUTER_EDITS)
def test_digest_changes_on_every_policy_dimension(edit):
    reference = _router(import_map=IMPORT_MAP)
    edited = edit(reference)
    assert _digest(edited) != _digest(reference)


def test_digest_changes_when_a_map_moves_or_a_constant_changes():
    reference = _digest(_router(import_map=IMPORT_MAP))
    # An action constant deep inside a clause, and the same map moved from
    # import to export.
    tweaked = RouteMap(
        "IN", (IMPORT_MAP.clauses[0], RouteMapClause(20, actions=(AddCommunity(C1), SetLocalPref(201))))
    )
    assert _digest(_router(import_map=tweaked)) != reference
    assert _digest(_router(export_map=IMPORT_MAP)) != reference


@pytest.mark.parametrize("edit", NETWORK_EDITS.values(), ids=NETWORK_EDITS)
def test_config_digests_change_on_every_network_attribute(edit):
    from repro.workloads.figure1 import build_figure1

    before = config_digests(build_figure1())
    config = build_figure1()
    edit(config)
    assert config_digests(config) != before


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
        isp1_ghost,
        no_transit_invariants,
        no_transit_property,
        reverify,
    )

    config = build_figure1()
    ghost = isp1_ghost(config)
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
    assert config_digests(shuffled) == config_digests(config)

    report = reverify(workspace, shuffled)
    assert (report.rerun_checks, report.reused_checks) == (0, report.num_checks)
    assert report.passed


# ---------------------------------------------------------------------------
# Pinned values: the on-disk cache key
# ---------------------------------------------------------------------------
#
# Every saved ``--cache`` is matched against ``RouterLeaves.digest``, which
# hashes the repr of ``canonical_policy``'s output.  A change to that output
# (a renamed field, a reordered tuple, a new container rule) silently turns
# every cache on disk stale, so it must show up here first.

EVERY_MATCH_AND_ACTION = RouteMap(
    "PINNED",
    (
        RouteMapClause(
            10,
            Disposition.DENY,
            matches=(
                Not(HasCommunity(C2)),
                AnyOf((AsPathHas(666), OriginIs(2))),
            ),
        ),
        RouteMapClause(
            20,
            matches=(
                PrefixIn((PrefixRange(Prefix.parse("10.0.0.0/8"), 16, 24),)),
                MedIn(0, 50),
                LocalPrefIn(100, 200),
                AllOf((AsPathLenIn(1, 4),)),
                NextHopIn((Prefix.parse("192.0.2.0/24"),)),
            ),
            actions=(
                SetLocalPref(300),
                SetMed(5),
                SetNextHop(0x0A000001),
                AddCommunity(C1),
                DeleteCommunity(C3),
                PrependAsPath(65000, 2),
                SetOrigin(1),
            ),
        ),
        RouteMapClause(30, actions=(ClearCommunities(),)),
    ),
)


def test_route_map_digest_is_pinned():
    assert route_map_digest(EVERY_MATCH_AND_ACTION) == (
        "c6160014833d23676c85ef47844c1d68d8f604b7526e16b607fb106aa587c72e"
    )


def test_router_digest_is_pinned():
    router = _router(
        import_map=EVERY_MATCH_AND_ACTION,
        export_map=IMPORT_MAP,
        rr_clients=frozenset({"P2", "P1"}),
    )
    assert _digest(router) == (
        "16724eb4d8e03cbc946c3397a86dbb276c253566ff7c6ab0ff9e7f394c3a77b3"
    )
