"""A synthetic multi-region cloud WAN standing in for the §6.1 network.

The paper's production network is proprietary; this generator builds a
network with the same *structure* so the Table 4 experiments exercise the
same verification code paths:

* dozens of **regions**, each with a set of WAN routers in one AS,
  iBGP-meshed within the region and chained to neighboring regions;
* **Internet edge routers** (the first ``edge_per_region`` routers of each
  region) peering with external ISPs/customers, with peering import
  policies that filter bogons and other "bad" routes;
* **data center** externals attached to each region, whose routes for
  *reused* private prefixes are tagged with a region-specific community;
* region isolation: inter-region imports reject routes carrying another
  region's community, so reused prefixes never escape their region.

Bug injection reproduces the §6.1 findings: an edge router with an ad-hoc
policy that skips a filter, and a router tagging with a community missing
from the region metadata.
"""

from __future__ import annotations


from repro.bgp.config import NeighborConfig, NetworkConfig, RouterConfig
from repro.bgp.policy import (
    AddCommunity,
    ClearCommunities,
    Disposition,
    RouteMap,
    RouteMapClause,
    SetLocalPref,
)
from repro.bgp.prefix import Prefix, PrefixRange
from repro.bgp.route import Community, Route
from repro.bgp.topology import Topology
from repro.lang.predicates import AsPathHas, HasCommunity, PrefixIn
from repro.record import Record


INTERNAL_AS = 65000
PEER_AS_BASE = 3000
DC_AS_BASE = 64512
BAD_TRANSIT_AS = 666  # an ASN the peering policy must never accept

# Prefixes that must never be accepted from Internet peers.  The first
# entry is the default route itself (length exactly 0).
BOGON_PREFIXES: tuple[PrefixRange, ...] = (
    PrefixRange(Prefix.parse("0.0.0.0/0"), 0, 0),
) + tuple(
    PrefixRange.parse(text)
    for text in (
        "0.0.0.0/8 le 32",
        "10.0.0.0/8 le 32",
        "127.0.0.0/8 le 32",
        "169.254.0.0/16 le 32",
        "172.16.0.0/12 le 32",
        "192.168.0.0/16 le 32",
        "224.0.0.0/4 le 32",
        "240.0.0.0/4 le 32",
    )
)

# The reused private pool: every region announces subnets of this space.
REUSED_POOL = Prefix.parse("172.16.0.0/12")
REUSED_RANGE = PrefixRange(REUSED_POOL, 12, 32)

# Public space the WAN itself advertises.
OWN_PREFIX = Prefix.parse("8.8.0.0/16")


def region_community(region: int) -> Community:
    """The community tagging reused-IP routes of a region."""
    return Community(INTERNAL_AS & 0xFFFF, 1000 + region)


class WanNetwork(Record):
    """The generated WAN plus the metadata the §6.1 invariants need."""

    config: NetworkConfig
    regions: int
    routers_by_region: dict[int, list[str]]
    edge_routers: list[str]
    peers: dict[str, str]  # peer external -> attached edge router
    datacenters: dict[str, tuple[int, str]]  # dc external -> (region, router)
    # The paper's "metadata file" of documented region communities.  A bug
    # mode can make a router use a community missing from this map.
    documented_communities: dict[int, Community] = {}

    def region_of(self, router: str) -> int:
        for region, members in self.routers_by_region.items():
            if router in members:
                return region
        raise KeyError(router)

    def dc_edge_into(self, region: int) -> tuple[str, str]:
        """Some (dc, router) attachment in the region."""
        for dc, (r, router) in sorted(self.datacenters.items()):
            if r == region:
                return dc, router
        raise KeyError(f"region {region} has no data center")

    def reused_route(self, med: int = 0) -> Route:
        """A representative data-center route for a reused prefix."""
        return Route(prefix=Prefix.parse("172.16.1.0/24"), med=med)


def _peering_import_map(strict: bool = True, adhoc_aspath: bool = False) -> RouteMap:
    """The Internet-edge import policy: reject "bad" routes from peers.

    ``strict=False`` models the §6.1 bug where one edge router's ad-hoc
    policy forgets the bogon filter; ``adhoc_aspath=True`` models the
    inconsistent AS-path filtering found among "hundreds of similarly
    defined peering sessions".
    """
    clauses: list[RouteMapClause] = []
    seq = 10
    if strict:
        clauses.append(
            RouteMapClause(
                seq, Disposition.DENY, matches=(PrefixIn(BOGON_PREFIXES),)
            )
        )
        seq += 10
    if not adhoc_aspath:
        clauses.append(
            RouteMapClause(
                seq, Disposition.DENY, matches=(AsPathHas(BAD_TRANSIT_AS),)
            )
        )
        seq += 10
    # Accept the rest: strip any communities the peer set and normalise the
    # local preference (eBGP neighbors cannot dictate it).
    clauses.append(
        RouteMapClause(
            seq,
            matches=(PrefixIn((PrefixRange(Prefix.parse("0.0.0.0/0"), 0, 24),)),),
            actions=(ClearCommunities(), SetLocalPref(100)),
        )
    )
    return RouteMap("PEER-IN", tuple(clauses))


def _dc_import_map(region: int, wrong_community: Community | None = None) -> RouteMap:
    """Data-center import: tag reused prefixes with the region community.

    All communities are cleared first and exactly one regional community is
    added — the subtlety Table 4b calls out.  ``wrong_community`` injects
    the §6.1 bug of tagging with an undocumented community.
    """
    community = wrong_community or region_community(region)
    return RouteMap(
        f"DC-IN-{region}",
        (
            RouteMapClause(
                10,
                matches=(PrefixIn((REUSED_RANGE,)),),
                actions=(ClearCommunities(), AddCommunity(community)),
            ),
            RouteMapClause(20, actions=(ClearCommunities(),)),
        ),
    )


def _interregion_import_map(my_region: int, regions: int) -> RouteMap:
    """Import from a router in another region: reject reused-IP routes.

    Any route carrying some region's community is rejected (reused routes
    must not cross regions); other routes pass.
    """
    clauses: list[RouteMapClause] = []
    seq = 10
    for region in range(regions):
        clauses.append(
            RouteMapClause(
                seq,
                Disposition.DENY,
                matches=(HasCommunity(region_community(region)),),
            )
        )
        seq += 10
    clauses.append(RouteMapClause(seq))
    return RouteMap(f"XREGION-IN-{my_region}", tuple(clauses))


def build_wan(
    regions: int = 4,
    routers_per_region: int = 4,
    edge_per_region: int = 1,
    peers_per_edge: int = 2,
    dcs_per_region: int = 1,
    buggy_edge_router: str | None = None,
    adhoc_aspath_router: str | None = None,
    wrong_community_region: int | None = None,
    route_reflectors: bool = False,
) -> WanNetwork:
    """Generate the WAN.

    Bug knobs:

    * ``buggy_edge_router`` — that router's peer imports skip the bogon
      filter (violates Table 4a);
    * ``adhoc_aspath_router`` — that router's peer imports skip the AS-path
      filter (one of the 11 peering-policy findings);
    * ``wrong_community_region`` — that region's DC import tags with a
      community absent from the documented metadata (the Table 4b finding).

    With ``route_reflectors=True`` each region is an iBGP star: router 0 is
    the region's reflector and the other routers its clients (instead of a
    full mesh) — the realistic large-region design.
    """
    topo = Topology()
    routers_by_region: dict[int, list[str]] = {}
    for region in range(regions):
        members = [f"W{region}-{i}" for i in range(routers_per_region)]
        routers_by_region[region] = members
        for router in members:
            topo.add_router(router)

    # Intra-region iBGP: full mesh, or a star at the route reflector.
    for members in routers_by_region.values():
        if route_reflectors:
            for client in members[1:]:
                topo.add_peering(members[0], client)
        else:
            for i in range(len(members)):
                for j in range(i + 1, len(members)):
                    topo.add_peering(members[i], members[j])

    # Inter-region backbone: router i of region r peers with router i of
    # region r+1 (a chain of regions).
    for region in range(regions - 1):
        here = routers_by_region[region]
        there = routers_by_region[region + 1]
        for i in range(min(len(here), len(there))):
            topo.add_peering(here[i], there[i])

    # External peers on edge routers; data centers on the last router.
    edge_routers: list[str] = []
    peers: dict[str, str] = {}
    datacenters: dict[str, tuple[int, str]] = {}
    peer_asn: dict[str, int] = {}
    dc_asn: dict[str, int] = {}
    peer_counter = 0
    for region in range(regions):
        members = routers_by_region[region]
        for router in members[:edge_per_region]:
            edge_routers.append(router)
            for p in range(peers_per_edge):
                peer = f"Peer-{router}-{p}"
                topo.add_external(peer)
                topo.add_peering(router, peer)
                peers[peer] = router
                peer_asn[peer] = PEER_AS_BASE + peer_counter
                peer_counter += 1
        for d in range(dcs_per_region):
            dc = f"DC{region}-{d}"
            attach = members[-1 - (d % len(members))]
            topo.add_external(dc)
            topo.add_peering(attach, dc)
            datacenters[dc] = (region, attach)
            dc_asn[dc] = DC_AS_BASE + region * 8 + d

    config = NetworkConfig(topo)
    for peer, asn in peer_asn.items():
        config.set_external_asn(peer, asn)
    for dc, asn in dc_asn.items():
        config.set_external_asn(dc, asn)

    documented = {region: region_community(region) for region in range(regions)}

    for region in range(regions):
        members = routers_by_region[region]
        xregion_in = _interregion_import_map(region, regions)
        for router in members:
            clients = (
                frozenset(members[1:])
                if route_reflectors and router == members[0]
                else frozenset()
            )
            rc = RouterConfig(router, INTERNAL_AS, rr_clients=clients)
            for peer_name in sorted(topo.successors(router)):
                if peer_name in peer_asn:
                    strict = router != buggy_edge_router
                    adhoc = router == adhoc_aspath_router
                    rc.add_neighbor(
                        NeighborConfig(
                            peer_name,
                            peer_asn[peer_name],
                            import_map=_peering_import_map(strict, adhoc),
                            export_map=_peer_export_map(),
                        )
                    )
                elif peer_name in dc_asn:
                    wrong = (
                        Community(INTERNAL_AS & 0xFFFF, 4999)
                        if wrong_community_region == region
                        else None
                    )
                    rc.add_neighbor(
                        NeighborConfig(
                            peer_name,
                            dc_asn[peer_name],
                            import_map=_dc_import_map(region, wrong),
                        )
                    )
                else:
                    # Internal session: same-region mesh or inter-region link.
                    other_region = _region_of(routers_by_region, peer_name)
                    if other_region == region:
                        rc.add_neighbor(NeighborConfig(peer_name, INTERNAL_AS))
                    else:
                        rc.add_neighbor(
                            NeighborConfig(
                                peer_name, INTERNAL_AS, import_map=xregion_in
                            )
                        )
            config.add_router_config(rc)

    assert not config.validate()
    return WanNetwork(
        config=config,
        regions=regions,
        routers_by_region=routers_by_region,
        edge_routers=edge_routers,
        peers=peers,
        datacenters=datacenters,
        documented_communities=documented,
    )


def _peer_export_map() -> RouteMap:
    """Only advertise the WAN's own public space to Internet peers."""
    return RouteMap(
        "PEER-OUT",
        (
            RouteMapClause(
                10,
                matches=(PrefixIn((PrefixRange(OWN_PREFIX, 16, 24),)),),
            ),
        ),
    )


def _region_of(routers_by_region: dict[int, list[str]], router: str) -> int:
    for region, members in routers_by_region.items():
        if router in members:
            return region
    raise KeyError(router)
