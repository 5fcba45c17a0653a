"""The §6.2 scaling topology: an iBGP full mesh with one eBGP peer each.

``build_full_mesh(n)`` creates routers R1..Rn in one AS, every pair joined
by an iBGP session (so the network has N^2-ish directed edges, as in the
paper), and each router Ri joined to one external neighbor Ei.  The
configuration uses only prefix and community filters, mirroring the paper's
"relatively simple" synthetic configurations:

* R1's import from E1 tags routes with the transit community 100:1;
* every other eBGP import filters long prefixes (a prefix filter);
* R2's export to E2 denies routes tagged 100:1;
* no filter anywhere strips 100:1.

The no-transit property to verify is that no route from E1 is ever sent on
the edge R2 -> E2 — the same shape as Figure 1.
"""

from __future__ import annotations

from repro.bgp.config import NeighborConfig, NetworkConfig, RouterConfig
from repro.bgp.policy import (
    AddCommunity,
    Disposition,
    RouteMap,
    RouteMapClause,
)
from repro.bgp.prefix import Prefix, PrefixRange
from repro.bgp.route import Community
from repro.bgp.topology import Edge, Topology
from repro.core.properties import LivenessProperty
from repro.lang.predicates import HasCommunity, PrefixIn


TRANSIT_COMMUNITY = Community(100, 1)
INTERNAL_AS = 65000
EXTERNAL_AS_BASE = 1000

_SHORT_PREFIXES = PrefixIn((PrefixRange(Prefix.parse("0.0.0.0/0"), 0, 24),))


def build_full_mesh(n: int) -> NetworkConfig:
    """Build the N-router full-mesh network of the scaling experiments."""
    if n < 2:
        raise ValueError("full mesh needs at least two routers")
    topo = Topology()
    routers = [f"R{i}" for i in range(1, n + 1)]
    externals = [f"E{i}" for i in range(1, n + 1)]
    for r in routers:
        topo.add_router(r)
    for e in externals:
        topo.add_external(e)
    for i, r in enumerate(routers):
        topo.add_peering(r, externals[i])
    for i in range(n):
        for j in range(i + 1, n):
            topo.add_peering(routers[i], routers[j])

    config = NetworkConfig(topo)
    for i, e in enumerate(externals):
        config.set_external_asn(e, EXTERNAL_AS_BASE + i + 1)

    # E1 import at R1: prefix filter + tag with the transit community.
    e1_in = RouteMap(
        "E1-IN",
        (
            RouteMapClause(
                10,
                matches=(_SHORT_PREFIXES,),
                actions=(AddCommunity(TRANSIT_COMMUNITY),),
            ),
        ),
    )
    # Other externals: prefix filter only.
    generic_in = RouteMap("EXT-IN", (RouteMapClause(10, matches=(_SHORT_PREFIXES,)),))
    # R2 -> E2 export: drop transit-tagged routes.
    e2_out = RouteMap(
        "E2-OUT",
        (
            RouteMapClause(
                10, Disposition.DENY, matches=(HasCommunity(TRANSIT_COMMUNITY),)
            ),
            RouteMapClause(20),
        ),
    )

    for i, name in enumerate(routers):
        rc = RouterConfig(name, INTERNAL_AS)
        external = externals[i]
        if i == 0:
            rc.add_neighbor(
                NeighborConfig(external, EXTERNAL_AS_BASE + 1, import_map=e1_in)
            )
        elif i == 1:
            rc.add_neighbor(
                NeighborConfig(
                    external,
                    EXTERNAL_AS_BASE + 2,
                    import_map=generic_in,
                    export_map=e2_out,
                )
            )
        else:
            rc.add_neighbor(
                NeighborConfig(external, EXTERNAL_AS_BASE + i + 1, import_map=generic_in)
            )
        for other in routers:
            if other != name:
                rc.add_neighbor(NeighborConfig(other, INTERNAL_AS))
        config.add_router_config(rc)

    assert not config.validate()
    return config


def full_mesh_single_router_edit(n: int, router: str | None = None) -> NetworkConfig:
    """The N-router mesh with one benign edit applied to one router.

    The edit — an extra bogon deny prepended to ``router``'s external
    import filter — is the §2/§7 single-router change scenario: it alters
    exactly one policy digest, so an incremental reverify (safety or
    liveness) must consult only that owner's check groups.  ``router``
    defaults to ``Rn``, which is *off* the liveness witness path
    (E2 → R2 → R3 for ``n`` >= 4), making the liveness invalidation the
    minimal case: no propagation checks, never the implication, just the
    owner's group inside each no-interference sub-proof.
    """
    config = build_full_mesh(n)
    router = router if router is not None else f"R{n}"
    external = "E" + router[1:]
    neighbor = config.routers[router].neighbors[external]
    bogon = RouteMapClause(
        1,
        Disposition.DENY,
        matches=(PrefixIn((PrefixRange.parse("192.168.0.0/16 le 32"),)),),
    )
    neighbor.import_map = RouteMap(
        f"{neighbor.import_map.name}-EDIT", (bogon,) + neighbor.import_map.clauses
    )
    return config


def full_mesh_external_asn_edit(n: int, asn: int = 64999) -> NetworkConfig:
    """The N-router mesh with one *network-level* edit: ``En``'s ASN changed.

    ``set_external_asn`` alone touches no router's configuration, so every
    per-router policy digest is unchanged — this is exactly the edit that a
    change detector keyed only on per-router digests cannot see, even
    though external ASNs feed the attribute universe and AS-path
    reasoning.  (The adjacent session keeps its configured ``remote-as``,
    as a stale real-world config would; ``validate()`` flags the mismatch
    but the symbolic pipeline reads only ``external_asns``.)
    """
    config = build_full_mesh(n)
    config.set_external_asn(f"E{n}", asn)
    return config


def full_mesh_liveness_property(n: int) -> LivenessProperty:
    """A passing §5 liveness property on the full mesh (needs ``n`` >= 3).

    A short-prefix route announced by E2 reaches the edge R3 -> E3 along
    E2 -> R2 -> R3.  Every filter on that path accepts short prefixes
    unchanged (R2's deny only guards its *export to E2*), and the
    no-interference predicate ``short => short`` is a tautology, so the
    whole pipeline — including the two full-network no-interference
    sub-proofs at R2 and R3 — verifies.  The sub-proofs generate checks on
    every mesh edge, which is what makes this the liveness analogue of the
    Figure 3d scaling sweep.
    """
    if n < 3:
        raise ValueError("the full-mesh liveness property needs at least R2 and R3")
    short = PrefixIn((PrefixRange(Prefix.parse("0.0.0.0/0"), 0, 24),))
    path = (Edge("E2", "R2"), "R2", Edge("R2", "R3"), "R3", Edge("R3", "E3"))
    return LivenessProperty(
        location=Edge("R3", "E3"),
        predicate=short,
        path=path,
        constraints=(short,) * len(path),
        name="short-prefix-reaches-e3",
    )
