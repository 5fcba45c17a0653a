"""The running example network of Figure 1.

Three internal routers in AS 65000 (iBGP full mesh).  R1 peers with ISP1,
R2 with ISP2, R3 with Customer.  The configuration implements the standard
community-based no-transit scheme described in §2:

* R1's import from ISP1 tags every route with community 100:1;
* R2's export to ISP2 drops routes tagged 100:1;
* R3's import from Customer strips all communities (so customer routes can
  never carry 100:1) and accepts only customer prefixes;
* no other filter touches community 100:1.

Additionally, both ISP imports deny the customer's own prefixes.  The paper
does not spell this out, but the Table 3 liveness argument depends on it:
the no-interference constraint at R2 ("routes with a customer prefix never
carry 100:1") is only *inductive* if a customer-prefix route can never be
accepted from ISP1 — where it would be tagged 100:1 and could then win the
best-route decision at R2 yet be filtered toward ISP2.  Denying customer
prefixes at the ISP edges (standard customer-protection practice) makes the
constraint hold.

``build_figure1(buggy=...)`` can plant the two §2 bugs: R1 forgetting to tag
some routes, and R3 forgetting to strip communities.
"""

from __future__ import annotations

from repro.bgp.config import NeighborConfig, NetworkConfig, RouterConfig
from repro.bgp.policy import (
    AddCommunity,
    ClearCommunities,
    Disposition,
    RouteMap,
    RouteMapClause,
)
from repro.bgp.prefix import Prefix, PrefixRange
from repro.bgp.route import Community
from repro.bgp.topology import Topology
from repro.lang.predicates import HasCommunity, MedIn, PrefixIn


TRANSIT_COMMUNITY = Community(100, 1)
CUSTOMER_PREFIX = Prefix.parse("20.0.0.0/8")
INTERNAL_AS = 65000
ISP1_AS = 100
ISP2_AS = 200
CUSTOMER_AS = 300


def build_figure1(
    buggy_r1_tagging: bool = False,
    buggy_r3_strip: bool = False,
) -> NetworkConfig:
    """Build the Figure 1 network.

    ``buggy_r1_tagging`` makes R1 skip the 100:1 tag for low-MED routes
    (the §2.1 example bug).  ``buggy_r3_strip`` makes R3 keep incoming
    communities, breaking the liveness property's no-interference argument.
    """
    topo = Topology()
    for router in ("R1", "R2", "R3"):
        topo.add_router(router)
    for external in ("ISP1", "ISP2", "Customer"):
        topo.add_external(external)
    topo.add_peering("R1", "ISP1")
    topo.add_peering("R2", "ISP2")
    topo.add_peering("R3", "Customer")
    topo.add_peering("R1", "R2")
    topo.add_peering("R1", "R3")
    topo.add_peering("R2", "R3")

    config = NetworkConfig(topo)
    config.set_external_asn("ISP1", ISP1_AS)
    config.set_external_asn("ISP2", ISP2_AS)
    config.set_external_asn("Customer", CUSTOMER_AS)

    deny_customer_space = RouteMapClause(
        1,
        Disposition.DENY,
        matches=(PrefixIn((PrefixRange(CUSTOMER_PREFIX, 8, 32),)),),
    )

    # R1: tag everything from ISP1 with 100:1 (customer space is denied).
    if buggy_r1_tagging:
        isp1_in = RouteMap(
            "ISP1-IN",
            (
                deny_customer_space,
                # BUG: routes with MED <= 10 slip through untagged.
                RouteMapClause(5, matches=(MedIn(0, 10),)),
                RouteMapClause(10, actions=(AddCommunity(TRANSIT_COMMUNITY),)),
            ),
        )
    else:
        isp1_in = RouteMap(
            "ISP1-IN",
            (
                deny_customer_space,
                RouteMapClause(10, actions=(AddCommunity(TRANSIT_COMMUNITY),)),
            ),
        )

    # R2: deny customer space from ISP2 (no tagging needed on this side).
    isp2_in = RouteMap("ISP2-IN", (deny_customer_space, RouteMapClause(10)))

    # R2: never export 100:1-tagged routes to ISP2.
    isp2_out = RouteMap(
        "ISP2-OUT",
        (
            RouteMapClause(
                10, Disposition.DENY, matches=(HasCommunity(TRANSIT_COMMUNITY),)
            ),
            RouteMapClause(20),
        ),
    )

    # R3: accept only customer prefixes; strip communities on the way in.
    customer_match = PrefixIn((PrefixRange(CUSTOMER_PREFIX, 8, 24),))
    if buggy_r3_strip:
        cust_in = RouteMap("CUST-IN", (RouteMapClause(10, matches=(customer_match,)),))
    else:
        cust_in = RouteMap(
            "CUST-IN",
            (
                RouteMapClause(
                    10, matches=(customer_match,), actions=(ClearCommunities(),)
                ),
            ),
        )

    r1 = RouterConfig("R1", INTERNAL_AS)
    r1.add_neighbor(NeighborConfig("ISP1", ISP1_AS, import_map=isp1_in))
    r1.add_neighbor(NeighborConfig("R2", INTERNAL_AS))
    r1.add_neighbor(NeighborConfig("R3", INTERNAL_AS))

    r2 = RouterConfig("R2", INTERNAL_AS)
    r2.add_neighbor(
        NeighborConfig("ISP2", ISP2_AS, import_map=isp2_in, export_map=isp2_out)
    )
    r2.add_neighbor(NeighborConfig("R1", INTERNAL_AS))
    r2.add_neighbor(NeighborConfig("R3", INTERNAL_AS))

    r3 = RouterConfig("R3", INTERNAL_AS)
    r3.add_neighbor(NeighborConfig("Customer", CUSTOMER_AS, import_map=cust_in))
    r3.add_neighbor(NeighborConfig("R1", INTERNAL_AS))
    r3.add_neighbor(NeighborConfig("R2", INTERNAL_AS))

    for rc in (r1, r2, r3):
        config.add_router_config(rc)
    assert not config.validate()
    return config
