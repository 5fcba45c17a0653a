"""Random internal topologies: scaling beyond the §6.2 full mesh.

The paper's synthetic experiments use a full iBGP mesh.  Real WANs are
sparser; this generator builds random connected internal graphs
(Erdős–Rényi, Barabási–Albert, or ring-with-chords) with the same
community-based no-transit scheme as :mod:`repro.workloads.fullmesh`, so
the ablation benchmarks can measure how topology *shape* (edge count at
fixed router count) drives Lightyear's cost — the paper's claim is that
cost tracks edges, not any global structure.

``networkx`` is imported lazily: it is only needed when generating these
workloads, not by the verifier.
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
from repro.bgp.topology import Topology
from repro.lang.predicates import HasCommunity, PrefixIn
from repro.workloads.fullmesh import (
    EXTERNAL_AS_BASE,
    INTERNAL_AS,
    TRANSIT_COMMUNITY,
)


_SHORT_PREFIXES = PrefixIn((PrefixRange(Prefix.parse("0.0.0.0/0"), 0, 24),))


def _internal_graph(n: int, model: str, seed: int):
    import networkx as nx

    if model == "gnp":
        # Expected degree ~6, retried until connected.
        p = min(1.0, 6.0 / max(n - 1, 1))
        for attempt in range(200):
            graph = nx.gnp_random_graph(n, p, seed=seed + attempt)
            if nx.is_connected(graph):
                return graph
        raise RuntimeError(f"could not draw a connected G(n={n}, p={p:.3f})")
    if model == "ba":
        m = min(3, max(1, n - 1))
        return nx.barabasi_albert_graph(n, m, seed=seed)
    if model == "ring":
        graph = nx.cycle_graph(n)
        rng = nx.utils.create_random_state(seed)
        for __ in range(n // 2):  # a few random chords
            u, v = rng.randint(0, n), rng.randint(0, n)
            if u != v:
                graph.add_edge(u, v)
        return graph
    raise ValueError(f"unknown topology model {model!r} (gnp, ba, ring)")


def build_random_network(
    n: int, model: str = "gnp", seed: int = 0
) -> NetworkConfig:
    """A random connected internal topology with the no-transit scheme.

    Router R1 peers with external E1 (tagged source), router R2 with E2
    (protected egress); every other router gets its own external neighbor
    with a plain prefix filter, as in the full-mesh generator.
    """
    if n < 2:
        raise ValueError("need at least two routers")
    graph = _internal_graph(n, model, seed)
    # The property endpoints must exist and be distinct; relabel to R1..Rn.
    routers = [f"R{i + 1}" for i in range(n)]
    externals = [f"E{i + 1}" for i in range(n)]

    topo = Topology()
    for r in routers:
        topo.add_router(r)
    for e in externals:
        topo.add_external(e)
    for i in range(n):
        topo.add_peering(routers[i], externals[i])
    for u, v in sorted(graph.edges()):
        topo.add_peering(routers[u], routers[v])

    config = NetworkConfig(topo)
    for i, e in enumerate(externals):
        config.set_external_asn(e, EXTERNAL_AS_BASE + i + 1)

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
    generic_in = RouteMap("EXT-IN", (RouteMapClause(10, matches=(_SHORT_PREFIXES,)),))
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
                NeighborConfig(
                    external, EXTERNAL_AS_BASE + i + 1, import_map=generic_in
                )
            )
        for peer in sorted(topo.successors(name)):
            if peer != external:
                rc.add_neighbor(NeighborConfig(peer, INTERNAL_AS))
        config.add_router_config(rc)

    assert not config.validate()
    return config
