"""Network configuration: per-router BGP sessions, route maps, origination.

``NetworkConfig`` is the concrete realisation of the paper's §3.1 policy
triple: it derives the functions ``Import(edge, route)``,
``Export(edge, route)`` and ``Originate(edge)`` from per-router
configuration.  Both the simulator and the verifier consume this object; the
verifier additionally lifts the same route maps to symbolic transfer
functions.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import NamedTuple

from repro.bgp.policy import RouteMap, canonical_policy, route_map_digest
from repro.bgp.route import Route
from repro.bgp.topology import Edge, Topology


@dataclass
class NeighborConfig:
    """One BGP session as seen from the owning router."""

    peer: str
    remote_asn: int
    import_map: RouteMap | None = None
    export_map: RouteMap | None = None
    originated: tuple[Route, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.originated, tuple):
            self.originated = tuple(self.originated)

    def policy_fingerprint(self) -> tuple:
        """Everything this session contributes to policy, by reference:
        ``(peer, remote_asn, import_map, export_map, originated)``.

        Every part is immutable (the route maps and routes are frozen), so
        the tuple still describes the session after the session object is
        edited in place; a router digest canonicalises it.
        """
        return (
            self.peer,
            self.remote_asn,
            self.import_map,
            self.export_map,
            self.originated,
        )


def _router_digest(
    name: str, asn: int, rr_clients: frozenset[str], sessions: tuple[tuple, ...]
) -> str:
    """The SHA-256 of a router's canonical policy; ``sessions`` holds each
    session's ``(peer, remote_asn, import digest, export digest, canonical
    originated routes)`` in peer order.

    Route maps enter as their memoised content digest rather than their
    full canonical tree, so the per-map canonicalisation amortises across
    routers sharing one map by value.
    """
    canon = (name, asn, tuple(sorted(rr_clients)), sessions)
    return hashlib.sha256(repr(canon).encode()).hexdigest()


class RouterLeaves(NamedTuple):
    """Everything :meth:`RouterConfig.digest` reads, by reference.

    Taking it copies no route map or route, only references to the frozen
    ones, so it is cheap to keep for every router of a configuration; the
    SHA-256 is computed by :meth:`digest` when someone asks.
    ``session_columns`` holds every neighbor's
    :meth:`NeighborConfig.policy_fingerprint` in peer order, transposed:
    one tuple per fingerprint field, not one per session.  A 100-router
    full mesh then keeps 500 tuples instead of 10 000, about 0.6 MB less
    peak memory for a ``verify``.
    """

    name: str
    asn: int
    rr_clients: frozenset[str]
    session_columns: tuple[tuple, ...]

    def digest(self) -> str:
        """:meth:`RouterConfig.digest` of the router as these leaves were
        taken from it."""
        return _router_digest(
            self.name,
            self.asn,
            self.rr_clients,
            tuple(
                (
                    peer,
                    remote_asn,
                    route_map_digest(import_map),
                    route_map_digest(export_map),
                    tuple(canonical_policy(route) for route in originated),
                )
                for peer, remote_asn, import_map, export_map, originated in zip(
                    *self.session_columns
                )
            ),
        )


@dataclass
class RouterConfig:
    """A router's BGP configuration: its ASN, sessions, and RR clients.

    ``rr_clients`` names the iBGP neighbors this router acts as a route
    reflector for; an empty set means the router is an ordinary iBGP
    speaker subject to the full-mesh rule.
    """

    name: str
    asn: int
    neighbors: dict[str, NeighborConfig] = field(default_factory=dict)
    rr_clients: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        if not isinstance(self.rr_clients, frozenset):
            self.rr_clients = frozenset(self.rr_clients)

    def add_neighbor(self, neighbor: NeighborConfig) -> None:
        if neighbor.peer in self.neighbors:
            raise ValueError(f"{self.name}: duplicate neighbor {neighbor.peer!r}")
        self.neighbors[neighbor.peer] = neighbor

    def digest_leaves(self) -> RouterLeaves:
        """What :meth:`digest` reads, as of now, by reference."""
        neighbors = self.neighbors
        return RouterLeaves(
            self.name,
            self.asn,
            self.rr_clients,
            tuple(zip(*(neighbors[peer].policy_fingerprint() for peer in sorted(neighbors)))),
        )

    def digest(self) -> str:
        """A canonical fingerprint of this router's policy.

        Two configurations that differ only in construction order —
        neighbor insertion order, community-set insertion order, ghost
        mapping order — digest identically; any change to the router's
        route maps, originations, sessions, ASN, or reflector clients
        produces a different digest.  Incremental re-verification and the
        on-disk cache identity key on this.  It canonicalises the live
        sessions in one pass, as :meth:`RouterLeaves.digest` does their
        fingerprints (the same digest, pinned by the tests).
        """
        return _router_digest(
            self.name,
            self.asn,
            self.rr_clients,
            tuple(
                (
                    peer,
                    n.remote_asn,
                    route_map_digest(n.import_map),
                    route_map_digest(n.export_map),
                    tuple(canonical_policy(route) for route in n.originated),
                )
                for peer, n in sorted(self.neighbors.items())
            ),
        )

    def __getstate__(self) -> dict:
        # Reflector clients pickle sorted: a set's order follows the hash
        # seed, and a saved cache must not.
        return {**self.__dict__, "rr_clients": tuple(sorted(self.rr_clients))}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state, rr_clients=frozenset(state["rr_clients"]))


class NetworkConfig:
    """The full network: topology plus per-router configurations.

    External nodes have no :class:`RouterConfig`; their ASNs are recorded in
    ``external_asns`` so the simulator can build AS paths for injected
    announcements.
    """

    def __init__(self, topology: Topology) -> None:
        self.topology = topology
        self.routers: dict[str, RouterConfig] = {}
        self.external_asns: dict[str, int] = {}

    def add_router_config(self, config: RouterConfig) -> None:
        if not self.topology.is_router(config.name):
            raise ValueError(f"{config.name!r} is not an internal router")
        if config.name in self.routers:
            raise ValueError(f"duplicate configuration for {config.name!r}")
        self.routers[config.name] = config

    def set_external_asn(self, name: str, asn: int) -> None:
        if not self.topology.is_external(name):
            raise ValueError(f"{name!r} is not an external node")
        self.external_asns[name] = asn

    def policy_digests(self) -> dict[str, str]:
        """Per-router canonical policy digests (see :meth:`RouterConfig.digest`)."""
        return {name: rc.digest() for name, rc in self.routers.items()}

    def asn_of(self, node: str) -> int:
        if node in self.routers:
            return self.routers[node].asn
        if node in self.external_asns:
            return self.external_asns[node]
        raise KeyError(f"no ASN recorded for {node!r}")

    def validate(self) -> list[str]:
        """Return a list of consistency problems (empty = valid)."""
        problems: list[str] = []
        for name in sorted(self.topology.routers):
            if name not in self.routers:
                problems.append(f"router {name!r} has no configuration")
        for name, config in sorted(self.routers.items()):
            for peer, ncfg in sorted(config.neighbors.items()):
                if not self.topology.has_edge(name, peer) and not self.topology.has_edge(peer, name):
                    problems.append(f"{name}: neighbor {peer!r} has no topology edge")
                try:
                    actual = self.asn_of(peer)
                except KeyError:
                    continue
                if actual != ncfg.remote_asn:
                    problems.append(
                        f"{name}: neighbor {peer!r} remote-as {ncfg.remote_asn} "
                        f"but {peer!r} is AS {actual}"
                    )
        return problems

    # ------------------------------------------------------------------
    # The §3.1 policy functions
    # ------------------------------------------------------------------

    def neighbor_config(self, router: str, peer: str) -> NeighborConfig | None:
        config = self.routers.get(router)
        if config is None:
            return None
        return config.neighbors.get(peer)

    def import_map(self, edge: Edge) -> RouteMap | None:
        """Import route map applied at ``edge.dst`` to routes from ``edge.src``."""
        ncfg = self.neighbor_config(edge.dst, edge.src)
        return None if ncfg is None else ncfg.import_map

    def export_map(self, edge: Edge) -> RouteMap | None:
        """Export route map applied at ``edge.src`` to routes sent to ``edge.dst``."""
        ncfg = self.neighbor_config(edge.src, edge.dst)
        return None if ncfg is None else ncfg.export_map

    def is_ebgp(self, edge: Edge) -> bool:
        """True if the session crosses an AS boundary."""
        try:
            return self.asn_of(edge.src) != self.asn_of(edge.dst)
        except KeyError:
            return True

    def import_route(self, edge: Edge, route: Route) -> Route | None:
        """``Import(A -> B, r)``: B's import filter applied to r, or None."""
        route_map = self.import_map(edge)
        if route_map is None:
            return route
        return route_map.apply(route)

    def export_route(self, edge: Edge, route: Route) -> Route | None:
        """``Export(A -> B, r)``: A's export filter, plus eBGP AS prepend."""
        route_map = self.export_map(edge)
        if route_map is not None:
            result = route_map.apply(route)
        else:
            result = route
        if result is None:
            return None
        if edge.src in self.routers and self.is_ebgp(edge):
            result = result.prepend_as(self.routers[edge.src].asn)
        return result

    def originate(self, edge: Edge) -> tuple[Route, ...]:
        """``Originate(A -> B)``: routes injected by A toward B."""
        ncfg = self.neighbor_config(edge.src, edge.dst)
        if ncfg is None:
            return ()
        return ncfg.originated
