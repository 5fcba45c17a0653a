"""A message-passing BGP simulator producing §3.2 traces.

The simulator realises the trace semantics the paper's proofs quantify over:
it produces ``recv``/``slct``/``frwd`` events obeying the safety axioms of
Appendix A (every selection is justified by an earlier receive, every
forward by an earlier selection or an origination) and the liveness axioms
(selected routes are exported; forwarded routes arrive unless the link
failed).

Because the verifier soundly over-approximates *all* valid traces, every
trace this simulator can produce must satisfy any property Lightyear
verifies — the cross-validation tests rely on exactly that containment.
"""

from __future__ import annotations

import enum

from repro.bgp.config import NetworkConfig
from repro.bgp.prefix import Prefix
from repro.bgp.route import Route
from repro.bgp.selection import best_route
from repro.bgp.topology import Edge
from repro.record import Record, Value


class EventKind(enum.Enum):
    RECV = "recv"
    SLCT = "slct"
    FRWD = "frwd"


class Event(Value):
    """One trace event.  ``location`` is an Edge for recv/frwd, a str for slct."""

    kind: EventKind
    location: Edge | str
    route: Route

    def __str__(self) -> str:
        return f"{self.kind.value}({self.location}, {self.route})"


class ConvergenceError(RuntimeError):
    """Raised when the network fails to reach a fixpoint within the bound."""


class SimulationResult(Record):
    """The outcome of a simulation run."""

    events: list[Event]
    best: dict[str, dict[Prefix, tuple[str, Route]]]
    rounds: int

    def selected(self, router: str, prefix: Prefix) -> Route | None:
        entry = self.best.get(router, {}).get(prefix)
        return None if entry is None else entry[1]

    def events_at(self, location: Edge | str, kind: EventKind | None = None) -> list[Event]:
        return [
            e
            for e in self.events
            if e.location == location and (kind is None or e.kind == kind)
        ]

    def routes_received_on(self, edge: Edge) -> list[Route]:
        return [e.route for e in self.events_at(edge, EventKind.RECV)]

    def routes_forwarded_on(self, edge: Edge) -> list[Route]:
        return [e.route for e in self.events_at(edge, EventKind.FRWD)]

    def routes_selected_at(self, router: str) -> list[Route]:
        return [e.route for e in self.events_at(router, EventKind.SLCT)]


class Simulator:
    """Deterministic fixpoint computation of BGP route propagation.

    Parameters
    ----------
    config:
        The network under simulation.
    failed_edges:
        Directed edges whose deliveries are suppressed (link failures).  A
        failed physical link is modelled by failing both directions.
    ibgp_full_mesh:
        Apply the standard iBGP rules: routes learned from an iBGP peer are
        not re-advertised to other iBGP peers, except through route
        reflectors (routers whose config names ``rr_clients``).
    """

    def __init__(
        self,
        config: NetworkConfig,
        failed_edges: set[Edge] | None = None,
        ibgp_full_mesh: bool = True,
    ) -> None:
        self.config = config
        self.failed_edges = failed_edges or set()
        self.ibgp_full_mesh = ibgp_full_mesh

    def run(
        self,
        announcements: dict[str, list[Route]] | None = None,
        max_rounds: int = 1000,
    ) -> SimulationResult:
        """Run to convergence.

        ``announcements`` maps an external node name to routes it announces
        on all of its sessions into the network.  AS paths of announced
        routes are prepended with the external's ASN if it is known and not
        already present.
        """
        config = self.config
        topo = config.topology
        events: list[Event] = []

        # adj_rib_in[router][(neighbor, prefix)] = imported route
        rib_in: dict[str, dict[tuple[str, Prefix], Route]] = {
            r: {} for r in topo.routers
        }
        # last route forwarded per (edge, prefix), to suppress duplicates
        sent: dict[tuple[Edge, Prefix], Route] = {}
        # current selection per router
        best: dict[str, dict[Prefix, tuple[str, Route]]] = {r: {} for r in topo.routers}
        # which (router, prefix) selections were learned over eBGP
        learned_ebgp: dict[tuple[str, Prefix], bool] = {}

        def deliver(edge: Edge, route: Route) -> None:
            """recv + import at edge.dst (an internal router)."""
            events.append(Event(EventKind.RECV, edge, route))
            imported = config.import_route(edge, route)
            if imported is None:
                rib_in[edge.dst].pop((edge.src, route.prefix), None)
                return
            # eBGP loop prevention: drop if our ASN is already in the path.
            if config.is_ebgp(edge) and edge.dst in config.routers:
                if config.routers[edge.dst].asn in route.as_path:
                    return
            rib_in[edge.dst][(edge.src, imported.prefix)] = imported

        def forward(edge: Edge, route: Route) -> bool:
            """frwd on an edge; returns True if the neighbor received it."""
            key = (edge, route.prefix)
            if sent.get(key) == route:
                return False
            sent[key] = route
            events.append(Event(EventKind.FRWD, edge, route))
            if edge in self.failed_edges:
                return False
            if topo.is_router(edge.dst):
                deliver(edge, route)
            return True

        # --- Initial stimuli -------------------------------------------------
        for external, routes in sorted((announcements or {}).items()):
            if not topo.is_external(external):
                raise ValueError(f"{external!r} is not an external node")
            for edge in topo.edges_from(external):
                if edge in self.failed_edges:
                    continue
                for route in routes:
                    route = self._with_external_path(external, route)
                    deliver(edge, route)

        for router in sorted(topo.routers):
            for edge in topo.edges_from(router):
                for route in config.originate(edge):
                    forward(edge, route)

        # --- Fixpoint loop ---------------------------------------------------
        rounds = 0
        changed = True
        while changed:
            changed = False
            rounds += 1
            if rounds > max_rounds:
                raise ConvergenceError(f"no fixpoint after {max_rounds} rounds")
            for router in sorted(topo.routers):
                prefixes = {p for (__, p) in rib_in[router]}
                for prefix in sorted(prefixes):
                    candidates = [
                        (nbr, rt)
                        for (nbr, p), rt in rib_in[router].items()
                        if p == prefix
                    ]
                    choice = best_route(candidates)
                    if choice is None:
                        continue
                    neighbor, route = choice
                    if best[router].get(prefix) == choice:
                        continue
                    best[router][prefix] = choice
                    learned_ebgp[(router, prefix)] = config.is_ebgp(Edge(neighbor, router))
                    events.append(Event(EventKind.SLCT, router, route))
                    changed = True
                    for edge in topo.edges_from(router):
                        if edge.dst == neighbor:
                            continue  # never advertise back to the sender
                        if not self._may_readvertise(router, neighbor, edge, prefix, learned_ebgp):
                            continue
                        exported = config.export_route(edge, route)
                        if exported is not None:
                            forward(edge, exported)

        return SimulationResult(events=events, best=best, rounds=rounds)

    def _may_readvertise(
        self,
        router: str,
        learned_from: str,
        edge: Edge,
        prefix: Prefix,
        learned_ebgp: dict[tuple[str, Prefix], bool],
    ) -> bool:
        """The iBGP re-advertisement rules (full mesh + route reflection).

        eBGP-learned routes go everywhere; to eBGP neighbors everything
        goes.  An iBGP-learned route crosses another iBGP session only
        through a route reflector: reflectors forward client-learned routes
        to all iBGP neighbors and non-client-learned routes to clients.
        """
        if not self.ibgp_full_mesh:
            return True
        if learned_ebgp[(router, prefix)]:
            return True
        if self.config.is_ebgp(edge):
            return True
        rc = self.config.routers.get(router)
        clients = rc.rr_clients if rc is not None else frozenset()
        if not clients:
            return False  # ordinary speaker: iBGP-learned stays put
        if learned_from in clients:
            return True  # reflect client routes to everyone
        return edge.dst in clients  # reflect non-client routes to clients

    def _with_external_path(self, external: str, route: Route) -> Route:
        asn = self.config.external_asns.get(external)
        if asn is not None and (not route.as_path or route.as_path[0] != asn):
            return route.prepend_as(asn)
        return route
