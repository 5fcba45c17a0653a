"""Parser for a vendor-neutral, Cisco-flavoured configuration dialect.

The paper's tool parses production router configurations into the §3.1
abstraction (topology + Import/Export/Originate).  This module provides the
same front end for a compact text dialect::

    external ISP1 as 100

    router R1 as 65000
      neighbor ISP1 as 100
        import route-map ISP1-IN
        export route-map ISP1-OUT
        originate 10.0.0.0/8 community 100:1 local-pref 200
      neighbor R2 as 65000

    route-map ISP1-IN
      clause 10 permit
        match prefix 10.0.0.0/8 le 24
        match community 100:1
        set local-pref 200
        add community 100:1
      clause 20 deny

Lines are keyword-driven and indentation-insensitive; ``#`` starts a
comment.  Route maps may be declared before or after their use.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bgp.config import NeighborConfig, NetworkConfig, RouterConfig
from repro.bgp.policy import (
    Action,
    AddCommunity,
    ClearCommunities,
    DeleteCommunity,
    Disposition,
    Match,
    MatchAsPathContains,
    MatchAsPathLength,
    MatchCommunity,
    MatchLocalPrefRange,
    MatchMedRange,
    MatchNextHopIn,
    MatchNot,
    MatchOrigin,
    MatchPrefix,
    PrependAsPath,
    RouteMap,
    RouteMapClause,
    SetLocalPref,
    SetMed,
    SetNextHop,
    SetOrigin,
)

_ORIGIN_NAMES = {"igp": 0, "egp": 1, "incomplete": 2}
from repro.bgp.prefix import Prefix, PrefixRange, parse_ipv4
from repro.bgp.route import Community, Route
from repro.bgp.topology import Topology


class ConfigSyntaxError(ValueError):
    """A syntax or consistency error in a configuration text."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass
class _PendingNeighbor:
    router: str
    peer: str
    remote_asn: int
    import_map_name: str | None = None
    export_map_name: str | None = None
    originated: list[Route] = field(default_factory=list)


@dataclass
class _PendingClause:
    seq: int
    disposition: Disposition
    matches: list[Match] = field(default_factory=list)
    actions: list[Action] = field(default_factory=list)


def parse_config(text: str) -> NetworkConfig:
    """Parse the dialect into a validated :class:`NetworkConfig`."""
    parser = _Parser()
    parser.feed(text)
    return parser.finish()


class _Parser:
    def __init__(self) -> None:
        self.externals: dict[str, int] = {}
        self.routers: dict[str, int] = {}
        self.neighbors: list[_PendingNeighbor] = []
        self.route_maps: dict[str, list[_PendingClause]] = {}
        self._current_router: str | None = None
        self._current_neighbor: _PendingNeighbor | None = None
        self._current_map: str | None = None
        self._current_clause: _PendingClause | None = None

    # ------------------------------------------------------------------

    def feed(self, text: str) -> None:
        for line_no, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            tokens = line.split()
            try:
                self._dispatch(tokens)
            except ConfigSyntaxError:
                raise
            except (ValueError, IndexError) as exc:
                raise ConfigSyntaxError(line_no, f"{exc} (in {line!r})") from exc

    def _dispatch(self, tokens: list[str]) -> None:
        head = tokens[0]
        if head == "external":
            self._parse_external(tokens)
        elif head == "router":
            self._parse_router(tokens)
        elif head == "neighbor":
            self._parse_neighbor(tokens)
        elif head in ("import", "export"):
            self._parse_session_map(tokens)
        elif head == "originate":
            self._parse_originate(tokens)
        elif head == "route-map":
            self._parse_route_map(tokens)
        elif head == "clause":
            self._parse_clause(tokens)
        elif head == "match":
            self._parse_match(tokens)
        elif head in ("set", "add", "delete", "clear", "prepend"):
            self._parse_action(tokens)
        else:
            raise ValueError(f"unknown keyword {head!r}")

    # ------------------------------------------------------------------

    def _parse_external(self, tokens: list[str]) -> None:
        # external NAME as ASN
        if len(tokens) != 4 or tokens[2] != "as":
            raise ValueError("expected: external NAME as ASN")
        self.externals[tokens[1]] = int(tokens[3])

    def _parse_router(self, tokens: list[str]) -> None:
        # router NAME as ASN
        if len(tokens) != 4 or tokens[2] != "as":
            raise ValueError("expected: router NAME as ASN")
        name = tokens[1]
        if name in self.routers:
            raise ValueError(f"duplicate router {name!r}")
        self.routers[name] = int(tokens[3])
        self._current_router = name
        self._current_neighbor = None
        self._current_map = None
        self._current_clause = None

    def _parse_neighbor(self, tokens: list[str]) -> None:
        # neighbor NAME as ASN
        if self._current_router is None:
            raise ValueError("'neighbor' outside a router stanza")
        if len(tokens) != 4 or tokens[2] != "as":
            raise ValueError("expected: neighbor NAME as ASN")
        pending = _PendingNeighbor(
            router=self._current_router, peer=tokens[1], remote_asn=int(tokens[3])
        )
        self.neighbors.append(pending)
        self._current_neighbor = pending

    def _parse_session_map(self, tokens: list[str]) -> None:
        # import route-map NAME | export route-map NAME
        if self._current_neighbor is None:
            raise ValueError(f"'{tokens[0]}' outside a neighbor stanza")
        if len(tokens) != 3 or tokens[1] != "route-map":
            raise ValueError(f"expected: {tokens[0]} route-map NAME")
        if tokens[0] == "import":
            self._current_neighbor.import_map_name = tokens[2]
        else:
            self._current_neighbor.export_map_name = tokens[2]

    def _parse_originate(self, tokens: list[str]) -> None:
        # originate PREFIX [local-pref N] [med N] [community A:B]...
        if self._current_neighbor is None:
            raise ValueError("'originate' outside a neighbor stanza")
        prefix = Prefix.parse(tokens[1])
        local_pref = 100
        med = 0
        communities: set[Community] = set()
        rest = tokens[2:]
        while rest:
            if rest[0] == "local-pref":
                local_pref = int(rest[1])
                rest = rest[2:]
            elif rest[0] == "med":
                med = int(rest[1])
                rest = rest[2:]
            elif rest[0] == "community":
                communities.add(Community.parse(rest[1]))
                rest = rest[2:]
            else:
                raise ValueError(f"unknown originate option {rest[0]!r}")
        self._current_neighbor.originated.append(
            Route(
                prefix=prefix,
                local_pref=local_pref,
                med=med,
                communities=frozenset(communities),
            )
        )

    def _parse_route_map(self, tokens: list[str]) -> None:
        # route-map NAME
        if len(tokens) != 2:
            raise ValueError("expected: route-map NAME")
        name = tokens[1]
        if name in self.route_maps:
            raise ValueError(f"duplicate route-map {name!r}")
        self.route_maps[name] = []
        self._current_map = name
        self._current_clause = None
        self._current_router = None
        self._current_neighbor = None

    def _parse_clause(self, tokens: list[str]) -> None:
        # clause SEQ permit|deny
        if self._current_map is None:
            raise ValueError("'clause' outside a route-map stanza")
        if len(tokens) != 3 or tokens[2] not in ("permit", "deny"):
            raise ValueError("expected: clause SEQ permit|deny")
        clause = _PendingClause(
            seq=int(tokens[1]),
            disposition=Disposition.PERMIT if tokens[2] == "permit" else Disposition.DENY,
        )
        self.route_maps[self._current_map].append(clause)
        self._current_clause = clause

    def _parse_match(self, tokens: list[str]) -> None:
        if self._current_clause is None:
            raise ValueError("'match' outside a clause")
        negate = False
        rest = tokens[1:]
        if rest and rest[0] == "not":
            negate = True
            rest = rest[1:]
        match = self._build_match(rest)
        if negate:
            match = MatchNot(match)
        self._current_clause.matches.append(match)

    @staticmethod
    def _build_match(rest: list[str]) -> Match:
        kind = rest[0]
        if kind == "community":
            return MatchCommunity(Community.parse(rest[1]))
        if kind == "prefix":
            return MatchPrefix((PrefixRange.parse(" ".join(rest[1:])),))
        if kind == "as-path-contains":
            return MatchAsPathContains(int(rest[1]))
        if kind == "as-path-length":
            return MatchAsPathLength(int(rest[1]), int(rest[2]))
        if kind == "origin":
            return MatchOrigin(_ORIGIN_NAMES[rest[1]])
        if kind == "next-hop":
            return MatchNextHopIn(tuple(Prefix.parse(p) for p in rest[1:]))
        if kind == "med":
            return MatchMedRange(int(rest[1]), int(rest[2]))
        if kind == "local-pref":
            return MatchLocalPrefRange(int(rest[1]), int(rest[2]))
        raise ValueError(f"unknown match kind {kind!r}")

    def _parse_action(self, tokens: list[str]) -> None:
        if self._current_clause is None:
            raise ValueError(f"'{tokens[0]}' outside a clause")
        if self._current_clause.disposition is Disposition.DENY:
            raise ValueError("deny clauses cannot carry actions")
        action = self._build_action(tokens)
        self._current_clause.actions.append(action)

    @staticmethod
    def _build_action(tokens: list[str]) -> Action:
        head = tokens[0]
        if head == "set":
            what = tokens[1]
            if what == "local-pref":
                return SetLocalPref(int(tokens[2]))
            if what == "med":
                return SetMed(int(tokens[2]))
            if what == "next-hop":
                return SetNextHop(parse_ipv4(tokens[2]))
            if what == "origin":
                return SetOrigin(_ORIGIN_NAMES[tokens[2]])
            raise ValueError(f"unknown set target {what!r}")
        if head == "add":
            if tokens[1] != "community":
                raise ValueError("expected: add community A:B")
            return AddCommunity(Community.parse(tokens[2]))
        if head == "delete":
            if tokens[1] != "community":
                raise ValueError("expected: delete community A:B")
            return DeleteCommunity(Community.parse(tokens[2]))
        if head == "clear":
            if tokens[1] != "communities":
                raise ValueError("expected: clear communities")
            return ClearCommunities()
        if head == "prepend":
            count = int(tokens[2]) if len(tokens) > 2 else 1
            return PrependAsPath(int(tokens[1]), count)
        raise ValueError(f"unknown action {head!r}")

    # ------------------------------------------------------------------

    def finish(self) -> NetworkConfig:
        topo = Topology()
        for name in self.routers:
            topo.add_router(name)
        for name in self.externals:
            if name in self.routers:
                raise ConfigSyntaxError(0, f"{name!r} declared as both router and external")
            topo.add_external(name)

        built_maps = {
            name: RouteMap(
                name,
                tuple(
                    RouteMapClause(
                        seq=c.seq,
                        disposition=c.disposition,
                        matches=tuple(c.matches),
                        actions=tuple(c.actions),
                    )
                    for c in sorted(clauses, key=lambda c: c.seq)
                ),
            )
            for name, clauses in self.route_maps.items()
        }

        config = NetworkConfig(topo)
        for name, asn in self.externals.items():
            config.external_asns[name] = asn
        router_configs = {
            name: RouterConfig(name=name, asn=asn) for name, asn in self.routers.items()
        }

        for pending in self.neighbors:
            if pending.peer not in self.routers and pending.peer not in self.externals:
                raise ConfigSyntaxError(
                    0, f"{pending.router}: neighbor {pending.peer!r} is not declared"
                )
            try:
                topo.add_peering(pending.router, pending.peer)
            except ValueError as exc:
                raise ConfigSyntaxError(0, f"{pending.router}: {exc}") from None
            import_map = self._lookup_map(built_maps, pending.import_map_name, pending)
            export_map = self._lookup_map(built_maps, pending.export_map_name, pending)
            router_configs[pending.router].add_neighbor(
                NeighborConfig(
                    peer=pending.peer,
                    remote_asn=pending.remote_asn,
                    import_map=import_map,
                    export_map=export_map,
                    originated=tuple(pending.originated),
                )
            )

        for rc in router_configs.values():
            config.add_router_config(rc)
        problems = config.validate()
        if problems:
            raise ConfigSyntaxError(0, "; ".join(problems))
        return config

    @staticmethod
    def _lookup_map(
        built: dict[str, RouteMap], name: str | None, pending: _PendingNeighbor
    ) -> RouteMap | None:
        if name is None:
            return None
        route_map = built.get(name)
        if route_map is None:
            raise ConfigSyntaxError(
                0, f"{pending.router}: route-map {name!r} is never defined"
            )
        return route_map
