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

The parser checks syntax only.  :func:`lower_config` turns the text into
the JSON document :func:`repro.bgp.configjson.config_to_json` writes
(route maps inlined per session, clauses in ``seq`` order, every match,
action and originated route spelled as the JSON codec spells it), and
:func:`parse_config` hands that document to the one builder both formats
share, :func:`repro.bgp.configjson.config_from_doc`, which checks the
network (declared neighbors, self-peering, remote-as) with the messages it
gives for a JSON file.  A syntax error is a :class:`ConfigSyntaxError`
naming its line; so is a session whose route map the text never defines.
"""

from __future__ import annotations

from typing import Any

from repro.bgp.config import NetworkConfig
from repro.bgp.configjson import (
    ACTION_KINDS,
    canonical,
    canonical_route,
    condition_kinds,
    config_from_doc,
)
from repro.bgp.prefix import parse_ipv4

_ORIGIN_NAMES = {"igp": 0, "egp": 1, "incomplete": 2}


class ConfigSyntaxError(ValueError):
    """A syntax error in a configuration text, at line ``line_no``."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def parse_config(text: str) -> NetworkConfig:
    """Parse the dialect into a validated :class:`NetworkConfig`."""
    return config_from_doc(lower_config(text))


def lower_config(text: str) -> dict[str, Any]:
    """The dialect text as a JSON configuration document (a ``dict``)."""
    lowering = _Lowering()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            lowering.statement(line_no, line.split())
        except (ValueError, IndexError) as exc:
            raise ConfigSyntaxError(line_no, f"{exc} (in {line!r})") from None
    return lowering.finish()


class _Lowering:
    """The document being written, and the stanza each line lands in."""

    def __init__(self) -> None:
        self.externals: dict[str, int] = {}
        self.routers: dict[str, dict[str, Any]] = {}
        self.route_maps: dict[str, list[dict[str, Any]]] = {}
        # (line, session, "import_map"/"export_map", route-map name)
        self.map_uses: list[tuple[int, dict[str, Any], str, str]] = []
        self.neighbors: dict[str, Any] | None = None  # the router stanza's
        self.session: dict[str, Any] | None = None  # the neighbor stanza's
        self.clauses: list[dict[str, Any]] | None = None  # the route-map's
        self.clause: dict[str, Any] | None = None

    def statement(self, line_no: int, tokens: list[str]) -> None:
        head = tokens[0]
        if head == "external":
            name, asn = _declaration(tokens)
            if name in self.externals:
                raise ValueError(f"duplicate external {name!r}")
            self.externals[name] = asn
        elif head == "router":
            name, asn = _declaration(tokens)
            if name in self.routers:
                raise ValueError(f"duplicate router {name!r}")
            self.neighbors = {}
            self.routers[name] = {"asn": asn, "neighbors": self.neighbors}
            self.session = self.clauses = self.clause = None
        elif head == "neighbor":
            if self.neighbors is None:
                raise ValueError("'neighbor' outside a router stanza")
            peer, asn = _declaration(tokens)
            if peer in self.neighbors:
                raise ValueError(f"duplicate neighbor {peer!r}")
            self.session = self.neighbors[peer] = {
                "remote_asn": asn, "import_map": None, "export_map": None, "originated": [],
            }
        elif head in ("import", "export"):
            if self.session is None:
                raise ValueError(f"'{head}' outside a neighbor stanza")
            if len(tokens) != 3 or tokens[1] != "route-map":
                raise ValueError(f"expected: {head} route-map NAME")
            self.map_uses.append((line_no, self.session, f"{head}_map", tokens[2]))
        elif head == "originate":
            if self.session is None:
                raise ValueError("'originate' outside a neighbor stanza")
            self.session["originated"].append(canonical_route(_route(tokens[1:])))
        elif head == "route-map":
            if len(tokens) != 2:
                raise ValueError("expected: route-map NAME")
            if tokens[1] in self.route_maps:
                raise ValueError(f"duplicate route-map {tokens[1]!r}")
            self.clauses = self.route_maps[tokens[1]] = []
            self.neighbors = self.session = self.clause = None
        elif head == "clause":
            if self.clauses is None:
                raise ValueError("'clause' outside a route-map stanza")
            if len(tokens) != 3 or tokens[2] not in ("permit", "deny"):
                raise ValueError("expected: clause SEQ permit|deny")
            seq = int(tokens[1])
            if any(clause["seq"] == seq for clause in self.clauses):
                raise ValueError(f"duplicate clause {seq}")
            self.clause = {"seq": seq, "disposition": tokens[2], "matches": [], "actions": []}
            self.clauses.append(self.clause)
        elif head == "match":
            if self.clause is None:
                raise ValueError("'match' outside a clause")
            if tokens[1] == "not":
                match = {"kind": "not", "inner": _match(tokens[2:])}
            else:
                match = _match(tokens[1:])
            self.clause["matches"].append(canonical(match, condition_kinds()))
        elif head in ("set", "add", "delete", "clear", "prepend"):
            if self.clause is None:
                raise ValueError(f"'{head}' outside a clause")
            if self.clause["disposition"] == "deny":
                raise ValueError("deny clauses cannot carry actions")
            self.clause["actions"].append(canonical(_action(tokens), ACTION_KINDS))
        else:
            raise ValueError(f"unknown keyword {head!r}")

    def finish(self) -> dict[str, Any]:
        """The document: every session's route maps resolved by name."""
        for clauses in self.route_maps.values():
            clauses.sort(key=lambda clause: clause["seq"])
        for line_no, session, key, name in self.map_uses:
            if name not in self.route_maps:
                raise ConfigSyntaxError(line_no, f"route-map {name!r} is never defined")
            session[key] = {"name": name, "clauses": self.route_maps[name]}
        return {"externals": self.externals, "routers": self.routers}


def _declaration(tokens: list[str]) -> tuple[str, int]:
    # external|router|neighbor NAME as ASN
    if len(tokens) != 4 or tokens[2] != "as":
        raise ValueError(f"expected: {tokens[0]} NAME as ASN")
    return tokens[1], int(tokens[3])


def _origin(name: str) -> int:
    if name not in _ORIGIN_NAMES:
        raise ValueError(f"unknown origin {name!r} (expected igp, egp or incomplete)")
    return _ORIGIN_NAMES[name]


def _route(args: list[str]) -> dict[str, Any]:
    # PREFIX [local-pref N] [med N] [community A:B]...
    route: dict[str, Any] = {"prefix": args[0], "communities": []}
    options = args[1:]
    for at in range(0, len(options), 2):
        option = options[at]
        if option == "community":
            route["communities"].append(options[at + 1])
        elif option in ("local-pref", "med"):
            route[option.replace("-", "_")] = int(options[at + 1])
        else:
            raise ValueError(f"unknown originate option {option!r}")
    return route


def _match(args: list[str]) -> dict[str, Any]:
    kind = args[0]
    if kind == "community":
        return {"kind": kind, "community": args[1]}
    if kind == "prefix":  # no range: the builder's empty-list refusal
        return {"kind": kind, "ranges": [" ".join(args[1:])] if args[1:] else []}
    if kind == "as-path-contains":
        return {"kind": kind, "asn": int(args[1])}
    if kind in ("as-path-length", "med", "local-pref"):
        return {"kind": kind, "low": int(args[1]), "high": int(args[2])}
    if kind == "origin":
        return {"kind": kind, "origin": _origin(args[1])}
    if kind == "next-hop":
        return {"kind": kind, "prefixes": args[1:]}
    raise ValueError(f"unknown match kind {kind!r}")


def _action(tokens: list[str]) -> dict[str, Any]:
    head = tokens[0]
    if head == "set":
        what = tokens[1]
        if what in ("local-pref", "med"):
            return {"kind": f"set-{what}", "value": int(tokens[2])}
        if what == "next-hop":
            return {"kind": "set-next-hop", "value": parse_ipv4(tokens[2])}
        if what == "origin":
            return {"kind": "set-origin", "origin": _origin(tokens[2])}
        raise ValueError(f"unknown set target {what!r}")
    if head == "prepend":
        return {"kind": "prepend", "asn": int(tokens[1]), "count": int(tokens[2]) if len(tokens) > 2 else 1}
    if head == "clear":
        if tokens[1] != "communities":
            raise ValueError("expected: clear communities")
        return {"kind": "clear-communities"}
    if tokens[1] != "community":  # add | delete
        raise ValueError(f"expected: {head} community A:B")
    return {"kind": f"{head}-community", "community": tokens[2]}
