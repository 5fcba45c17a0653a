"""JSON serialisation of :class:`NetworkConfig`.

Round-trips the full configuration model so that synthetic workloads can be
saved, diffed, and re-loaded, and so the CLI can accept machine-generated
configurations alongside the text dialect.
"""

from __future__ import annotations

import json
from typing import Any

from repro.bgp.config import NeighborConfig, NetworkConfig, RouterConfig
from repro.bgp.policy import (
    Action,
    AddCommunity,
    ClearCommunities,
    DeleteCommunity,
    Disposition,
    Match,
    MatchAll,
    MatchAny,
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
from repro.bgp.prefix import Prefix, PrefixRange
from repro.bgp.route import Community, Route
from repro.bgp.topology import Topology


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------


def _match_to_json(match: Match) -> dict[str, Any]:
    if isinstance(match, MatchCommunity):
        return {"kind": "community", "community": str(match.community)}
    if isinstance(match, MatchPrefix):
        return {"kind": "prefix", "ranges": [str(r) for r in match.ranges]}
    if isinstance(match, MatchAsPathContains):
        return {"kind": "as-path-contains", "asn": match.asn}
    if isinstance(match, MatchAsPathLength):
        return {"kind": "as-path-length", "low": match.low, "high": match.high}
    if isinstance(match, MatchOrigin):
        return {"kind": "origin", "origin": match.origin}
    if isinstance(match, MatchNextHopIn):
        return {"kind": "next-hop", "prefixes": [str(p) for p in match.prefixes]}
    if isinstance(match, MatchMedRange):
        return {"kind": "med", "low": match.low, "high": match.high}
    if isinstance(match, MatchLocalPrefRange):
        return {"kind": "local-pref", "low": match.low, "high": match.high}
    if isinstance(match, MatchNot):
        return {"kind": "not", "inner": _match_to_json(match.inner)}
    if isinstance(match, MatchAny):
        return {"kind": "any", "inners": [_match_to_json(m) for m in match.inners]}
    if isinstance(match, MatchAll):
        return {"kind": "all", "inners": [_match_to_json(m) for m in match.inners]}
    raise TypeError(f"cannot serialise match {match!r}")


def _action_to_json(action: Action) -> dict[str, Any]:
    if isinstance(action, SetLocalPref):
        return {"kind": "set-local-pref", "value": action.value}
    if isinstance(action, SetMed):
        return {"kind": "set-med", "value": action.value}
    if isinstance(action, SetNextHop):
        return {"kind": "set-next-hop", "value": action.value}
    if isinstance(action, AddCommunity):
        return {"kind": "add-community", "community": str(action.community)}
    if isinstance(action, DeleteCommunity):
        return {"kind": "delete-community", "community": str(action.community)}
    if isinstance(action, ClearCommunities):
        return {"kind": "clear-communities"}
    if isinstance(action, PrependAsPath):
        return {"kind": "prepend", "asn": action.asn, "count": action.count}
    if isinstance(action, SetOrigin):
        return {"kind": "set-origin", "origin": action.origin}
    raise TypeError(f"cannot serialise action {action!r}")


def _route_to_json(route: Route) -> dict[str, Any]:
    return {
        "prefix": str(route.prefix),
        "as_path": list(route.as_path),
        "next_hop": route.next_hop,
        "local_pref": route.local_pref,
        "med": route.med,
        "communities": sorted(str(c) for c in route.communities),
        "origin": route.origin,
    }


def _route_map_to_json(route_map: RouteMap) -> dict[str, Any]:
    return {
        "name": route_map.name,
        "clauses": [
            {
                "seq": c.seq,
                "disposition": c.disposition.value,
                "matches": [_match_to_json(m) for m in c.matches],
                "actions": [_action_to_json(a) for a in c.actions],
            }
            for c in route_map.clauses
        ],
    }


def config_to_json(config: NetworkConfig) -> str:
    """Serialise a NetworkConfig to a JSON document string."""
    doc: dict[str, Any] = {
        "externals": {
            name: config.external_asns.get(name)
            for name in sorted(config.topology.externals)
        },
        "routers": {},
    }
    for name in sorted(config.routers):
        rc = config.routers[name]
        doc["routers"][name] = {
            "asn": rc.asn,
            "neighbors": {
                peer: {
                    "remote_asn": ncfg.remote_asn,
                    "import_map": None
                    if ncfg.import_map is None
                    else _route_map_to_json(ncfg.import_map),
                    "export_map": None
                    if ncfg.export_map is None
                    else _route_map_to_json(ncfg.export_map),
                    "originated": [_route_to_json(r) for r in ncfg.originated],
                }
                for peer, ncfg in sorted(rc.neighbors.items())
            },
        }
    return json.dumps(doc, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# Decoding
# ---------------------------------------------------------------------------
#
# A malformed document raises ValueError, never KeyError/TypeError: each
# level (router, neighbor, route map, clause) catches what its body raised
# and re-raises it prefixed with its location, so the CLI prints e.g.
# ``router 'R1': neighbor 'R2': missing "remote_asn"`` and exits 2.

_MALFORMED = (KeyError, TypeError, AttributeError, ValueError)

_JSON_KINDS = {
    dict: "an object", list: "an array", str: "a string", bool: "a boolean",
    int: "an integer", float: "a number", type(None): "null",
}


def _located(where: str, exc: Exception) -> ValueError:
    reason = f'missing "{exc.args[0]}"' if isinstance(exc, KeyError) else str(exc)
    return ValueError(f"{where}: {reason}")


def _ill_typed(what: str, expected: str, value: Any) -> ValueError:
    got = _JSON_KINDS.get(type(value), type(value).__name__)
    return ValueError(f"{what} must be {expected}, got {got}")


def _object(value: Any, what: str) -> dict[str, Any]:
    if not isinstance(value, dict):
        raise _ill_typed(what, "an object", value)
    return value


def _array(value: Any, what: str) -> list[Any]:
    if not isinstance(value, list):
        raise _ill_typed(what, "an array", value)
    return value


def _int(doc: dict[str, Any], key: str) -> int:
    value = doc[key]
    if type(value) is not int:  # a JSON ``true`` is a bool, not an ASN
        raise _ill_typed(f'"{key}"', "an integer", value)
    return value


def _match_from_json(doc: Any) -> Match:
    kind = _object(doc, "a match")["kind"]
    if kind == "community":
        return MatchCommunity(Community.parse(doc["community"]))
    if kind == "prefix":
        return MatchPrefix(tuple(PrefixRange.parse(r) for r in doc["ranges"]))
    if kind == "as-path-contains":
        return MatchAsPathContains(doc["asn"])
    if kind == "as-path-length":
        return MatchAsPathLength(doc["low"], doc["high"])
    if kind == "origin":
        return MatchOrigin(doc["origin"])
    if kind == "next-hop":
        return MatchNextHopIn(tuple(Prefix.parse(p) for p in doc["prefixes"]))
    if kind == "med":
        return MatchMedRange(doc["low"], doc["high"])
    if kind == "local-pref":
        return MatchLocalPrefRange(doc["low"], doc["high"])
    if kind == "not":
        return MatchNot(_match_from_json(doc["inner"]))
    if kind == "any":
        return MatchAny(tuple(_match_from_json(m) for m in doc["inners"]))
    if kind == "all":
        return MatchAll(tuple(_match_from_json(m) for m in doc["inners"]))
    raise ValueError(f"unknown match kind {kind!r}")


def _action_from_json(doc: Any) -> Action:
    kind = _object(doc, "an action")["kind"]
    if kind == "set-local-pref":
        return SetLocalPref(doc["value"])
    if kind == "set-med":
        return SetMed(doc["value"])
    if kind == "set-next-hop":
        return SetNextHop(doc["value"])
    if kind == "add-community":
        return AddCommunity(Community.parse(doc["community"]))
    if kind == "delete-community":
        return DeleteCommunity(Community.parse(doc["community"]))
    if kind == "clear-communities":
        return ClearCommunities()
    if kind == "prepend":
        return PrependAsPath(doc["asn"], doc.get("count", 1))
    if kind == "set-origin":
        return SetOrigin(doc["origin"])
    raise ValueError(f"unknown action kind {kind!r}")


def _route_from_json(doc: Any) -> Route:
    doc = _object(doc, "an originated route")
    return Route(
        prefix=Prefix.parse(doc["prefix"]),
        as_path=tuple(_array(doc.get("as_path", []), '"as_path"')),
        next_hop=doc.get("next_hop", 0),
        local_pref=doc.get("local_pref", 100),
        med=doc.get("med", 0),
        communities=frozenset(
            Community.parse(c) for c in _array(doc.get("communities", []), '"communities"')
        ),
        origin=doc.get("origin", 0),
    )


def _clause_from_json(doc: Any) -> RouteMapClause:
    doc = _object(doc, "a clause")
    return RouteMapClause(
        seq=_int(doc, "seq"),
        disposition=Disposition(doc["disposition"]),
        matches=tuple(_match_from_json(m) for m in _array(doc.get("matches", []), '"matches"')),
        actions=tuple(_action_from_json(a) for a in _array(doc.get("actions", []), '"actions"')),
    )


def _route_map_from_json(doc: Any, key: str) -> RouteMap:
    doc = _object(doc, f'"{key}"')
    name = doc["name"]
    if not isinstance(name, str):
        raise _ill_typed(f'"{key}" name', "a string", name)
    clauses = []
    for index, clause in enumerate(_array(doc.get("clauses", []), f"route map {name!r} clauses")):
        try:
            clauses.append(_clause_from_json(clause))
        except _MALFORMED as exc:
            raise _located(f"route map {name!r} clause {index}", exc) from None
    return RouteMap(name, tuple(clauses))


def _neighbor_from_json(peer: str, doc: Any) -> NeighborConfig:
    doc = _object(doc, "a neighbor")
    import_map = doc.get("import_map")
    export_map = doc.get("export_map")
    originated = doc.get("originated")
    return NeighborConfig(
        peer=peer,
        remote_asn=_int(doc, "remote_asn"),
        import_map=None if import_map is None else _route_map_from_json(import_map, "import_map"),
        export_map=None if export_map is None else _route_map_from_json(export_map, "export_map"),
        originated=tuple(
            _route_from_json(r) for r in _array(originated, '"originated"')
        ) if originated else (),
    )


def _router_from_json(name: str, doc: Any, topo: Topology) -> RouterConfig:
    doc = _object(doc, "a router")
    rc = RouterConfig(name=name, asn=_int(doc, "asn"))
    neighbors = _object(doc.get("neighbors", {}), '"neighbors"')
    for peer, ndoc in neighbors.items():
        try:
            rc.neighbors[peer] = _neighbor_from_json(peer, ndoc)
        except _MALFORMED as exc:
            raise _located(f"neighbor {peer!r}", exc) from None
    topo.add_sessions(name, neighbors)
    return rc


def config_from_json(text: str) -> NetworkConfig:
    """Parse a JSON document produced by :func:`config_to_json`.

    Raises :class:`ValueError` naming the router (and neighbor, route map,
    clause) of any missing or ill-typed field.
    """
    doc = _object(json.loads(text), "the configuration")
    routers = _object(doc.get("routers", {}), '"routers"')
    externals = _object(doc.get("externals", {}), '"externals"')
    topo = Topology()
    for name in routers:
        topo.add_router(name)
    config = NetworkConfig(topo)
    for name, asn in externals.items():
        try:
            topo.add_external(name)
            if asn is not None:
                config.set_external_asn(name, _int(externals, name))
        except _MALFORMED as exc:
            raise _located(f"external {name!r}", exc) from None

    for name, rdoc in routers.items():
        try:
            config.add_router_config(_router_from_json(name, rdoc, topo))
        except _MALFORMED as exc:
            raise _located(f"router {name!r}", exc) from None
    return config
