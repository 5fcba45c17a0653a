"""JSON serialisation of :class:`NetworkConfig`, and the one builder.

Round-trips the full configuration model so that synthetic workloads can be
saved, diffed, and re-loaded.  :func:`config_from_doc` is the only code
that turns a configuration document into a :class:`NetworkConfig`: the
text dialect (:mod:`repro.bgp.configparse`) lowers to the same document, so
both input formats mean the same network and report a defect with the same
message.

Route-map conditions (:mod:`repro.lang.predicates`) and actions, and a
spec's predicates, go through one codec, :func:`to_doc` / :func:`from_doc`,
driven by a :class:`KindTable` per format.
"""

from __future__ import annotations

import json
from functools import cache
from typing import Any, Callable

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
)
from repro.bgp.prefix import Prefix, PrefixRange
from repro.bgp.route import Community, Route
from repro.bgp.topology import Topology
from repro.record import defaults, fields


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------


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
    conditions = condition_kinds()
    return {
        "name": route_map.name,
        "clauses": [
            {
                "seq": c.seq,
                "disposition": c.disposition.value,
                "matches": [to_doc(m, conditions) for m in c.matches],
                "actions": [to_doc(a, ACTION_KINDS) for a in c.actions],
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
        router = doc["routers"][name] = {
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
        if rc.rr_clients:  # only reflectors carry the key
            router["rr_clients"] = sorted(rc.rr_clients)
    return json.dumps(doc, indent=2, sort_keys=True)


def canonical(doc: Any, kinds: KindTable) -> dict[str, Any]:
    """A match or action document decoded and re-encoded: checked, and
    spelled as :func:`config_to_json` spells it."""
    return to_doc(from_doc(doc, kinds), kinds)


def canonical_route(doc: Any) -> dict[str, Any]:
    """An originated route's document, checked and spelled (every field,
    communities sorted) as :func:`config_to_json` does."""
    return _route_to_json(_route_from_json(doc))


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


# ---------------------------------------------------------------------------
# Kind-tagged values: one codec, a kind-name table per format
# ---------------------------------------------------------------------------
#
# A document is ``{"kind": NAME, FIELD: value, ...}``: the table names the
# class, the other keys are its record fields.  Nested predicates are
# documents, communities, prefix ranges and prefixes strings, the rest
# JSON scalars.


class KindTable:
    """How one format spells one family of values (route-map conditions,
    actions, spec predicates): the class each kind name stands for, the
    noun its errors use, and the message refusing each list field the
    format requires non-empty."""

    def __init__(
        self, noun: str, classes: dict[str, type], nonempty: dict[str, str] | None = None
    ) -> None:
        self.noun = noun
        self.what = f"{'an' if noun[0] in 'aeiou' else 'a'} {noun}"
        self.names = {cls: kind for kind, cls in classes.items()}
        # kind -> (class, its fields, the defaults of those that have one)
        self.classes = {kind: (cls, fields(cls), defaults(cls)) for kind, cls in classes.items()}
        self.nonempty = nonempty or {}


#: field -> (encode, decode), for the fields spelled as strings.
_SPELLED: dict[str, tuple[Callable[[Any], Any], Callable[[Any], Any]]] = {
    "community": (str, Community.parse),
    "ranges": (lambda rs: [str(r) for r in rs], lambda docs: tuple(map(PrefixRange.parse, docs))),
    "prefixes": (lambda ps: [str(p) for p in ps], lambda docs: tuple(map(Prefix.parse, docs))),
}
#: The fields holding one nested predicate; ``inners`` holds a list.
_NESTED = ("inner", "antecedent", "consequent")


def to_doc(value: Any, kinds: KindTable) -> dict[str, Any]:
    """``value`` as a document of the format ``kinds`` describes."""
    kind = kinds.names.get(type(value))
    if kind is None:
        raise TypeError(f"cannot serialise {kinds.noun} {value!r}")
    doc: dict[str, Any] = {"kind": kind}
    for name in kinds.classes[kind][1]:
        field = getattr(value, name)
        if name in _NESTED:
            field = to_doc(field, kinds)
        elif name == "inners":
            field = [to_doc(inner, kinds) for inner in field]
        elif name in _SPELLED:
            field = _SPELLED[name][0](field)
        doc[name] = field
    return doc


def from_doc(doc: Any, kinds: KindTable) -> Any:
    """The value a document of the format ``kinds`` describes.  A missing
    field raises :class:`KeyError`; a document that is not an object, a
    kind the format lacks and a list it refuses empty raise
    :class:`ValueError`."""
    kind = _object(doc, kinds.what)["kind"]
    entry = kinds.classes.get(kind) if isinstance(kind, str) else None
    if entry is None:
        raise ValueError(f"unknown {kinds.noun} kind {kind!r}")
    cls, names, given = entry
    args = []
    for name in names:
        field = doc.get(name, given[name]) if name in given else doc[name]
        if name in _NESTED:
            field = from_doc(field, kinds)
        elif name == "inners":
            field = tuple(from_doc(inner, kinds) for inner in field)
        elif name in _SPELLED:
            field = _SPELLED[name][1](field)
            if not field and name in kinds.nonempty:
                raise ValueError(kinds.nonempty[name])
        args.append(field)
    return cls(*args)


ACTION_KINDS = KindTable(
    "action",
    {
        "set-local-pref": SetLocalPref,
        "set-med": SetMed,
        "set-next-hop": SetNextHop,
        "add-community": AddCommunity,
        "delete-community": DeleteCommunity,
        "clear-communities": ClearCommunities,
        "prepend": PrependAsPath,
        "set-origin": SetOrigin,
    },
)


@cache
def condition_kinds() -> KindTable:
    """Route-map conditions: the predicate kinds a router can test (no
    ghost, ``true``, ``false`` or ``implies``), as :func:`config_to_json`
    spells them; an empty prefix or next-hop list is refused."""
    from repro.lang import predicates as p  # repro.lang imports this package

    return KindTable(
        "match",
        {
            "community": p.HasCommunity,
            "prefix": p.PrefixIn,
            "as-path-contains": p.AsPathHas,
            "as-path-length": p.AsPathLenIn,
            "origin": p.OriginIs,
            "next-hop": p.NextHopIn,
            "med": p.MedIn,
            "local-pref": p.LocalPrefIn,
            "not": p.Not,
            "any": p.AnyOf,
            "all": p.AllOf,
        },
        nonempty={
            "ranges": "prefix list must have at least one entry",
            "prefixes": "next-hop match needs at least one prefix",
        },
    )


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
        matches=tuple(
            from_doc(m, condition_kinds()) for m in _array(doc.get("matches", []), '"matches"')
        ),
        actions=tuple(
            from_doc(a, ACTION_KINDS) for a in _array(doc.get("actions", []), '"actions"')
        ),
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
    clients = _array(doc.get("rr_clients", []), '"rr_clients"')
    for client in clients:
        if not isinstance(client, str):
            raise _ill_typed('an "rr_clients" entry', "a string", client)
    rc = RouterConfig(name=name, asn=_int(doc, "asn"), rr_clients=frozenset(clients))
    neighbors = _object(doc.get("neighbors", {}), '"neighbors"')
    for peer, ndoc in neighbors.items():
        try:
            rc.neighbors[peer] = _neighbor_from_json(peer, ndoc)
        except _MALFORMED as exc:
            raise _located(f"neighbor {peer!r}", exc) from None
    topo.add_sessions(name, neighbors)
    return rc


def config_from_json(text: str) -> NetworkConfig:
    """Parse a JSON document produced by :func:`config_to_json`; see
    :func:`config_from_doc`."""
    return config_from_doc(json.loads(text))


def config_from_doc(doc: Any) -> NetworkConfig:
    """Build the network a configuration document describes, checked once.

    Raises :class:`ValueError` naming the router (and neighbor, route map,
    clause) of any missing or ill-typed field; a well-formed document of an
    inconsistent network raises one with a line per
    :meth:`NetworkConfig.validate` problem.
    """
    doc = _object(doc, "the configuration")
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
    config.require_valid()
    return config
