"""Route maps: the policy language applied on BGP peering edges.

A :class:`RouteMap` is an ordered list of clauses.  Each clause has a permit
or deny disposition, a list of match conditions (conjunctive), and a list of
attribute-modifying actions applied when a permit clause matches.  The first
matching clause decides; a route matching no clause is denied (the standard
implicit deny).

A match condition is a set of routes, so it is a
:class:`repro.lang.predicates.Predicate`, the language of properties and
invariants (named here for annotations only: :mod:`repro.lang` imports
this package).  :meth:`RouteMap.apply` calls each condition's ``holds``,
:func:`repro.lang.transfer.transfer_route_map` its ``to_term``; seeded
differential tests assert the two agree on drawn routes.
"""

from __future__ import annotations

import enum
import hashlib
from typing import TYPE_CHECKING

from repro.bgp.route import Community, Route
from repro.record import Record, Value, fields, replace

if TYPE_CHECKING:
    from repro.lang.predicates import Predicate


# ---------------------------------------------------------------------------
# Actions
# ---------------------------------------------------------------------------


class Action(Value):
    """Base class of attribute-modifying actions."""

    def apply(self, route: Route) -> Route:
        raise NotImplementedError


class SetLocalPref(Action):
    value: int

    def apply(self, route: Route) -> Route:
        return route.with_local_pref(self.value)


class SetMed(Action):
    value: int

    def apply(self, route: Route) -> Route:
        return route.with_med(self.value)


class SetNextHop(Action):
    value: int

    def apply(self, route: Route) -> Route:
        return route.with_next_hop(self.value)


class AddCommunity(Action):
    community: Community

    def apply(self, route: Route) -> Route:
        return route.add_community(self.community)


class DeleteCommunity(Action):
    community: Community

    def apply(self, route: Route) -> Route:
        return route.delete_community(self.community)


class ClearCommunities(Action):
    def apply(self, route: Route) -> Route:
        return route.clear_communities()


class PrependAsPath(Action):
    asn: int
    count: int = 1

    def apply(self, route: Route) -> Route:
        return route.prepend_as(self.asn, self.count)


class SetOrigin(Action):
    origin: int

    def __post_init__(self) -> None:
        if self.origin not in (0, 1, 2):
            raise ValueError(f"origin must be 0 (IGP), 1 (EGP), or 2, got {self.origin}")

    def apply(self, route: Route) -> Route:
        return replace(route, origin=self.origin)


# ---------------------------------------------------------------------------
# Route maps
# ---------------------------------------------------------------------------


class Disposition(enum.Enum):
    PERMIT = "permit"
    DENY = "deny"


class RouteMapClause(Value):
    """One numbered clause: disposition, conjunctive matches, actions."""

    seq: int
    disposition: Disposition = Disposition.PERMIT
    matches: tuple[Predicate, ...] = ()
    actions: tuple[Action, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.matches, tuple):
            object.__setattr__(self, "matches", tuple(self.matches))
        if not isinstance(self.actions, tuple):
            object.__setattr__(self, "actions", tuple(self.actions))
        if self.disposition is Disposition.DENY and self.actions:
            raise ValueError("deny clauses cannot carry set actions")

    def matches_route(self, route: Route) -> bool:
        return all(m.holds(route) for m in self.matches)

    def apply_actions(self, route: Route) -> Route:
        for action in self.actions:
            route = action.apply(route)
        return route


class RouteMap(Value):
    """An ordered sequence of clauses with first-match semantics."""

    name: str
    clauses: tuple[RouteMapClause, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.clauses, tuple):
            object.__setattr__(self, "clauses", tuple(self.clauses))
        seqs = [c.seq for c in self.clauses]
        if sorted(seqs) != seqs:
            raise ValueError(f"route-map {self.name!r} clauses must be in seq order")
        if len(set(seqs)) != len(seqs):
            raise ValueError(f"route-map {self.name!r} has duplicate clause numbers")

    def apply(self, route: Route) -> Route | None:
        """Run the route map; return the transformed route or None (reject)."""
        for clause in self.clauses:
            if clause.matches_route(route):
                if clause.disposition is Disposition.DENY:
                    return None
                return clause.apply_actions(route)
        return None  # implicit deny

    @staticmethod
    def permit_all(name: str = "PERMIT-ALL") -> "RouteMap":
        """A route map that accepts every route unchanged."""
        return RouteMap(name, (RouteMapClause(seq=10),))

    @staticmethod
    def deny_all(name: str = "DENY-ALL") -> "RouteMap":
        """A route map that rejects every route."""
        return RouteMap(name, (RouteMapClause(seq=10, disposition=Disposition.DENY),))


# ---------------------------------------------------------------------------
# Canonical policy fingerprints
# ---------------------------------------------------------------------------
#
# Incremental re-verification and the transfer-output cache both key on "the
# policy applied here".  ``repr`` is not a safe key: it leaks the iteration
# order of unordered containers (``frozenset`` community sets, ghost dicts),
# which varies with insertion order and hash seed.  ``canonical_policy``
# converts any policy object — conditions, actions, clauses, route maps, routes —
# into nested tuples of primitives where every unordered container is sorted,
# so structurally equal policies produce identical keys in every process.


# Record type -> its field names, filled the first time the isinstance
# chain below reaches ``Record`` for that type.  ``Route`` is matched
# earlier in the chain, so it never lands here.
_field_names: dict[type, tuple[str, ...]] = {}


def canonical_policy(obj: object) -> object:
    """A hashable, order-canonical representation of a policy object.

    Ordered containers (clause lists, AS paths, prefix lists) keep their
    order — it is semantically meaningful or at least author-chosen.
    Unordered containers (community sets, ghost mappings) are sorted.
    """
    cls = type(obj)
    names = _field_names.get(cls)
    if names is not None:
        return (cls.__name__,) + tuple(canonical_policy(getattr(obj, n)) for n in names)
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, tuple):
        return tuple(canonical_policy(item) for item in obj)
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, Route):
        return (
            "Route",
            canonical_policy(obj.prefix),
            obj.as_path,
            obj.next_hop,
            obj.local_pref,
            obj.med,
            tuple(sorted((c.asn, c.value) for c in obj.communities)),
            obj.origin,
            tuple(sorted(obj.ghost.items())),
        )
    if isinstance(obj, Record):
        # Covers predicates, Action subclasses, RouteMapClause, RouteMap,
        # Community, Prefix, and PrefixRange: all frozen tuples of fields.
        names = _field_names[cls] = fields(obj)
        return (cls.__name__,) + tuple(canonical_policy(getattr(obj, n)) for n in names)
    if isinstance(obj, (frozenset, set)):
        return tuple(sorted(canonical_policy(item) for item in obj))
    raise TypeError(f"cannot canonicalise policy object {obj!r}")


_route_map_digests: dict[RouteMap, str] = {}
_route_maps: dict[RouteMap, RouteMap] = {}


def clear_route_map_digest_memo() -> None:
    """Drop the digest memo and the interned maps (wired into
    ``reset_transfer_cache``).

    Entries are small but accumulate one per distinct policy ever digested
    or interned; long-lived sessions that churn through many
    configurations can reclaim them here.
    """
    _route_map_digests.clear()
    _route_maps.clear()


def intern_route_map(route_map: RouteMap | None) -> RouteMap | None:
    """The one instance standing for ``route_map``'s value (``None`` stays).

    A memo key holding the interned instance compares by identity on every
    later probe; holding an equal copy would walk both maps' clause trees
    each time.  The probe here pays that walk once per copy and call, as
    :func:`route_map_digest`'s memo does.
    """
    if route_map is None:
        return None
    return _route_maps.setdefault(route_map, route_map)


def route_map_digest(route_map: RouteMap | None) -> str:
    """A stable content digest of one route map (``-`` for no filter).

    Memoised by value, so structurally equal maps — including maps rebuilt
    from the same source — share one digest computation.
    """
    if route_map is None:
        return "-"
    digest = _route_map_digests.get(route_map)
    if digest is None:
        digest = hashlib.sha256(repr(canonical_policy(route_map)).encode()).hexdigest()
        _route_map_digests[route_map] = digest
    return digest
