"""Route maps: the policy language applied on BGP peering edges.

A :class:`RouteMap` is an ordered list of clauses.  Each clause has a permit
or deny disposition, a list of match conditions (conjunctive), and a list of
attribute-modifying actions applied when a permit clause matches.  The first
matching clause decides; a route matching no clause is denied (the standard
implicit deny).

The same clause structure is interpreted twice in this system: concretely
here (:meth:`RouteMap.apply`) and symbolically in :mod:`repro.lang.transfer`.
A hypothesis test asserts the two agree on every route.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass, field, fields, is_dataclass
from typing import Sequence

from repro.bgp.prefix import Prefix, PrefixRange
from repro.bgp.route import Community, Route


# ---------------------------------------------------------------------------
# Match conditions
# ---------------------------------------------------------------------------


class Match:
    """Base class of route-map match conditions."""

    def matches(self, route: Route) -> bool:
        raise NotImplementedError


@dataclass(frozen=True)
class MatchCommunity(Match):
    """Matches routes tagged with the given community."""

    community: Community

    def matches(self, route: Route) -> bool:
        return self.community in route.communities


@dataclass(frozen=True)
class MatchPrefix(Match):
    """Matches routes whose prefix satisfies any entry of a prefix list."""

    ranges: tuple[PrefixRange, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.ranges, tuple):
            object.__setattr__(self, "ranges", tuple(self.ranges))
        if not self.ranges:
            raise ValueError("prefix list must have at least one entry")

    def matches(self, route: Route) -> bool:
        return any(r.matches(route.prefix) for r in self.ranges)


@dataclass(frozen=True)
class MatchAsPathContains(Match):
    """Matches routes whose AS path mentions the given ASN."""

    asn: int

    def matches(self, route: Route) -> bool:
        return self.asn in route.as_path


@dataclass(frozen=True)
class MatchMedRange(Match):
    """Matches routes whose MED lies in [low, high]."""

    low: int
    high: int

    def matches(self, route: Route) -> bool:
        return self.low <= route.med <= self.high


@dataclass(frozen=True)
class MatchLocalPrefRange(Match):
    """Matches routes whose local preference lies in [low, high]."""

    low: int
    high: int

    def matches(self, route: Route) -> bool:
        return self.low <= route.local_pref <= self.high


@dataclass(frozen=True)
class MatchAsPathLength(Match):
    """Matches routes whose AS-path length lies in [low, high]."""

    low: int
    high: int

    def matches(self, route: Route) -> bool:
        return self.low <= len(route.as_path) <= self.high


@dataclass(frozen=True)
class MatchOrigin(Match):
    """Matches routes with the given BGP origin code (0=IGP,1=EGP,2=?)."""

    origin: int

    def matches(self, route: Route) -> bool:
        return route.origin == self.origin


@dataclass(frozen=True)
class MatchNextHopIn(Match):
    """Matches routes whose next hop lies in any of the given prefixes."""

    prefixes: tuple["Prefix", ...]

    def __post_init__(self) -> None:
        if not isinstance(self.prefixes, tuple):
            object.__setattr__(self, "prefixes", tuple(self.prefixes))
        if not self.prefixes:
            raise ValueError("next-hop match needs at least one prefix")

    def matches(self, route: Route) -> bool:
        return any(p.contains_address(route.next_hop) for p in self.prefixes)


@dataclass(frozen=True)
class MatchNot(Match):
    """Negation of another condition."""

    inner: Match

    def matches(self, route: Route) -> bool:
        return not self.inner.matches(route)


@dataclass(frozen=True)
class MatchAny(Match):
    """Disjunction of conditions (empty = never matches)."""

    inners: tuple[Match, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.inners, tuple):
            object.__setattr__(self, "inners", tuple(self.inners))

    def matches(self, route: Route) -> bool:
        return any(m.matches(route) for m in self.inners)


@dataclass(frozen=True)
class MatchAll(Match):
    """Conjunction of conditions (empty = always matches)."""

    inners: tuple[Match, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.inners, tuple):
            object.__setattr__(self, "inners", tuple(self.inners))

    def matches(self, route: Route) -> bool:
        return all(m.matches(route) for m in self.inners)


# ---------------------------------------------------------------------------
# Actions
# ---------------------------------------------------------------------------


class Action:
    """Base class of attribute-modifying actions."""

    def apply(self, route: Route) -> Route:
        raise NotImplementedError


@dataclass(frozen=True)
class SetLocalPref(Action):
    value: int

    def apply(self, route: Route) -> Route:
        return route.with_local_pref(self.value)


@dataclass(frozen=True)
class SetMed(Action):
    value: int

    def apply(self, route: Route) -> Route:
        return route.with_med(self.value)


@dataclass(frozen=True)
class SetNextHop(Action):
    value: int

    def apply(self, route: Route) -> Route:
        return route.with_next_hop(self.value)


@dataclass(frozen=True)
class AddCommunity(Action):
    community: Community

    def apply(self, route: Route) -> Route:
        return route.add_community(self.community)


@dataclass(frozen=True)
class DeleteCommunity(Action):
    community: Community

    def apply(self, route: Route) -> Route:
        return route.delete_community(self.community)


@dataclass(frozen=True)
class ClearCommunities(Action):
    def apply(self, route: Route) -> Route:
        return route.clear_communities()


@dataclass(frozen=True)
class PrependAsPath(Action):
    asn: int
    count: int = 1

    def apply(self, route: Route) -> Route:
        return route.prepend_as(self.asn, self.count)


@dataclass(frozen=True)
class SetOrigin(Action):
    origin: int

    def __post_init__(self) -> None:
        if self.origin not in (0, 1, 2):
            raise ValueError(f"origin must be 0 (IGP), 1 (EGP), or 2, got {self.origin}")

    def apply(self, route: Route) -> Route:
        from dataclasses import replace

        return replace(route, origin=self.origin)


# ---------------------------------------------------------------------------
# Route maps
# ---------------------------------------------------------------------------


class Disposition(enum.Enum):
    PERMIT = "permit"
    DENY = "deny"


@dataclass(frozen=True)
class RouteMapClause:
    """One numbered clause: disposition, conjunctive matches, actions."""

    seq: int
    disposition: Disposition = Disposition.PERMIT
    matches: tuple[Match, ...] = ()
    actions: tuple[Action, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.matches, tuple):
            object.__setattr__(self, "matches", tuple(self.matches))
        if not isinstance(self.actions, tuple):
            object.__setattr__(self, "actions", tuple(self.actions))
        if self.disposition is Disposition.DENY and self.actions:
            raise ValueError("deny clauses cannot carry set actions")

    def matches_route(self, route: Route) -> bool:
        return all(m.matches(route) for m in self.matches)

    def apply_actions(self, route: Route) -> Route:
        for action in self.actions:
            route = action.apply(route)
        return route


@dataclass(frozen=True)
class RouteMap:
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
# converts any policy object — matches, actions, clauses, route maps, routes —
# into nested tuples of primitives where every unordered container is sorted,
# so structurally equal policies produce identical keys in every process.


def canonical_policy(obj: object) -> object:
    """A hashable, order-canonical representation of a policy object.

    Ordered containers (clause lists, AS paths, prefix lists) keep their
    order — it is semantically meaningful or at least author-chosen.
    Unordered containers (community sets, ghost mappings) are sorted.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
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
    if is_dataclass(obj):
        # Covers Match/Action subclasses, RouteMapClause, RouteMap,
        # Community, Prefix, and PrefixRange: all frozen tuples of fields.
        return (type(obj).__name__,) + tuple(
            canonical_policy(getattr(obj, f.name)) for f in fields(obj)
        )
    if isinstance(obj, tuple):
        return tuple(canonical_policy(item) for item in obj)
    if isinstance(obj, (frozenset, set)):
        return tuple(sorted(canonical_policy(item) for item in obj))
    raise TypeError(f"cannot canonicalise policy object {obj!r}")


_route_map_digests: dict[RouteMap, str] = {}


def clear_route_map_digest_memo() -> None:
    """Drop the digest memo (wired into ``reset_transfer_cache``).

    Entries are tiny (map → hex string) but accumulate one per distinct
    policy ever digested; long-lived sessions that churn through many
    configurations can reclaim them here.
    """
    _route_map_digests.clear()


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
