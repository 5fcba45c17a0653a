"""The predicate DSL: the language of invariants, constraints, and properties.

Users of Lightyear state a property as a set of routes ``P`` and invariants
as per-location route sets ``I_l`` (§4.1).  A :class:`Predicate` is a finite
description of such a set that can be interpreted twice:

* symbolically — :meth:`Predicate.to_term` produces an SMT term over a
  :class:`SymbolicRoute`, used in generated local checks;
* concretely — :meth:`Predicate.holds` evaluates a real :class:`Route`,
  used to cross-validate verified properties against simulator traces and
  to explain counterexamples.

:func:`prefix_projection` computes a sound over-approximation of the §5.2
set ``Prefix(C_i)`` used in no-interference checks.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import smt
from repro.bgp.prefix import Prefix, PrefixRange
from repro.bgp.route import Community, Route
from repro.lang.symroute import ADDR_WIDTH, LEN_WIDTH, SymbolicRoute
from repro.smt.terms import Term, register_intern_dependent


@dataclass
class TermCacheStats:
    """Hit/miss counters for a lang-layer term-construction cache."""

    hits: int = 0
    misses: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


# Predicate-term memoisation: every local check lowers its assumption and
# goal predicates against (usually) the one canonical symbolic route of the
# sweep, so ``predicate_term`` caches ``pred.to_term(route)`` keyed by
# (route instance token, predicate-by-value).  Entries are interned terms,
# so the cache dies with the intern table like every other term-identity
# cache.  The on/off switch is driven by the lang-layer master toggle in
# :mod:`repro.lang.transfer`.

_term_cache_enabled: bool = True
_term_cache: dict[tuple, Term] = {}
_term_stats = TermCacheStats()


def set_predicate_term_cache_enabled(enabled: bool) -> bool:
    global _term_cache_enabled
    previous = _term_cache_enabled
    _term_cache_enabled = bool(enabled)
    return previous


def predicate_term_cache_stats() -> TermCacheStats:
    return TermCacheStats(hits=_term_stats.hits, misses=_term_stats.misses)


def reset_predicate_term_cache() -> None:
    _term_cache.clear()
    _term_stats.hits = 0
    _term_stats.misses = 0


register_intern_dependent(_term_cache.clear)


def predicate_term(pred: "Predicate", route: SymbolicRoute) -> Term:
    """``pred.to_term(route)``, memoised per (route instance, predicate)."""
    if not _term_cache_enabled:
        return pred.to_term(route)
    key = (route.instance_token(), pred)
    term = _term_cache.get(key)
    if term is not None:
        _term_stats.hits += 1
        return term
    _term_stats.misses += 1
    term = pred.to_term(route)
    _term_cache[key] = term
    return term


class Predicate:
    """Base class: a decidable set of routes."""

    def to_term(self, route: SymbolicRoute) -> Term:
        raise NotImplementedError

    def holds(self, route: Route) -> bool:
        raise NotImplementedError

    # Convenience combinators ------------------------------------------------

    def __and__(self, other: "Predicate") -> "Predicate":
        return AllOf((self, other))

    def __or__(self, other: "Predicate") -> "Predicate":
        return AnyOf((self, other))

    def __invert__(self) -> "Predicate":
        return Not(self)

    def implies(self, other: "Predicate") -> "Predicate":
        return Implies(self, other)


@dataclass(frozen=True)
class TruePred(Predicate):
    """All routes (the unconstrained external-edge invariant)."""

    def to_term(self, route: SymbolicRoute) -> Term:
        return smt.true()

    def holds(self, route: Route) -> bool:
        return True

    def __repr__(self) -> str:
        return "True"


@dataclass(frozen=True)
class FalsePred(Predicate):
    """No routes (a location no route may ever reach)."""

    def to_term(self, route: SymbolicRoute) -> Term:
        return smt.false()

    def holds(self, route: Route) -> bool:
        return False

    def __repr__(self) -> str:
        return "False"


@dataclass(frozen=True)
class HasCommunity(Predicate):
    """Routes tagged with a community: ``c in Comm(r)``."""

    community: Community

    def to_term(self, route: SymbolicRoute) -> Term:
        return route.community_term(self.community)

    def holds(self, route: Route) -> bool:
        return self.community in route.communities

    def __repr__(self) -> str:
        return f"{self.community} in Comm(r)"


@dataclass(frozen=True)
class PrefixIn(Predicate):
    """Routes whose prefix matches some entry of a prefix list."""

    ranges: tuple[PrefixRange, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.ranges, tuple):
            object.__setattr__(self, "ranges", tuple(self.ranges))

    @classmethod
    def exact(cls, prefix: Prefix) -> "PrefixIn":
        return cls((PrefixRange.exact(prefix),))

    @classmethod
    def under(cls, prefix: Prefix) -> "PrefixIn":
        """The prefix and everything more specific."""
        return cls((PrefixRange(prefix, prefix.length, 32),))

    def to_term(self, route: SymbolicRoute) -> Term:
        return smt.or_(_range_term(r, route) for r in self.ranges)

    def holds(self, route: Route) -> bool:
        return any(r.matches(route.prefix) for r in self.ranges)

    def __repr__(self) -> str:
        return f"Prefix(r) in {{{', '.join(str(r) for r in self.ranges)}}}"


@dataclass(frozen=True)
class GhostIs(Predicate):
    """Routes whose ghost attribute has the given value."""

    name: str
    value: bool = True

    def to_term(self, route: SymbolicRoute) -> Term:
        term = route.ghost_term(self.name)
        return term if self.value else smt.not_(term)

    def holds(self, route: Route) -> bool:
        return route.ghost_value(self.name) is self.value

    def __repr__(self) -> str:
        return f"{self.name}(r)" if self.value else f"not {self.name}(r)"


@dataclass(frozen=True)
class AsPathHas(Predicate):
    """Routes whose AS path mentions an ASN."""

    asn: int

    def to_term(self, route: SymbolicRoute) -> Term:
        return route.as_path_member_term(self.asn)

    def holds(self, route: Route) -> bool:
        return self.asn in route.as_path

    def __repr__(self) -> str:
        return f"{self.asn} in ASPath(r)"


@dataclass(frozen=True)
class LocalPrefIn(Predicate):
    """Routes with local preference in [low, high]."""

    low: int
    high: int

    def to_term(self, route: SymbolicRoute) -> Term:
        from repro.lang.symroute import PREF_WIDTH

        return smt.and_(
            smt.bv_ule(smt.bv_const(self.low, PREF_WIDTH), route.local_pref),
            smt.bv_ule(route.local_pref, smt.bv_const(self.high, PREF_WIDTH)),
        )

    def holds(self, route: Route) -> bool:
        return self.low <= route.local_pref <= self.high

    def __repr__(self) -> str:
        return f"LocalPref(r) in [{self.low}, {self.high}]"


@dataclass(frozen=True)
class MedIn(Predicate):
    """Routes with MED in [low, high]."""

    low: int
    high: int

    def to_term(self, route: SymbolicRoute) -> Term:
        from repro.lang.symroute import MED_WIDTH

        return smt.and_(
            smt.bv_ule(smt.bv_const(self.low, MED_WIDTH), route.med),
            smt.bv_ule(route.med, smt.bv_const(self.high, MED_WIDTH)),
        )

    def holds(self, route: Route) -> bool:
        return self.low <= route.med <= self.high

    def __repr__(self) -> str:
        return f"MED(r) in [{self.low}, {self.high}]"


@dataclass(frozen=True)
class AsPathLenIn(Predicate):
    """Routes whose AS-path length lies in [low, high]."""

    low: int
    high: int

    def to_term(self, route: SymbolicRoute) -> Term:
        from repro.lang.symroute import PATHLEN_WIDTH

        return smt.and_(
            smt.bv_ule(smt.bv_const(self.low, PATHLEN_WIDTH), route.as_path_len),
            smt.bv_ule(route.as_path_len, smt.bv_const(self.high, PATHLEN_WIDTH)),
        )

    def holds(self, route: Route) -> bool:
        return self.low <= len(route.as_path) <= self.high

    def __repr__(self) -> str:
        return f"|ASPath(r)| in [{self.low}, {self.high}]"


@dataclass(frozen=True)
class OriginIs(Predicate):
    """Routes with the given BGP origin code."""

    origin: int

    def to_term(self, route: SymbolicRoute) -> Term:
        from repro.lang.symroute import ORIGIN_WIDTH

        return smt.bv_eq(route.origin, smt.bv_const(self.origin, ORIGIN_WIDTH))

    def holds(self, route: Route) -> bool:
        return route.origin == self.origin

    def __repr__(self) -> str:
        return f"Origin(r) = {self.origin}"


@dataclass(frozen=True)
class NextHopIn(Predicate):
    """Routes whose next hop falls in any of the given prefixes."""

    prefixes: tuple[Prefix, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.prefixes, tuple):
            object.__setattr__(self, "prefixes", tuple(self.prefixes))

    def to_term(self, route: SymbolicRoute) -> Term:
        return smt.or_(
            smt.bv_eq(
                smt.bv_and(route.next_hop, smt.bv_const(p.mask, ADDR_WIDTH)),
                smt.bv_const(p.address, ADDR_WIDTH),
            )
            for p in self.prefixes
        )

    def holds(self, route: Route) -> bool:
        return any(p.contains_address(route.next_hop) for p in self.prefixes)

    def __repr__(self) -> str:
        return f"NextHop(r) in {{{', '.join(str(p) for p in self.prefixes)}}}"


@dataclass(frozen=True)
class Not(Predicate):
    inner: Predicate

    def to_term(self, route: SymbolicRoute) -> Term:
        return smt.not_(self.inner.to_term(route))

    def holds(self, route: Route) -> bool:
        return not self.inner.holds(route)

    def __repr__(self) -> str:
        return f"not ({self.inner!r})"


@dataclass(frozen=True)
class AllOf(Predicate):
    inners: tuple[Predicate, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.inners, tuple):
            object.__setattr__(self, "inners", tuple(self.inners))

    def to_term(self, route: SymbolicRoute) -> Term:
        return smt.and_(p.to_term(route) for p in self.inners)

    def holds(self, route: Route) -> bool:
        return all(p.holds(route) for p in self.inners)

    def __repr__(self) -> str:
        return " and ".join(f"({p!r})" for p in self.inners) or "True"


@dataclass(frozen=True)
class AnyOf(Predicate):
    inners: tuple[Predicate, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.inners, tuple):
            object.__setattr__(self, "inners", tuple(self.inners))

    def to_term(self, route: SymbolicRoute) -> Term:
        return smt.or_(p.to_term(route) for p in self.inners)

    def holds(self, route: Route) -> bool:
        return any(p.holds(route) for p in self.inners)

    def __repr__(self) -> str:
        return " or ".join(f"({p!r})" for p in self.inners) or "False"


@dataclass(frozen=True)
class Implies(Predicate):
    antecedent: Predicate
    consequent: Predicate

    def to_term(self, route: SymbolicRoute) -> Term:
        return smt.implies(self.antecedent.to_term(route), self.consequent.to_term(route))

    def holds(self, route: Route) -> bool:
        return (not self.antecedent.holds(route)) or self.consequent.holds(route)

    def __repr__(self) -> str:
        return f"({self.antecedent!r}) => ({self.consequent!r})"


# ---------------------------------------------------------------------------
# Prefix-range encoding and prefix projection
# ---------------------------------------------------------------------------


def _range_term(prange: PrefixRange, route: SymbolicRoute) -> Term:
    """Encode ``prange.matches(route.prefix)`` as a term.

    Matching a constant prefix is a masked equality on the address plus
    bounds on the length — no shifting by a symbolic amount is needed.
    """
    mask = prange.prefix.mask
    addr_ok = smt.bv_eq(
        smt.bv_and(route.prefix_addr, smt.bv_const(mask, ADDR_WIDTH)),
        smt.bv_const(prange.prefix.address, ADDR_WIDTH),
    )
    len_lo = smt.bv_ule(smt.bv_const(prange.min_length, LEN_WIDTH), route.prefix_len)
    len_hi = smt.bv_ule(route.prefix_len, smt.bv_const(prange.max_length, LEN_WIDTH))
    return smt.and_(addr_ok, len_lo, len_hi)


def predicate_atoms(
    pred: Predicate,
) -> tuple[set[Community], set[int], set[str]]:
    """Collect the communities, ASNs, and ghost names a predicate mentions.

    Verification universes must include every value a property or invariant
    distinguishes, even when no route map mentions it.
    """
    communities: set[Community] = set()
    asns: set[int] = set()
    ghosts: set[str] = set()

    def walk(p: Predicate) -> None:
        if isinstance(p, HasCommunity):
            communities.add(p.community)
        elif isinstance(p, AsPathHas):
            asns.add(p.asn)
        elif isinstance(p, GhostIs):
            ghosts.add(p.name)
        elif isinstance(p, Not):
            walk(p.inner)
        elif isinstance(p, (AllOf, AnyOf)):
            for inner in p.inners:
                walk(inner)
        elif isinstance(p, Implies):
            walk(p.antecedent)
            walk(p.consequent)

    walk(pred)
    return communities, asns, ghosts


def prefix_projection(pred: Predicate) -> tuple[PrefixRange, ...] | None:
    """A sound over-approximation of ``Prefix(C)`` from §5.2.

    Returns prefix ranges covering every prefix of every route in ``pred``,
    or ``None`` meaning "all prefixes".  The approximation is syntactic: a
    top-level :class:`PrefixIn` conjunct gives its ranges; disjunctions take
    unions; anything else widens to all prefixes.  Over-approximating is
    sound here because a *larger* prefix set makes the generated
    no-interference safety property *stronger*.
    """
    if isinstance(pred, PrefixIn):
        return pred.ranges
    if isinstance(pred, AllOf):
        for inner in pred.inners:
            ranges = prefix_projection(inner)
            if ranges is not None:
                return ranges
        return None
    if isinstance(pred, AnyOf):
        collected: list[PrefixRange] = []
        for inner in pred.inners:
            ranges = prefix_projection(inner)
            if ranges is None:
                return None
            collected.extend(ranges)
        return tuple(collected)
    if isinstance(pred, FalsePred):
        return ()
    return None
