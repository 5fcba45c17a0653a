"""Symbolic routes: one arbitrary route announcement as SMT terms.

A :class:`SymbolicRoute` mirrors the concrete :class:`repro.bgp.route.Route`
field-for-field:

=================  =============================================
prefix address     32-bit bit-vector
prefix length      6-bit bit-vector, constrained <= 32
local preference   16-bit bit-vector
MED                16-bit bit-vector
next hop           32-bit bit-vector
origin             2-bit bit-vector
AS-path length     8-bit bit-vector
communities        one boolean per universe community
AS-path members    one boolean per universe ASN
ghost attributes   one boolean per ghost name
=================  =============================================

Instances are immutable; symbolic execution produces updated copies whose
fields are ``ite`` terms over the original variables.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from operator import is_not
from typing import TYPE_CHECKING, ClassVar, Iterator, Mapping

from repro import smt
from repro.bgp.prefix import Prefix
from repro.bgp.route import Community, Route
from repro.smt.terms import Term, register_intern_dependent

if TYPE_CHECKING:  # the universe scan imports the predicates, which import this
    from repro.lang.universe import AttributeUniverse

ADDR_WIDTH = 32
LEN_WIDTH = 6
PREF_WIDTH = 16
MED_WIDTH = 16
ORIGIN_WIDTH = 2
PATHLEN_WIDTH = 8


@dataclass(frozen=True)
class SymbolicRoute:
    """A route whose attributes are SMT terms over a fixed universe."""

    universe: AttributeUniverse
    prefix_addr: Term
    prefix_len: Term
    local_pref: Term
    med: Term
    next_hop: Term
    origin: Term
    as_path_len: Term
    communities: Mapping[Community, Term]
    as_path_members: Mapping[int, Term]
    ghosts: Mapping[str, Term]

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    # fresh() is referentially transparent — the variables it mints are
    # interned by name — so the instances themselves can be shared.  Local
    # checks create the same "r" route thousands of times per sweep; the
    # cache turns that into one dict hit per check.  It must die with the
    # intern table: route fields compare by term identity.
    _fresh_cache: ClassVar[dict[tuple[str, AttributeUniverse], "SymbolicRoute"]] = {}

    @classmethod
    def fresh(cls, name: str, universe: AttributeUniverse) -> "SymbolicRoute":
        """A fully symbolic route; variable names are prefixed by ``name``.

        Instances are cached per ``(name, universe)``: terms are interned,
        so two calls would produce field-for-field identical routes anyway,
        and every update method copies before mutating.
        """
        cached = cls._fresh_cache.get((name, universe))
        if cached is not None:
            return cached
        route = cls._fresh_uncached(name, universe)
        cls._fresh_cache[(name, universe)] = route
        return route

    @classmethod
    def _fresh_uncached(cls, name: str, universe: AttributeUniverse) -> "SymbolicRoute":
        return cls(
            universe=universe,
            prefix_addr=smt.bv_var(f"{name}.addr", ADDR_WIDTH),
            prefix_len=smt.bv_var(f"{name}.plen", LEN_WIDTH),
            local_pref=smt.bv_var(f"{name}.lp", PREF_WIDTH),
            med=smt.bv_var(f"{name}.med", MED_WIDTH),
            next_hop=smt.bv_var(f"{name}.nh", ADDR_WIDTH),
            origin=smt.bv_var(f"{name}.origin", ORIGIN_WIDTH),
            as_path_len=smt.bv_var(f"{name}.pathlen", PATHLEN_WIDTH),
            communities={
                c: smt.bool_var(f"{name}.comm.{c}") for c in universe.communities
            },
            as_path_members={
                a: smt.bool_var(f"{name}.aspath.{a}") for a in universe.asns
            },
            ghosts={g: smt.bool_var(f"{name}.ghost.{g}") for g in universe.ghosts},
        )

    @classmethod
    def concrete(cls, route: Route, universe: AttributeUniverse) -> "SymbolicRoute":
        """Embed a concrete route as constant terms."""
        return cls(
            universe=universe,
            prefix_addr=smt.bv_const(route.prefix.address, ADDR_WIDTH),
            prefix_len=smt.bv_const(route.prefix.length, LEN_WIDTH),
            local_pref=smt.bv_const(route.local_pref, PREF_WIDTH),
            med=smt.bv_const(route.med, MED_WIDTH),
            next_hop=smt.bv_const(route.next_hop, ADDR_WIDTH),
            origin=smt.bv_const(route.origin, ORIGIN_WIDTH),
            as_path_len=smt.bv_const(len(route.as_path), PATHLEN_WIDTH),
            communities={
                c: smt.true() if c in route.communities else smt.false()
                for c in universe.communities
            },
            as_path_members={
                a: smt.true() if a in route.as_path else smt.false()
                for a in universe.asns
            },
            ghosts={
                g: smt.true() if route.ghost_value(g) else smt.false()
                for g in universe.ghosts
            },
        )

    # ------------------------------------------------------------------
    # Memoisation support
    # ------------------------------------------------------------------

    _token_counter: ClassVar[Iterator[int]] = itertools.count(1)

    def instance_token(self) -> int:
        """A process-unique token branding this instance for memo keys.

        The lang-layer caches (transfer outputs, predicate terms) key on
        "which route" far more often than they can afford a structural key
        over every field term, so each instance is stamped with a counter
        on first use.  Tokens are never reused, and the hot inputs are
        themselves interned instances (``fresh`` is cached per universe),
        so equal routes that matter share a token.  (A racing re-stamp of
        the same instance is harmless: both tokens are unique, the loser's
        cache entries just go cold.)
        """
        token = self.__dict__.get("_instance_token")
        if token is None:
            token = next(SymbolicRoute._token_counter)
            object.__setattr__(self, "_instance_token", token)
        return token

    # ------------------------------------------------------------------
    # Well-formedness
    # ------------------------------------------------------------------

    def well_formed(self) -> Term:
        """Structural constraints every real route satisfies.

        Cached on the instance (fields are immutable, updates copy): every
        filter and implication check asks the one cached ``fresh`` route.
        """
        term = self.__dict__.get("_well_formed")
        if term is None:
            term = smt.bv_ule(self.prefix_len, smt.bv_const(32, LEN_WIDTH))
            object.__setattr__(self, "_well_formed", term)
        return term

    # ------------------------------------------------------------------
    # Field access helpers
    # ------------------------------------------------------------------

    # Every constructor keys the field dicts by exactly the universe's
    # values, so membership is one dict probe; the universe's own (linear)
    # ``require_*`` runs only on a miss, to raise its error.

    def community_term(self, comm: Community) -> Term:
        if comm not in self.communities:
            self.universe.require_community(comm)
        return self.communities[comm]

    def as_path_member_term(self, asn: int) -> Term:
        if asn not in self.as_path_members:
            self.universe.require_asn(asn)
        return self.as_path_members[asn]

    def ghost_term(self, name: str) -> Term:
        if name not in self.ghosts:
            self.universe.require_ghost(name)
        return self.ghosts[name]

    # ------------------------------------------------------------------
    # Functional updates (used by symbolic execution)
    # ------------------------------------------------------------------

    def with_field(self, **updates: object) -> "SymbolicRoute":
        return replace(self, **updates)  # type: ignore[arg-type]

    def with_community(self, comm: Community, value: Term) -> "SymbolicRoute":
        if comm not in self.communities:
            self.universe.require_community(comm)
        comms = dict(self.communities)
        comms[comm] = value
        return replace(self, communities=comms)

    def with_all_communities(self, value: Term) -> "SymbolicRoute":
        return replace(self, communities={c: value for c in self.communities})

    def with_as_path_member(self, asn: int, value: Term) -> "SymbolicRoute":
        if asn not in self.as_path_members:
            self.universe.require_asn(asn)
        members = dict(self.as_path_members)
        members[asn] = value
        return replace(self, as_path_members=members)

    def with_ghost(self, name: str, value: Term) -> "SymbolicRoute":
        if name not in self.ghosts:
            self.universe.require_ghost(name)
        ghosts = dict(self.ghosts)
        ghosts[name] = value
        return replace(self, ghosts=ghosts)

    def merge(self, cond: Term, other: "SymbolicRoute") -> "SymbolicRoute":
        """Pointwise ``ite(cond, self, other)`` over every field.

        ``ite`` is built only where the two terms differ (``ite(c, t, t)``
        is ``t``): a route-map clause changes one or two of a few hundred
        attributes.  Both routes must list each map's keys in the same order
        (every constructor keys them by the universe).  Each result map
        starts from ``other``'s and is ``other``'s own map when nothing
        differs.
        """
        ite = smt.ite

        def pick(then: Term, els: Term) -> Term:
            return els if then is els else ite(cond, then, els)

        def pointwise(then: Mapping, els: Mapping) -> Mapping:
            if then is els:
                return els
            keys = list(els)
            if list(then) != keys:
                raise ValueError("merged routes must key their attributes alike")
            # Same keys in the same order: compare the terms pairwise in C.
            changed = list(itertools.compress(keys, map(is_not, then.values(), els.values())))
            if not changed:
                return els
            merged = dict(els)
            for key in changed:
                merged[key] = ite(cond, then[key], els[key])
            return merged

        return SymbolicRoute(
            universe=self.universe,
            prefix_addr=pick(self.prefix_addr, other.prefix_addr),
            prefix_len=pick(self.prefix_len, other.prefix_len),
            local_pref=pick(self.local_pref, other.local_pref),
            med=pick(self.med, other.med),
            next_hop=pick(self.next_hop, other.next_hop),
            origin=pick(self.origin, other.origin),
            as_path_len=pick(self.as_path_len, other.as_path_len),
            communities=pointwise(self.communities, other.communities),
            as_path_members=pointwise(self.as_path_members, other.as_path_members),
            ghosts=pointwise(self.ghosts, other.ghosts),
        )

    # ------------------------------------------------------------------
    # Model extraction
    # ------------------------------------------------------------------

    def evaluate(self, model: "smt.Model") -> Route:
        """Read a concrete route out of a satisfying model.

        The AS path is reconstructed as an (ordered arbitrarily) list of the
        universe ASNs marked present, padded to the modelled length with an
        ASN outside the universe (which no condition distinguishes), so the
        route meets the length conditions the query did; real paths hold
        other ASNs, so the reported path is representative, not exact.
        """
        length = min(model.eval_bv(self.prefix_len), 32)
        address = model.eval_bv(self.prefix_addr)
        mask = (0xFFFFFFFF << (32 - length)) & 0xFFFFFFFF if length else 0
        members = [
            asn for asn, term in sorted(self.as_path_members.items())
            if model.eval_bool(term)
        ]
        outside = max(self.as_path_members, default=0) + 1
        padding = model.eval_bv(self.as_path_len) - len(members)
        return Route(
            prefix=Prefix(address & mask, length),
            as_path=tuple(members) + (outside,) * padding,
            next_hop=model.eval_bv(self.next_hop),
            local_pref=model.eval_bv(self.local_pref),
            med=model.eval_bv(self.med),
            origin=model.eval_bv(self.origin) % 3,
            communities=frozenset(
                c for c, term in self.communities.items() if model.eval_bool(term)
            ),
            ghost={g: model.eval_bool(t) for g, t in self.ghosts.items()},
        )


register_intern_dependent(SymbolicRoute._fresh_cache.clear)
