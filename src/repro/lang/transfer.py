"""Symbolic execution of route maps: the transfer functions of the checks.

Every Lightyear local check constrains ``r' = Import(edge, r)`` or
``r' = Export(edge, r)`` for a single edge (§4.2).  This module produces
those relations symbolically: given a :class:`SymbolicRoute` ``r``, it
returns a pair ``(accepted, r')`` where ``accepted`` is a boolean term
("the filter did not reject") and ``r'`` is a symbolic route whose fields
are ``ite`` terms mirroring the route map's first-match semantics.

The lifted semantics matches :class:`repro.bgp.config.NetworkConfig`'s
concrete functions exactly — including eBGP AS-path prepending on export —
and additionally applies ghost-attribute updates (§4.4), which only exist
at this level.

Transfer-output memoisation
---------------------------

Symbolic execution dominates large sweeps: a full mesh runs the *same*
filter (by content) on hundreds of edges, rebuilding identical term DAGs
each time.  ``transfer_import`` / ``transfer_export`` / ``symbolic_
originated`` are therefore memoised.  The cache key is everything the
output depends on — never the edge or router name itself:

* the **policy content digest** of the route map applied on the edge
  (:func:`repro.bgp.policy.route_map_digest`, order-canonical, ``-`` for
  "no filter"); for exports additionally the prepended own ASN when the
  session is eBGP (``None`` otherwise);
* the **direction** (import/export) — i.e. which concrete semantics apply;
* the **peer-class ghost updates**: the sorted ``(name, value)`` pairs of
  ghost constants written on this edge in this direction.  Edges whose
  ghost discipline agrees (e.g. "every non-source external import") share
  entries regardless of which peer they face;
* the **input route key**: the interned terms of every field of the input
  :class:`SymbolicRoute` plus its universe.  Terms are hash-consed, so
  the canonical fresh route ``r`` of a sweep keys identically across all
  checks, while chained liveness inputs key by their own structure.

Invalidation: cached values are interned-term graphs, so the caches are
registered with :func:`repro.smt.terms.register_intern_dependent` and die
with the intern table — exactly like ``SymbolicRoute.fresh``'s cache.
There is no other invalidation rule, because every mutable input is part
of the key (a config edit changes the route-map digest, a different ghost
discipline changes the update pairs).  A companion cache in
:mod:`repro.lang.predicates` memoises predicate lowering the same way
(keyed by route instance token + predicate value).
``set_transfer_cache_enabled`` / ``transfer_cache_disabled`` switch both
layers for differential testing, and ``transfer_cache_stats`` /
``predicate_term_cache_stats`` expose hit/miss counters for benchmarks.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Sequence

from repro import smt
from repro.bgp.config import NetworkConfig
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
    SetLocalPref,
    SetMed,
    SetNextHop,
    SetOrigin,
    canonical_policy,
    clear_route_map_digest_memo,
    route_map_digest,
)
from repro.bgp.topology import Edge
from repro.lang.ghost import GhostAttribute
from repro.lang.predicates import (
    TermCacheStats,
    _range_term,
    reset_predicate_term_cache,
    set_predicate_term_cache_enabled,
)
from repro.lang.symroute import (
    MED_WIDTH,
    PATHLEN_WIDTH,
    PREF_WIDTH,
    ADDR_WIDTH,
    SymbolicRoute,
)
from repro.smt.terms import Term, register_intern_dependent


# ---------------------------------------------------------------------------
# Transfer-output cache (see module docstring for the key/invalidation rules)
# ---------------------------------------------------------------------------


# Counter shape shared with the predicate-term cache in
# :mod:`repro.lang.predicates`; re-exported under the transfer name.
TransferCacheStats = TermCacheStats

_cache_enabled: bool = True
_transfer_cache: dict[tuple, tuple[Term, SymbolicRoute]] = {}
_originate_cache: dict[tuple, tuple[SymbolicRoute, ...]] = {}
_stats = TransferCacheStats()


def transfer_cache_enabled() -> bool:
    return _cache_enabled


def set_transfer_cache_enabled(enabled: bool) -> bool:
    """Turn lang-layer memoisation on or off; returns the previous setting.

    This is the master switch for term-construction caching: it covers the
    transfer-output caches here *and* the predicate-term cache in
    :mod:`repro.lang.predicates`, so "cache disabled" means every check
    re-derives its terms from scratch.
    """
    global _cache_enabled
    previous = _cache_enabled
    _cache_enabled = bool(enabled)
    set_predicate_term_cache_enabled(enabled)
    return previous


@contextmanager
def transfer_cache_disabled() -> Iterator[None]:
    """Run a block with memoisation off (for differential testing)."""
    previous = set_transfer_cache_enabled(False)
    try:
        yield
    finally:
        set_transfer_cache_enabled(previous)


def transfer_cache_stats() -> TransferCacheStats:
    """A snapshot of the cache counters since the last reset."""
    return TransferCacheStats(hits=_stats.hits, misses=_stats.misses)


def reset_transfer_cache() -> None:
    """Drop all cached lang-layer terms and zero the counters."""
    _transfer_cache.clear()
    _originate_cache.clear()
    _stats.hits = 0
    _stats.misses = 0
    reset_predicate_term_cache()
    clear_route_map_digest_memo()


def _clear_cache_entries() -> None:
    # Intern-table teardown: entries hold interned terms and must die with
    # them; the counters survive (they describe history, not live state).
    _transfer_cache.clear()
    _originate_cache.clear()


register_intern_dependent(_clear_cache_entries)


def _route_key(route: SymbolicRoute) -> int:
    """A cheap per-instance token identifying the input route.

    A structural key (a tuple of all field terms) would cost more to build
    and hash than the no-op transfers it guards — so routes are branded
    with :meth:`SymbolicRoute.instance_token` instead.  Sharing is not
    lost: every hot input is an *interned instance* (``fresh`` is cached
    per universe, ``symbolic_originated`` has its own structural cache),
    so identical inputs carry identical tokens.  Distinct-but-equal
    instances (chained liveness outputs) miss the cache and recompute,
    which is sound — interning makes the recomputed terms identical.
    """
    return route.instance_token()


def _ghost_update_key(
    edge: Edge, ghosts: Sequence[GhostAttribute], direction: str
) -> tuple:
    """The ghost constants written on this edge, as sorted (name, value) pairs.

    Ghost updates commute (each writes its own field), so sorting by name
    canonicalises without changing the produced route.
    """
    applied = []
    for ghost in ghosts:
        update = (
            ghost.import_update(edge) if direction == "import" else ghost.export_update(edge)
        )
        if update is not None:
            applied.append((ghost.name, update))
    return tuple(sorted(applied))


# ---------------------------------------------------------------------------
# Match and action encoding
# ---------------------------------------------------------------------------


def match_term(match: Match, route: SymbolicRoute) -> Term:
    """Encode ``match.matches(route)`` as a boolean term."""
    if isinstance(match, MatchCommunity):
        return route.community_term(match.community)
    if isinstance(match, MatchPrefix):
        return smt.or_(_range_term(r, route) for r in match.ranges)
    if isinstance(match, MatchAsPathContains):
        return route.as_path_member_term(match.asn)
    if isinstance(match, MatchMedRange):
        return smt.and_(
            smt.bv_ule(smt.bv_const(match.low, MED_WIDTH), route.med),
            smt.bv_ule(route.med, smt.bv_const(match.high, MED_WIDTH)),
        )
    if isinstance(match, MatchLocalPrefRange):
        return smt.and_(
            smt.bv_ule(smt.bv_const(match.low, PREF_WIDTH), route.local_pref),
            smt.bv_ule(route.local_pref, smt.bv_const(match.high, PREF_WIDTH)),
        )
    if isinstance(match, MatchAsPathLength):
        return smt.and_(
            smt.bv_ule(smt.bv_const(match.low, PATHLEN_WIDTH), route.as_path_len),
            smt.bv_ule(route.as_path_len, smt.bv_const(match.high, PATHLEN_WIDTH)),
        )
    if isinstance(match, MatchOrigin):
        from repro.lang.symroute import ORIGIN_WIDTH

        return smt.bv_eq(route.origin, smt.bv_const(match.origin, ORIGIN_WIDTH))
    if isinstance(match, MatchNextHopIn):
        return smt.or_(
            smt.bv_eq(
                smt.bv_and(route.next_hop, smt.bv_const(p.mask, ADDR_WIDTH)),
                smt.bv_const(p.address, ADDR_WIDTH),
            )
            for p in match.prefixes
        )
    if isinstance(match, MatchNot):
        return smt.not_(match_term(match.inner, route))
    if isinstance(match, MatchAny):
        return smt.or_(match_term(m, route) for m in match.inners)
    if isinstance(match, MatchAll):
        return smt.and_(match_term(m, route) for m in match.inners)
    raise TypeError(f"cannot encode match {match!r}")


def apply_action(action: Action, route: SymbolicRoute) -> SymbolicRoute:
    """Apply one set-action symbolically."""
    if isinstance(action, SetLocalPref):
        return route.with_field(local_pref=smt.bv_const(action.value, PREF_WIDTH))
    if isinstance(action, SetMed):
        return route.with_field(med=smt.bv_const(action.value, MED_WIDTH))
    if isinstance(action, SetNextHop):
        return route.with_field(next_hop=smt.bv_const(action.value, ADDR_WIDTH))
    if isinstance(action, AddCommunity):
        return route.with_community(action.community, smt.true())
    if isinstance(action, DeleteCommunity):
        return route.with_community(action.community, smt.false())
    if isinstance(action, ClearCommunities):
        return route.with_all_communities(smt.false())
    if isinstance(action, PrependAsPath):
        updated = route.with_as_path_member(action.asn, smt.true())
        return updated.with_field(
            as_path_len=smt.bv_add(
                route.as_path_len, smt.bv_const(action.count, PATHLEN_WIDTH)
            )
        )
    if isinstance(action, SetOrigin):
        from repro.lang.symroute import ORIGIN_WIDTH

        return route.with_field(origin=smt.bv_const(action.origin, ORIGIN_WIDTH))
    raise TypeError(f"cannot encode action {action!r}")


# ---------------------------------------------------------------------------
# Route-map transfer
# ---------------------------------------------------------------------------


def transfer_route_map(
    route_map: RouteMap | None, route: SymbolicRoute
) -> tuple[Term, SymbolicRoute]:
    """Symbolically execute a route map on ``route``.

    Returns ``(accepted, output)``.  ``route_map=None`` is the identity
    permit (no filter configured on the session), matching the concrete
    semantics.  When ``accepted`` is false the output fields are
    unconstrained garbage and must not be used.
    """
    if route_map is None:
        return smt.true(), route

    accepted: Term = smt.false()  # implicit deny when nothing matches
    output = route
    for clause in reversed(route_map.clauses):
        cond = smt.and_(match_term(m, route) for m in clause.matches)
        if clause.disposition is Disposition.DENY:
            accepted = smt.ite(cond, smt.false(), accepted)
        else:
            applied = route
            for action in clause.actions:
                applied = apply_action(action, applied)
            accepted = smt.ite(cond, smt.true(), accepted)
            output = applied.merge(cond, output)
    return accepted, output


# ---------------------------------------------------------------------------
# Edge-level Import / Export / Originate
# ---------------------------------------------------------------------------


def _apply_ghost_updates(
    route: SymbolicRoute,
    edge: Edge,
    ghosts: Sequence[GhostAttribute],
    direction: str,
) -> SymbolicRoute:
    for ghost in ghosts:
        update = (
            ghost.import_update(edge) if direction == "import" else ghost.export_update(edge)
        )
        if update is not None:
            route = route.with_ghost(ghost.name, smt.true() if update else smt.false())
    return route


def transfer_import(
    config: NetworkConfig,
    edge: Edge,
    route: SymbolicRoute,
    ghosts: Sequence[GhostAttribute] = (),
) -> tuple[Term, SymbolicRoute]:
    """``Import(edge, r)`` as (accepted, r'), with ghost updates applied."""
    if not _cache_enabled:
        return _transfer_import_uncached(config, edge, route, ghosts)
    key = (
        "import",
        route_map_digest(config.import_map(edge)),
        _ghost_update_key(edge, ghosts, "import"),
        _route_key(route),
    )
    cached = _transfer_cache.get(key)
    if cached is not None:
        _stats.hits += 1
        return cached
    _stats.misses += 1
    result = _transfer_import_uncached(config, edge, route, ghosts)
    _transfer_cache[key] = result
    return result


def _transfer_import_uncached(
    config: NetworkConfig,
    edge: Edge,
    route: SymbolicRoute,
    ghosts: Sequence[GhostAttribute],
) -> tuple[Term, SymbolicRoute]:
    accepted, output = transfer_route_map(config.import_map(edge), route)
    output = _apply_ghost_updates(output, edge, ghosts, "import")
    return accepted, output


def transfer_export(
    config: NetworkConfig,
    edge: Edge,
    route: SymbolicRoute,
    ghosts: Sequence[GhostAttribute] = (),
) -> tuple[Term, SymbolicRoute]:
    """``Export(edge, r)`` as (accepted, r'), with prepend and ghosts."""
    prepend_asn = (
        config.routers[edge.src].asn
        if edge.src in config.routers and config.is_ebgp(edge)
        else None
    )
    if not _cache_enabled:
        return _transfer_export_uncached(config, edge, route, ghosts, prepend_asn)
    key = (
        "export",
        route_map_digest(config.export_map(edge)),
        prepend_asn,
        _ghost_update_key(edge, ghosts, "export"),
        _route_key(route),
    )
    cached = _transfer_cache.get(key)
    if cached is not None:
        _stats.hits += 1
        return cached
    _stats.misses += 1
    result = _transfer_export_uncached(config, edge, route, ghosts, prepend_asn)
    _transfer_cache[key] = result
    return result


def _transfer_export_uncached(
    config: NetworkConfig,
    edge: Edge,
    route: SymbolicRoute,
    ghosts: Sequence[GhostAttribute],
    prepend_asn: int | None,
) -> tuple[Term, SymbolicRoute]:
    accepted, output = transfer_route_map(config.export_map(edge), route)
    if prepend_asn is not None:
        output = output.with_as_path_member(prepend_asn, smt.true())
        output = output.with_field(
            as_path_len=smt.bv_add(output.as_path_len, smt.bv_const(1, PATHLEN_WIDTH))
        )
    output = _apply_ghost_updates(output, edge, ghosts, "export")
    return accepted, output


def symbolic_originated(
    config: NetworkConfig,
    edge: Edge,
    universe,
    ghosts: Sequence[GhostAttribute] = (),
) -> list[SymbolicRoute]:
    """``Originate(edge)`` embedded as constant symbolic routes."""
    originated = config.originate(edge)
    if not _cache_enabled:
        return _symbolic_originated_uncached(originated, universe, ghosts)
    key = (
        "originate",
        universe,
        tuple(canonical_policy(route) for route in originated),
        tuple(sorted((g.name, g.originated_value) for g in ghosts)),
    )
    cached = _originate_cache.get(key)
    if cached is not None:
        _stats.hits += 1
        return list(cached)
    _stats.misses += 1
    result = _symbolic_originated_uncached(originated, universe, ghosts)
    _originate_cache[key] = tuple(result)
    return result


def _symbolic_originated_uncached(
    originated, universe, ghosts: Sequence[GhostAttribute]
) -> list[SymbolicRoute]:
    result = []
    for route in originated:
        sym = SymbolicRoute.concrete(route, universe)
        for ghost in ghosts:
            value = smt.true() if ghost.originated_value else smt.false()
            sym = sym.with_ghost(ghost.name, value)
        result.append(sym)
    return result
