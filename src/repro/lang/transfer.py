"""Symbolic execution of route maps: the transfer functions of the checks.

Every Lightyear local check constrains ``r' = Import(edge, r)`` or
``r' = Export(edge, r)`` for a single edge (§4.2).  This module produces
those relations symbolically: given a :class:`SymbolicRoute` ``r``, it
returns a pair ``(accepted, r')`` where ``accepted`` is a boolean term
("the filter did not reject") and ``r'`` is a symbolic route whose fields
are ``ite`` terms mirroring the route map's first-match semantics.  A
clause's match conditions are predicates (:mod:`repro.lang.predicates`),
so a condition lowers by the ``to_term`` that lowers a property or an
invariant; only the actions are encoded here.

The lifted semantics matches :class:`repro.bgp.config.NetworkConfig`'s
concrete functions exactly — including eBGP AS-path prepending on export —
and additionally applies ghost-attribute updates (§4.4), which only exist
at this level.

Transfer-output memoisation
---------------------------

Symbolic execution dominates large sweeps: a full mesh runs the *same*
filter (by content) on hundreds of edges, rebuilding identical term DAGs
each time.  ``transfer_import`` / ``transfer_export`` / ``symbolic_
originated`` are therefore memoised, and never on the edge or router name.

An edge's transfer is one value, :func:`transfer_policy`: the direction,
the interned route map (:func:`repro.bgp.policy.intern_route_map`: equal
maps are one object, so a probe compares it by identity; ``None`` for "no
filter"), the eBGP prepend ASN (``None`` on imports and iBGP exports) and
the sorted ``(name, value)`` ghost updates written on the edge.  Edges
whose filter and ghost discipline agree (e.g. "every non-source external
import") share it regardless of which peer they face.
:func:`apply_policy` is the one reader of that value and the only code
that builds a transfer output; the memo key is ``(policy, route instance
token)``, so it covers everything the output depends on by construction.
The same value is the policy part of a filter check's class key: check
generation (:func:`repro.core.checks.generate_safety_checks`) builds it
from the owner's neighbor entry it reads anyway (:func:`edge_policy`)
and emits one check per owner and key, so the transfer runs once per
class, not once per edge.
Originated routes key on ``(universe, routes, ghost originated values)``
and :func:`embed_originated` reads only that.  Ghost names are unique in a
run (:func:`repro.lang.ghost.unique_ghosts`), so a sorted update list
means what the declared one did.

Invalidation: cached values are interned-term graphs, so the caches are
registered with :func:`repro.smt.terms.register_intern_dependent` and die
with the intern table — exactly like ``SymbolicRoute.fresh``'s cache.
There is no other invalidation rule, because every mutable input is part
of the key (a config edit changes the route-map value, a different ghost
discipline changes the update pairs).  A companion cache in
:mod:`repro.lang.predicates` memoises predicate lowering the same way
(keyed by route instance token + predicate value).  There is no switch to
turn either off: the equivalence oracle's ``uncached`` path
(``tests/oracle.py``) runs its cases with the uncached references
(:func:`apply_policy`, :func:`embed_originated`, ``Predicate.to_term``) in
their place and must decide each witness for witness as the memoised run
does; ``transfer_cache_stats`` / ``predicate_term_cache_stats`` expose
hit/miss counters for benchmarks.

Key cost: a value used as a memo key hashes once; the hash is never
pickled.  Route maps (the intern table), universes (the ``fresh`` cache)
and predicates are :class:`repro.record.Value` instances, which keep
their hash once computed, so a hit costs one dict probe, not a walk over
the key's field tree.  No key is a
SHA-256: digests are for what crosses a process (the cache identity and
the §7 diff, :mod:`repro.core.incremental`).
"""

from __future__ import annotations

from typing import Sequence

from repro import smt
from repro.bgp.config import NeighborConfig, NetworkConfig, RouterConfig
from repro.bgp.policy import (
    Action,
    AddCommunity,
    ClearCommunities,
    DeleteCommunity,
    Disposition,
    PrependAsPath,
    RouteMap,
    SetLocalPref,
    SetMed,
    SetNextHop,
    SetOrigin,
    clear_route_map_digest_memo,
    intern_route_map,
)
from repro.bgp.topology import Edge
from repro.lang.ghost import GhostAttribute
from repro.lang.predicates import TermCacheStats, reset_predicate_term_cache
from repro.lang.symroute import (
    ADDR_WIDTH,
    MED_WIDTH,
    ORIGIN_WIDTH,
    PATHLEN_WIDTH,
    PREF_WIDTH,
    SymbolicRoute,
)
from repro.smt.terms import Term, register_intern_dependent


# ---------------------------------------------------------------------------
# Transfer-output cache (see module docstring for the key/invalidation rules)
# ---------------------------------------------------------------------------


# Counter shape shared with the predicate-term cache in
# :mod:`repro.lang.predicates`; re-exported under the transfer name.
TransferCacheStats = TermCacheStats

_transfer_cache: dict[tuple, tuple[Term, SymbolicRoute]] = {}
_originate_cache: dict[tuple, tuple[SymbolicRoute, ...]] = {}
_stats = TransferCacheStats()


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


# ---------------------------------------------------------------------------
# Action encoding (a clause's conditions are predicates: ``to_term``)
# ---------------------------------------------------------------------------


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
        # ``to_term`` itself, not the memoised ``predicate_term``: the
        # transfer memo already runs this once per policy, and the
        # predicate memo's counters stay those of the checks' lowering.
        cond = smt.and_(m.to_term(route) for m in clause.matches)
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


def transfer_policy(
    config: NetworkConfig,
    edge: Edge,
    ghosts: Sequence[GhostAttribute],
    direction: str,
) -> tuple:
    """The one description of ``Import``/``Export`` on ``edge``:
    ``(direction, route map, prepend ASN, ghost updates)``.

    The route map is its interned value (``None``: no filter); the prepend
    ASN is the sender's on an eBGP export and ``None`` otherwise; the ghost
    updates are the sorted ``(name, value)`` pairs written on the edge in
    this direction (each writes its own field, so sorting does not change
    the output).  :func:`apply_policy` reads nothing else, so the transfer
    memo's key — this plus the input route — is complete by construction,
    and it is the policy part of a filter check's class key
    (:class:`repro.core.checks.LocalCheck`): two edges with equal policies
    run the same transfer function, whatever their names.
    """
    owner, peer = (edge.dst, edge.src) if direction == "import" else edge
    router = config.routers.get(owner)
    neighbor = None if router is None else router.neighbors.get(peer)
    return edge_policy(config, edge, router, neighbor, ghosts, direction)


def edge_policy(
    config: NetworkConfig,
    edge: Edge,
    router: RouterConfig | None,
    neighbor: NeighborConfig | None,
    ghosts: Sequence[GhostAttribute],
    direction: str,
) -> tuple:
    """The :func:`transfer_policy` of ``edge``, from its owner's ``router``
    configuration and that router's ``neighbor`` entry for the peer (each
    ``None`` when absent), for a caller that has read them already: check
    generation reads each edge side's once."""
    prepend_asn: int | None = None
    if direction == "import":
        route_map = None if neighbor is None else neighbor.import_map
    else:
        route_map = None if neighbor is None else neighbor.export_map
        if router is not None and config.is_ebgp(edge):
            prepend_asn = router.asn
    # A plain loop over the update tables: check generation calls this once
    # per edge side, and a comprehension or method call costs one per ghost.
    importing = direction == "import"
    updates: list[tuple[str, bool]] = []
    for ghost in ghosts:
        value = (ghost.import_updates if importing else ghost.export_updates).get(edge)
        if value is not None:
            updates.append((ghost.name, value))
    updates.sort()
    return (direction, intern_route_map(route_map), prepend_asn, tuple(updates))


def apply_policy(policy: tuple, route: SymbolicRoute) -> tuple[Term, SymbolicRoute]:
    """Run a :func:`transfer_policy` on ``route``: ``(accepted, r')``.

    The only code that builds a transfer output, and it reads nothing but
    ``policy`` and ``route``: the route map, then the eBGP prepend, then
    the ghost updates.
    """
    __, route_map, prepend_asn, ghost_updates = policy
    accepted, output = transfer_route_map(route_map, route)
    if prepend_asn is not None:
        output = output.with_as_path_member(prepend_asn, smt.true())
        output = output.with_field(
            as_path_len=smt.bv_add(output.as_path_len, smt.bv_const(1, PATHLEN_WIDTH))
        )
    for name, value in ghost_updates:
        output = output.with_ghost(name, smt.true() if value else smt.false())
    return accepted, output


def _memo_transfer(policy: tuple, route: SymbolicRoute) -> tuple[Term, SymbolicRoute]:
    # Routes key by instance token, not structure: every hot input is an
    # interned instance (``fresh`` is cached per universe, originated routes
    # have their own cache), and a distinct-but-equal instance (a chained
    # liveness output) just recomputes the same interned terms.
    key = (policy, route.instance_token())
    cached = _transfer_cache.get(key)
    if cached is not None:
        _stats.hits += 1
        return cached
    _stats.misses += 1
    result = _transfer_cache[key] = apply_policy(policy, route)
    return result


def transfer_import(
    config: NetworkConfig,
    edge: Edge,
    route: SymbolicRoute,
    ghosts: Sequence[GhostAttribute] = (),
) -> tuple[Term, SymbolicRoute]:
    """``Import(edge, r)`` as (accepted, r'), with ghost updates applied."""
    return _memo_transfer(transfer_policy(config, edge, ghosts, "import"), route)


def transfer_export(
    config: NetworkConfig,
    edge: Edge,
    route: SymbolicRoute,
    ghosts: Sequence[GhostAttribute] = (),
) -> tuple[Term, SymbolicRoute]:
    """``Export(edge, r)`` as (accepted, r'), with prepend and ghosts."""
    return _memo_transfer(transfer_policy(config, edge, ghosts, "export"), route)


def symbolic_originated(
    config: NetworkConfig,
    edge: Edge,
    universe,
    ghosts: Sequence[GhostAttribute] = (),
) -> list[SymbolicRoute]:
    """``Originate(edge)`` embedded as constant symbolic routes."""
    key = (
        universe,
        config.originate(edge),  # frozen routes, equal by value
        tuple(sorted((g.name, g.originated_value) for g in ghosts)),
    )
    cached = _originate_cache.get(key)
    if cached is not None:
        _stats.hits += 1
        return list(cached)
    _stats.misses += 1
    result = embed_originated(*key)
    _originate_cache[key] = tuple(result)
    return result


def embed_originated(
    universe, originated, ghost_values: Sequence[tuple[str, bool]]
) -> list[SymbolicRoute]:
    """Concrete ``originated`` routes as symbolic ones, each ghost set to its
    originated value: the output of :func:`symbolic_originated` for its key."""
    result = []
    for route in originated:
        sym = SymbolicRoute.concrete(route, universe)
        for name, value in ghost_values:
            sym = sym.with_ghost(name, smt.true() if value else smt.false())
        result.append(sym)
    return result
