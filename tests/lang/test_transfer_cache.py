"""The lang layer's term memos: what they key on and when they die.

A memo hit is the very term the uncached reference builds
(``tests.oracle.UNCACHED``: :func:`apply_policy`, :func:`embed_originated`,
``Predicate.to_term``) on every edge; which edges share an entry and
which must not, the counters, duplicate ghost names and the intern-table
teardown are pinned here.  That a whole run decides as the references do,
witness for witness, is the equivalence oracle's ``uncached`` path.
"""

from __future__ import annotations

import pytest

from repro import smt
from repro.bgp.route import Community
from repro.bgp.topology import Edge
from repro.core.safety import build_universe, verify_safety
from repro.lang.ghost import GhostAttribute
from repro.lang.predicates import (
    HasCommunity,
    Not,
    predicate_term,
    predicate_term_cache_stats,
)
from repro.lang import transfer
from repro.lang.symroute import SymbolicRoute
from repro.lang.transfer import reset_transfer_cache, transfer_cache_stats, transfer_import
from repro.smt.terms import clear_intern_cache
from repro.workloads.randomnet import build_random_network

from tests.core.conftest import mesh_no_transit
from tests.lang.test_universe_symroute import MAPS, SCALARS
from tests.oracle import UNCACHED


def assert_same_terms(a: SymbolicRoute, b: SymbolicRoute, where) -> None:
    """Every field of ``a`` is the very term ``b`` holds."""
    for name in SCALARS:
        assert getattr(a, name) is getattr(b, name), (name, where)
    for name in MAPS:
        got, want = getattr(a, name), getattr(b, name)
        assert list(got) == list(want) and all(got[k] is want[k] for k in want), (name, where)


@pytest.mark.parametrize("model,seed", [("gnp", 1), ("ba", 2), ("ring", 3)])
def test_memoised_transfers_are_the_uncached_ones_on_every_edge(model, seed):
    """A memo hit hands back the interned terms the reference builds."""
    config = build_random_network(8, model=model, seed=seed)
    ghosts = (mesh_no_transit(config)[0],)
    universe = build_universe(config, [], ghosts)
    route = SymbolicRoute.fresh("r", universe)
    reset_transfer_cache()
    for edge in sorted(config.topology.edges):
        for name in ("transfer_import", "transfer_export"):
            (accepted, output), (acc_ref, out_ref) = (
                f(config, edge, route, ghosts) for f in (getattr(transfer, name), UNCACHED[name])
            )
            assert accepted is acc_ref, (name, edge)
            assert_same_terms(output, out_ref, (name, edge))


def test_edges_with_equal_policy_share_one_cache_entry():
    """Same filter content on different edges = one symbolic execution."""
    config = build_random_network(6, model="ring", seed=0)
    ghost = mesh_no_transit(config)[0]
    universe = build_universe(config, [], (ghost,))
    route = SymbolicRoute.fresh("r", universe)
    reset_transfer_cache()
    # E3->R3 and E4->R4 run the same generic prefix filter with the same
    # (non-source) ghost discipline; their outputs must be one cache entry.
    r3 = transfer_import(config, Edge("E3", "R3"), route, (ghost,))
    r4 = transfer_import(config, Edge("E4", "R4"), route, (ghost,))
    assert r3 is r4
    assert transfer_cache_stats().hits == 1


def test_equal_maps_with_different_ghost_updates_do_not_share_an_entry():
    """The memo key is the whole policy: E3->R3 and E4->R4 run one filter,
    but a source ghost on E3->R3 writes true there and false on E4->R4."""
    config = build_random_network(6, model="ring", seed=0)
    ghost = GhostAttribute.source_tracker("S", config.topology, [Edge("E3", "R3")])
    universe = build_universe(config, [], (ghost,))
    route = SymbolicRoute.fresh("r", universe)
    reset_transfer_cache()
    outputs = []
    for edge in (Edge("E3", "R3"), Edge("E4", "R4")):
        accepted, output = transfer_import(config, edge, route, (ghost,))
        acc_ref, out_ref = UNCACHED["transfer_import"](config, edge, route, (ghost,))
        assert accepted is acc_ref
        assert_same_terms(output, out_ref, edge)
        outputs.append(output.ghosts["S"])
    assert outputs == [smt.true(), smt.false()]


def test_cache_stats():
    config = build_random_network(4, model="ring", seed=7)
    universe = build_universe(config, [], ())
    route = SymbolicRoute.fresh("r", universe)
    edge = Edge("E2", "R2")
    reset_transfer_cache()
    transfer_import(config, edge, route)
    transfer_import(config, edge, route)
    stats = transfer_cache_stats()
    assert (stats.hits, stats.misses) == (1, 1)
    # Predicate-term lowering counts its own probes; the reset zeroed them.
    pred = Not(HasCommunity(Community(100, 1)))
    assert predicate_term(pred, route) is predicate_term(pred, route) is pred.to_term(route)
    stats = predicate_term_cache_stats()
    assert (stats.hits, stats.misses) == (1, 1)


def test_duplicate_ghost_names_are_rejected():
    """Two ghosts named ``X`` would be one field with two update rules: the
    memo key sorts the updates, so which one wins would depend on order.
    A run refuses them and names the duplicate."""
    config = build_random_network(4, model="ring", seed=7)
    __, prop, invariants = mesh_no_transit(config)
    ghosts = tuple(
        GhostAttribute.source_tracker("X", config.topology, [Edge(f"E{i}", f"R{i}")])
        for i in (1, 2)
    )
    with pytest.raises(ValueError, match="ghost 'X' is declared more than once"):
        verify_safety(config, prop, invariants, ghosts)


def test_intern_table_clear_drops_cache_entries():
    """Cached term graphs must die with the intern table (like fresh())."""
    config = build_random_network(4, model="ring", seed=9)
    universe = build_universe(config, [], ())
    route = SymbolicRoute.fresh("r", universe)
    edge = Edge("E2", "R2")
    reset_transfer_cache()
    transfer_import(config, edge, route)
    clear_intern_cache()
    try:
        route2 = SymbolicRoute.fresh("r", universe)
        acc, out = transfer_import(config, edge, route2)
        # A post-clear call must rebuild from the new intern table, not hand
        # back a stale graph: the accepted term is interned *now*.
        acc_ref, __ = UNCACHED["transfer_import"](config, edge, route2)
        assert acc is acc_ref
    finally:
        clear_intern_cache()
        reset_transfer_cache()
