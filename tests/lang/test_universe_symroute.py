"""Tests for the attribute universe and symbolic routes."""

from __future__ import annotations

import random

import pytest

from repro import smt
from repro.bgp.prefix import Prefix
from repro.bgp.route import Community, Route
from repro.lang.symroute import SymbolicRoute
from repro.lang.transfer import apply_action
from repro.lang.universe import AttributeUniverse
from repro.smt.solver import Model
from repro.workloads.figure1 import build_figure1
from repro.workloads.wan import build_wan

from tests import draws


def test_universe_from_figure1_collects_community_and_asns():
    config = build_figure1()
    universe = AttributeUniverse.from_config(config)
    assert Community(100, 1) in universe.communities
    assert 65000 in universe.asns
    assert {100, 200, 300} <= set(universe.asns)
    assert universe.ghosts == ()


def test_universe_extras_and_ghosts():
    config = build_figure1()
    universe = AttributeUniverse.from_config(
        config,
        extra_communities=(Community(9, 9),),
        extra_asns=(666,),
        ghosts=("FromISP1",),
    )
    assert Community(9, 9) in universe.communities
    assert 666 in universe.asns
    assert universe.ghosts == ("FromISP1",)


def test_universe_deduplicates_and_sorts():
    u = AttributeUniverse(
        (Community(2, 2), Community(1, 1), Community(2, 2)), (5, 3, 5), ("b", "a")
    )
    assert u.communities == (Community(1, 1), Community(2, 2))
    assert u.asns == (3, 5)
    assert u.ghosts == ("a", "b")


def test_universe_from_wan_includes_region_communities():
    wan = build_wan(regions=2, routers_per_region=2)
    universe = AttributeUniverse.from_config(wan.config)
    from repro.workloads.wan import region_community

    assert region_community(0) in universe.communities
    assert region_community(1) in universe.communities


def test_universe_require_raises_for_unknown():
    u = AttributeUniverse((), (), ())
    with pytest.raises(KeyError):
        u.require_community(Community(1, 1))
    with pytest.raises(KeyError):
        u.require_asn(5)
    with pytest.raises(KeyError):
        u.require_ghost("X")


def test_universe_extended():
    u = AttributeUniverse((), (), ())
    u2 = u.extended(communities=(Community(1, 1),), asns=(7,), ghosts=("g",))
    assert u2.communities == (Community(1, 1),)
    assert u2.asns == (7,)
    assert u2.ghosts == ("g",)


# ---------------------------------------------------------------------------
# SymbolicRoute
# ---------------------------------------------------------------------------

UNIVERSE = AttributeUniverse(
    (Community(100, 1), Community(200, 2)), (100, 65000), ("FromISP1",)
)


def test_fresh_route_fields_are_variables():
    r = SymbolicRoute.fresh("r", UNIVERSE)
    assert r.prefix_addr.width == 32
    assert r.prefix_len.width == 6
    assert set(r.communities) == set(UNIVERSE.communities)
    assert set(r.as_path_members) == set(UNIVERSE.asns)
    assert set(r.ghosts) == {"FromISP1"}


def test_concrete_embedding_round_trips_through_empty_model():
    route = Route(
        prefix=Prefix.parse("10.1.0.0/16"),
        as_path=(100,),
        local_pref=150,
        med=7,
        communities=frozenset({Community(100, 1)}),
        ghost={"FromISP1": True},
    )
    sym = SymbolicRoute.concrete(route, UNIVERSE)
    model = Model({}, {})
    back = sym.evaluate(model)
    assert back.prefix == route.prefix
    assert back.local_pref == 150
    assert back.med == 7
    assert back.communities == route.communities
    assert back.as_path == (100,)
    assert back.ghost_value("FromISP1") is True


def test_well_formed_constrains_length():
    r = SymbolicRoute.fresh("r", UNIVERSE)
    s = smt.Solver()
    s.add(r.well_formed())
    s.add(smt.bv_eq(r.prefix_len, smt.bv_const(40, 6)))
    assert s.check() is smt.Result.UNSAT


def test_merge_selects_fields_by_condition():
    a = SymbolicRoute.concrete(Route(prefix=Prefix.parse("1.0.0.0/8"), med=1), UNIVERSE)
    b = SymbolicRoute.concrete(Route(prefix=Prefix.parse("2.0.0.0/8"), med=2), UNIVERSE)
    cond = smt.bool_var("c")
    merged = a.merge(cond, b)

    s = smt.Solver()
    s.add(cond)
    s.add(smt.bv_eq(merged.med, smt.bv_const(1, 16)))
    assert s.check() is smt.Result.SAT

    s2 = smt.Solver()
    s2.add(smt.not_(cond))
    s2.add(smt.bv_eq(merged.med, smt.bv_const(1, 16)))
    assert s2.check() is smt.Result.UNSAT


def full_pointwise_merge(then: SymbolicRoute, cond, els: SymbolicRoute) -> SymbolicRoute:
    """``merge`` as first written: one ``ite`` per field and per atom."""
    return SymbolicRoute(
        universe=then.universe,
        prefix_addr=smt.ite(cond, then.prefix_addr, els.prefix_addr),
        prefix_len=smt.ite(cond, then.prefix_len, els.prefix_len),
        local_pref=smt.ite(cond, then.local_pref, els.local_pref),
        med=smt.ite(cond, then.med, els.med),
        next_hop=smt.ite(cond, then.next_hop, els.next_hop),
        origin=smt.ite(cond, then.origin, els.origin),
        as_path_len=smt.ite(cond, then.as_path_len, els.as_path_len),
        communities={
            c: smt.ite(cond, then.communities[c], els.communities[c])
            for c in then.communities
        },
        as_path_members={
            a: smt.ite(cond, then.as_path_members[a], els.as_path_members[a])
            for a in then.as_path_members
        },
        ghosts={g: smt.ite(cond, then.ghosts[g], els.ghosts[g]) for g in then.ghosts},
    )


SCALARS = ("prefix_addr", "prefix_len", "local_pref", "med", "next_hop", "origin", "as_path_len")
MAPS = ("communities", "as_path_members", "ghosts")


def assert_merges_agree(then: SymbolicRoute, cond, els: SymbolicRoute) -> SymbolicRoute:
    merged = then.merge(cond, els)
    reference = full_pointwise_merge(then, cond, els)
    for name in SCALARS:
        assert getattr(merged, name) is getattr(reference, name), name
    for name in MAPS:
        # Same keys, same order, the very same terms.
        got, want = getattr(merged, name), getattr(reference, name)
        assert list(got) == list(want), name
        assert all(got[k] is want[k] for k in want), name
        if getattr(then, name) is getattr(els, name):
            assert got is getattr(els, name), name
    return merged


def _random_cond(rng: random.Random, route: SymbolicRoute):
    drawn = draws.condition(rng).to_term(route)
    return rng.choice([smt.true(), smt.false(), smt.bool_var(f"c{rng.randrange(3)}"), drawn])


@pytest.mark.parametrize("seed", range(40))
def test_merge_equals_the_full_pointwise_merge_on_random_route_maps(seed):
    """Fold random clauses the way ``transfer_route_map`` does, checking every
    merge against the one-``ite``-per-atom reference."""
    rng = random.Random(seed)
    route = SymbolicRoute.fresh("r", draws.UNIVERSE)
    if rng.random() < 0.5:
        route = route.with_ghost("FromISP1", rng.choice([smt.true(), smt.false()]))
    output = route
    for __ in range(rng.randrange(1, 6)):
        applied = route
        for ___ in range(rng.randrange(3)):
            applied = apply_action(draws.action(rng), applied)
        if rng.random() < 0.3:
            applied = applied.with_ghost("FromISP1", smt.bool_var("g"))
        output = assert_merges_agree(applied, _random_cond(rng, route), output)


def test_merge_shares_identical_maps_and_folds_constant_conditions():
    r = SymbolicRoute.fresh("r", UNIVERSE)
    edited = r.with_community(Community(100, 1), smt.true()).with_field(
        med=smt.bv_const(5, 16)
    )
    for cond in (smt.true(), smt.false(), smt.bool_var("c")):
        merged = assert_merges_agree(edited, cond, r)
        assert merged.ghosts is r.ghosts
        assert merged.as_path_members is r.as_path_members
    assert r.merge(smt.bool_var("c"), r).communities is r.communities
    # Terms are compared pairwise, so the maps must list their keys alike.
    reordered = r.with_field(communities=dict(reversed(list(r.communities.items()))))
    with pytest.raises(ValueError):
        edited.merge(smt.bool_var("c"), reordered)


def test_with_community_and_ghost_update():
    r = SymbolicRoute.fresh("r", UNIVERSE)
    r2 = r.with_community(Community(100, 1), smt.true())
    assert r2.communities[Community(100, 1)] is smt.true()
    assert r.communities[Community(100, 1)] is not smt.true()
    r3 = r.with_ghost("FromISP1", smt.false())
    assert r3.ghosts["FromISP1"] is smt.false()


def test_field_access_outside_universe_raises():
    r = SymbolicRoute.fresh("r", UNIVERSE)
    with pytest.raises(KeyError):
        r.community_term(Community(9, 9))
    with pytest.raises(KeyError):
        r.as_path_member_term(12345)
    with pytest.raises(KeyError):
        r.ghost_term("nope")
