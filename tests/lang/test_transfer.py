"""Tests that symbolic route-map execution matches the concrete interpreter."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import smt
from repro.bgp.policy import (
    AddCommunity,
    ClearCommunities,
    DeleteCommunity,
    Disposition,
    MatchCommunity,
    MatchLocalPrefRange,
    MatchMedRange,
    MatchNot,
    MatchPrefix,
    PrependAsPath,
    RouteMap,
    RouteMapClause,
    SetLocalPref,
    SetMed,
)
from repro.bgp.prefix import Prefix, PrefixRange
from repro.bgp.route import Community, Route
from repro.bgp.topology import Edge
from repro.lang.ghost import GhostAttribute
from repro.lang.symroute import SymbolicRoute
from repro.lang.transfer import (
    symbolic_originated,
    transfer_export,
    transfer_import,
    transfer_route_map,
)
from repro.lang.universe import AttributeUniverse
from repro.smt.solver import Model
from repro.workloads.figure1 import build_figure1

from tests.core.conftest import isp1_ghost


C1 = Community(100, 1)
C2 = Community(7, 7)
UNIVERSE = AttributeUniverse((C1, C2), (100, 300, 666, 65000), ("FromISP1",))
EMPTY_MODEL = Model({}, {})


def _run_concrete(route_map: RouteMap | None, route: Route):
    """Run symbolically on a constant embedding, evaluate to concrete."""
    sym = SymbolicRoute.concrete(route, UNIVERSE)
    accepted, out = transfer_route_map(route_map, sym)
    if not EMPTY_MODEL.eval_bool(accepted):
        return None
    return out.evaluate(EMPTY_MODEL)


def _assert_same(route_map: RouteMap | None, route: Route) -> None:
    expected = route_map.apply(route) if route_map is not None else route
    got = _run_concrete(route_map, route)
    if expected is None:
        assert got is None
        return
    assert got is not None
    assert got.prefix == expected.prefix
    assert got.local_pref == expected.local_pref
    assert got.med == expected.med
    assert got.communities & set(UNIVERSE.communities) == expected.communities & set(
        UNIVERSE.communities
    )
    # AS-path abstraction: membership of universe ASNs and total length.
    assert set(got.as_path) == {a for a in expected.as_path if a in UNIVERSE.asns}


def test_none_route_map_is_identity():
    r = Route(prefix=Prefix.parse("10.0.0.0/8"), med=3)
    assert _run_concrete(None, r) is not None


def test_first_match_semantics_symbolic():
    rm = RouteMap(
        "RM",
        (
            RouteMapClause(10, matches=(MatchMedRange(0, 10),), actions=(SetLocalPref(200),)),
            RouteMapClause(20, actions=(SetLocalPref(50),)),
        ),
    )
    _assert_same(rm, Route(prefix=Prefix.parse("1.0.0.0/8"), med=5))
    _assert_same(rm, Route(prefix=Prefix.parse("1.0.0.0/8"), med=50))


def test_deny_clause_symbolic():
    rm = RouteMap(
        "RM",
        (
            RouteMapClause(10, Disposition.DENY, matches=(MatchCommunity(C1),)),
            RouteMapClause(20),
        ),
    )
    _assert_same(rm, Route(prefix=Prefix.parse("1.0.0.0/8"), communities={C1}))
    _assert_same(rm, Route(prefix=Prefix.parse("1.0.0.0/8")))


def test_implicit_deny_symbolic():
    rm = RouteMap("RM", (RouteMapClause(10, matches=(MatchCommunity(C1),)),))
    assert _run_concrete(rm, Route(prefix=Prefix.parse("1.0.0.0/8"))) is None


def test_action_stack_symbolic():
    rm = RouteMap(
        "RM",
        (
            RouteMapClause(
                10,
                actions=(
                    ClearCommunities(),
                    AddCommunity(C2),
                    SetMed(42),
                    PrependAsPath(65000, 2),
                ),
            ),
        ),
    )
    _assert_same(rm, Route(prefix=Prefix.parse("1.0.0.0/8"), communities={C1}, as_path=(300,)))


# ---------------------------------------------------------------------------
# Randomised faithfulness
# ---------------------------------------------------------------------------


@st.composite
def matches(draw):
    kind = draw(st.integers(0, 4))
    if kind == 0:
        return MatchCommunity(draw(st.sampled_from([C1, C2])))
    if kind == 1:
        base = draw(st.sampled_from(["10.0.0.0/8", "20.0.0.0/8", "0.0.0.0/0"]))
        prefix = Prefix.parse(base)
        lo = draw(st.integers(prefix.length, 32))
        hi = draw(st.integers(lo, 32))
        return MatchPrefix((PrefixRange(prefix, lo, hi),))
    if kind == 2:
        lo = draw(st.integers(0, 50))
        return MatchMedRange(lo, draw(st.integers(lo, 100)))
    if kind == 3:
        lo = draw(st.integers(0, 200))
        return MatchLocalPrefRange(lo, draw(st.integers(lo, 400)))
    return MatchNot(MatchCommunity(draw(st.sampled_from([C1, C2]))))


@st.composite
def actions(draw):
    kind = draw(st.integers(0, 5))
    if kind == 0:
        return SetLocalPref(draw(st.integers(0, 400)))
    if kind == 1:
        return SetMed(draw(st.integers(0, 100)))
    if kind == 2:
        return AddCommunity(draw(st.sampled_from([C1, C2])))
    if kind == 3:
        return DeleteCommunity(draw(st.sampled_from([C1, C2])))
    if kind == 4:
        return ClearCommunities()
    return PrependAsPath(draw(st.sampled_from([666, 65000])), draw(st.integers(1, 2)))


@st.composite
def route_maps(draw):
    n = draw(st.integers(1, 4))
    clauses = []
    for i in range(n):
        deny = draw(st.booleans())
        clause_matches = tuple(draw(st.lists(matches(), max_size=2)))
        if deny:
            clauses.append(RouteMapClause((i + 1) * 10, Disposition.DENY, clause_matches))
        else:
            clause_actions = tuple(draw(st.lists(actions(), max_size=3)))
            clauses.append(
                RouteMapClause((i + 1) * 10, Disposition.PERMIT, clause_matches, clause_actions)
            )
    return RouteMap("RAND", tuple(clauses))


@st.composite
def routes(draw):
    length = draw(st.integers(0, 32))
    addr = draw(st.integers(0, 2**32 - 1))
    mask = (0xFFFFFFFF << (32 - length)) & 0xFFFFFFFF if length else 0
    return Route(
        prefix=Prefix(addr & mask, length),
        communities=frozenset(draw(st.sets(st.sampled_from([C1, C2])))),
        as_path=tuple(draw(st.lists(st.sampled_from([100, 300, 666]), max_size=3))),
        local_pref=draw(st.integers(0, 400)),
        med=draw(st.integers(0, 100)),
    )


@settings(max_examples=200, deadline=None)
@given(route_maps(), routes())
def test_transfer_matches_concrete_interpreter(route_map, route):
    _assert_same(route_map, route)


# ---------------------------------------------------------------------------
# Edge-level transfer: prepend and ghost updates
# ---------------------------------------------------------------------------


def test_export_prepends_on_ebgp():
    config = build_figure1()
    universe = AttributeUniverse.from_config(config)
    r = Route(prefix=Prefix.parse("20.0.0.0/8"))
    sym = SymbolicRoute.concrete(r, universe)
    accepted, out = transfer_export(config, Edge("R2", "ISP2"), sym)
    assert EMPTY_MODEL.eval_bool(accepted)
    assert EMPTY_MODEL.eval_bool(out.as_path_members[65000])
    assert EMPTY_MODEL.eval_bv(out.as_path_len) == 1


def test_export_no_prepend_on_ibgp():
    config = build_figure1()
    universe = AttributeUniverse.from_config(config)
    sym = SymbolicRoute.concrete(Route(prefix=Prefix.parse("20.0.0.0/8")), universe)
    __, out = transfer_export(config, Edge("R2", "R1"), sym)
    assert not EMPTY_MODEL.eval_bool(out.as_path_members[65000])


def test_ghost_update_on_import():
    config = build_figure1()
    universe = AttributeUniverse.from_config(config, ghosts=("FromISP1",))
    ghost = isp1_ghost(config)
    sym = SymbolicRoute.fresh("r", universe)
    __, out = transfer_import(config, Edge("ISP1", "R1"), sym, ghosts=[ghost])
    assert out.ghosts["FromISP1"] is smt.true()
    __, out2 = transfer_import(config, Edge("ISP2", "R2"), sym, ghosts=[ghost])
    assert out2.ghosts["FromISP1"] is smt.false()
    # Internal edges leave the ghost unchanged.
    __, out3 = transfer_import(config, Edge("R1", "R2"), sym, ghosts=[ghost])
    assert out3.ghosts["FromISP1"] is sym.ghosts["FromISP1"]


def test_ghost_source_tracker_rejects_internal_source():
    config = build_figure1()
    with pytest.raises(ValueError):
        GhostAttribute.source_tracker("X", config.topology, [Edge("R1", "R2")])


def test_waypoint_ghost_updates():
    config = build_figure1()
    ghost = GhostAttribute.waypoint("ViaR1", config.topology, "R1")
    assert ghost.import_update(Edge("ISP1", "R1")) is True
    assert ghost.export_update(Edge("R1", "R2")) is True
    assert ghost.import_update(Edge("ISP2", "R2")) is False
    assert ghost.import_update(Edge("R3", "R2")) is None


def test_symbolic_originated_embeds_ghost_default():
    config = build_figure1()
    # Give R1 an originated route toward R2.
    from repro.bgp.route import Route as R

    config.routers["R1"].neighbors["R2"].originated = (
        R(prefix=Prefix.parse("8.8.0.0/16")),
    )
    universe = AttributeUniverse.from_config(config, ghosts=("FromISP1",))
    ghost = isp1_ghost(config)
    syms = symbolic_originated(config, Edge("R1", "R2"), universe, ghosts=[ghost])
    assert len(syms) == 1
    assert syms[0].ghosts["FromISP1"] is smt.false()
