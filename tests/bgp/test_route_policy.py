"""Tests for routes, communities, route maps, and best-path selection."""

from __future__ import annotations

import pytest

from repro.bgp.policy import (
    AddCommunity,
    ClearCommunities,
    DeleteCommunity,
    Disposition,
    MatchAll,
    MatchAny,
    MatchAsPathContains,
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
from repro.bgp.selection import best_route


PFX = Prefix.parse("10.0.0.0/8")


def _route(**kwargs) -> Route:
    defaults = dict(prefix=PFX)
    defaults.update(kwargs)
    return Route(**defaults)


# ---------------------------------------------------------------------------
# Community / Route basics
# ---------------------------------------------------------------------------


def test_community_parse_and_roundtrip():
    c = Community.parse("100:1")
    assert (c.asn, c.value) == (100, 1)
    assert str(c) == "100:1"
    assert Community.from_int(c.as_int()) == c


def test_community_rejects_bad_values():
    with pytest.raises(ValueError):
        Community.parse("100")
    with pytest.raises(ValueError):
        Community(70000, 1)


def test_route_functional_updates_do_not_mutate():
    r = _route()
    r2 = r.add_community(Community(100, 1))
    assert Community(100, 1) in r2.communities
    assert Community(100, 1) not in r.communities
    r3 = r2.delete_community(Community(100, 1))
    assert r3.communities == frozenset()
    assert r2.with_local_pref(50).local_pref == 50
    assert r2.local_pref == 100


def test_route_ghost_attributes():
    r = _route()
    assert r.ghost_value("FromISP1") is False
    r2 = r.with_ghost("FromISP1", True)
    assert r2.ghost_value("FromISP1") is True
    assert r.ghost_value("FromISP1") is False
    with pytest.raises(TypeError):
        r2.ghost["FromISP1"] = False  # type: ignore[index]


def test_route_with_ghosts_pickles_round_trip():
    """Regression: the frozen ghost mapping's default dict-subclass pickle
    repopulated via the blocked ``__setitem__``, so any counterexample
    route carrying a ghost value could not cross a process boundary (and
    silently knocked the process backend back to serial)."""
    import pickle

    r = _route().with_ghost("FromISP1", True)
    for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
        clone = pickle.loads(pickle.dumps(r, protocol=protocol))
        assert clone == r
        assert clone.ghost_value("FromISP1") is True
        with pytest.raises(TypeError):
            clone.ghost["FromISP1"] = False  # type: ignore[index]


def test_route_is_hashable_and_equatable():
    r1 = _route(communities=frozenset({Community(1, 2)}))
    r2 = _route(communities=frozenset({Community(1, 2)}))
    assert r1 == r2
    assert hash(r1) == hash(r2)
    assert len({r1, r2}) == 1


def test_prepend_as_path():
    r = _route(as_path=(200,))
    assert r.prepend_as(65000, 2).as_path == (65000, 65000, 200)


# ---------------------------------------------------------------------------
# Match conditions
# ---------------------------------------------------------------------------


def test_match_community():
    m = MatchCommunity(Community(100, 1))
    assert m.matches(_route(communities={Community(100, 1)}))
    assert not m.matches(_route())


def test_match_prefix_list():
    m = MatchPrefix((PrefixRange.parse("10.0.0.0/8 le 24"), PrefixRange.parse("172.16.0.0/12")))
    assert m.matches(_route(prefix=Prefix.parse("10.1.0.0/16")))
    assert m.matches(_route(prefix=Prefix.parse("172.16.0.0/12")))
    assert not m.matches(_route(prefix=Prefix.parse("192.168.0.0/16")))


def test_match_as_path_and_ranges():
    assert MatchAsPathContains(666).matches(_route(as_path=(1, 666, 2)))
    assert not MatchAsPathContains(666).matches(_route(as_path=(1, 2)))
    assert MatchMedRange(0, 10).matches(_route(med=5))
    assert not MatchMedRange(0, 10).matches(_route(med=11))
    assert MatchLocalPrefRange(100, 100).matches(_route())


def test_match_combinators():
    has_comm = MatchCommunity(Community(1, 1))
    low_med = MatchMedRange(0, 10)
    r_both = _route(communities={Community(1, 1)}, med=5)
    r_neither = _route(med=50)
    assert MatchAll((has_comm, low_med)).matches(r_both)
    assert not MatchAll((has_comm, low_med)).matches(r_neither)
    assert MatchAny((has_comm, low_med)).matches(_route(med=5))
    assert not MatchAny(()).matches(r_both)
    assert MatchAll(()).matches(r_neither)
    assert MatchNot(has_comm).matches(r_neither)


# ---------------------------------------------------------------------------
# Route maps
# ---------------------------------------------------------------------------


def test_route_map_first_match_wins():
    rm = RouteMap(
        "RM",
        (
            RouteMapClause(10, matches=(MatchMedRange(0, 10),), actions=(SetLocalPref(200),)),
            RouteMapClause(20, actions=(SetLocalPref(50),)),
        ),
    )
    assert rm.apply(_route(med=5)).local_pref == 200
    assert rm.apply(_route(med=50)).local_pref == 50


def test_route_map_implicit_deny():
    rm = RouteMap("RM", (RouteMapClause(10, matches=(MatchMedRange(0, 10),)),))
    assert rm.apply(_route(med=99)) is None


def test_route_map_explicit_deny():
    rm = RouteMap(
        "RM",
        (
            RouteMapClause(10, Disposition.DENY, matches=(MatchCommunity(Community(6, 6)),)),
            RouteMapClause(20),
        ),
    )
    assert rm.apply(_route(communities={Community(6, 6)})) is None
    assert rm.apply(_route()) is not None


def test_route_map_action_pipeline_order():
    rm = RouteMap(
        "RM",
        (
            RouteMapClause(
                10,
                actions=(
                    ClearCommunities(),
                    AddCommunity(Community(9, 9)),
                    SetMed(77),
                    PrependAsPath(65000, 1),
                ),
            ),
        ),
    )
    out = rm.apply(_route(communities={Community(1, 1)}, as_path=(200,)))
    assert out.communities == frozenset({Community(9, 9)})
    assert out.med == 77
    assert out.as_path == (65000, 200)


def test_delete_community_only_removes_target():
    rm = RouteMap("RM", (RouteMapClause(10, actions=(DeleteCommunity(Community(1, 1)),)),))
    out = rm.apply(_route(communities={Community(1, 1), Community(2, 2)}))
    assert out.communities == frozenset({Community(2, 2)})


def test_route_map_clause_ordering_enforced():
    with pytest.raises(ValueError):
        RouteMap("RM", (RouteMapClause(20), RouteMapClause(10)))
    with pytest.raises(ValueError):
        RouteMap("RM", (RouteMapClause(10), RouteMapClause(10)))


def test_deny_clause_with_actions_rejected():
    with pytest.raises(ValueError):
        RouteMapClause(10, Disposition.DENY, actions=(SetMed(1),))


def test_permit_all_and_deny_all():
    assert RouteMap.permit_all().apply(_route()) == _route()
    assert RouteMap.deny_all().apply(_route()) is None


# ---------------------------------------------------------------------------
# Selection
# ---------------------------------------------------------------------------


def test_best_route_prefers_local_pref_then_shorter_path_then_lower_med():
    high, low = _route(local_pref=200, as_path=(1, 2, 3)), _route(local_pref=100)
    short, med_high = _route(as_path=(1,), med=0), _route(as_path=(1,), med=10)
    for best, worse in ((high, low), (short, _route(as_path=(1, 2))), (short, med_high)):
        assert best_route([("A", worse), ("B", best)]) == ("B", best)


def test_best_route_deterministic_tiebreak():
    r = _route()
    assert best_route([("B", r), ("A", r)]) == ("A", r)
    assert best_route([]) is None
