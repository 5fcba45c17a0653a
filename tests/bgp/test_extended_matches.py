"""Tests for the extended route-map vocabulary: AS-path length, origin,
next-hop matching, and origin setting — concrete, parsed and serialised.
The symbolic side meets the concrete one in ``tests/lang/test_transfer.py``
(route maps) and ``tests/lang/test_predicates.py`` (predicates); the
builder's refusal of an empty next-hop list is a row of
``tests/bgp/test_config_errors.py``."""

from __future__ import annotations

import pytest

from repro.bgp.configjson import config_from_json, config_to_json
from repro.bgp.configparse import parse_config
from repro.bgp.policy import (
    RouteMap,
    RouteMapClause,
    SetOrigin,
)
from repro.bgp.prefix import Prefix, parse_ipv4
from repro.bgp.route import ORIGIN_EGP, ORIGIN_IGP, ORIGIN_INCOMPLETE, Route
from repro.bgp.topology import Edge
from repro.lang.predicates import AsPathLenIn, NextHopIn, OriginIs
from repro.lang.symroute import SymbolicRoute
from repro.lang.transfer import transfer_route_map
from repro.lang.universe import AttributeUniverse
from repro.smt.solver import Model


PFX = Prefix.parse("10.0.0.0/8")
UNIVERSE = AttributeUniverse((), (100, 200), ())
EMPTY_MODEL = Model({}, {})


# ---------------------------------------------------------------------------
# Concrete semantics
# ---------------------------------------------------------------------------


def test_match_as_path_length():
    m = AsPathLenIn(1, 2)
    assert m.holds(Route(prefix=PFX, as_path=(100,)))
    assert m.holds(Route(prefix=PFX, as_path=(100, 200)))
    assert not m.holds(Route(prefix=PFX))
    assert not m.holds(Route(prefix=PFX, as_path=(1, 2, 3)))


def test_match_origin():
    assert OriginIs(ORIGIN_IGP).holds(Route(prefix=PFX))
    assert not OriginIs(ORIGIN_EGP).holds(Route(prefix=PFX))
    assert OriginIs(ORIGIN_INCOMPLETE).holds(Route(prefix=PFX, origin=2))


def test_match_next_hop():
    m = NextHopIn((Prefix.parse("10.0.0.0/8"),))
    assert m.holds(Route(prefix=PFX, next_hop=parse_ipv4("10.1.2.3")))
    assert not m.holds(Route(prefix=PFX, next_hop=parse_ipv4("11.0.0.1")))


def test_set_origin():
    action = SetOrigin(ORIGIN_EGP)
    assert action.apply(Route(prefix=PFX)).origin == ORIGIN_EGP
    with pytest.raises(ValueError):
        SetOrigin(5)


# ---------------------------------------------------------------------------
# Symbolic semantics agree with concrete
# ---------------------------------------------------------------------------


def test_symbolic_as_path_length_includes_prepend():
    # After a prepend, the symbolic length reflects the increment.
    from repro.bgp.policy import PrependAsPath

    route_map = RouteMap(
        "P", (RouteMapClause(10, actions=(PrependAsPath(100, 2),)),)
    )
    sym = SymbolicRoute.concrete(Route(prefix=PFX, as_path=(200,)), UNIVERSE)
    __, out = transfer_route_map(route_map, sym)
    assert EMPTY_MODEL.eval_bv(out.as_path_len) == 3


def test_spec_json_roundtrip_new_predicates():
    from repro.lang.specjson import predicate_from_json, predicate_to_json

    for pred in (
        AsPathLenIn(0, 3),
        OriginIs(2),
        NextHopIn((Prefix.parse("10.0.0.0/8"), Prefix.parse("192.168.0.0/16"))),
    ):
        assert predicate_from_json(predicate_to_json(pred)) == pred


# ---------------------------------------------------------------------------
# Parser and JSON config round-trip
# ---------------------------------------------------------------------------


EXTENDED_CONFIG = """
external E as 1
router R as 2
  neighbor E as 1
    import route-map EXT
route-map EXT
  clause 10 permit
    match as-path-length 0 3
    match origin igp
    match next-hop 10.0.0.0/8 192.168.0.0/16
    set origin incomplete
  clause 20 deny
"""


def test_parser_extended_vocabulary():
    config = parse_config(EXTENDED_CONFIG)
    rm = config.import_map(Edge("E", "R"))
    route = Route(prefix=PFX, next_hop=parse_ipv4("10.1.1.1"))
    out = rm.apply(route)
    assert out is not None
    assert out.origin == ORIGIN_INCOMPLETE
    # Wrong origin falls to the deny clause.
    assert rm.apply(Route(prefix=PFX, origin=1, next_hop=parse_ipv4("10.1.1.1"))) is None
    # Next hop outside the listed spaces: denied.
    assert rm.apply(Route(prefix=PFX, next_hop=parse_ipv4("8.8.8.8"))) is None


def test_parser_rejects_bad_origin_name():
    bad = EXTENDED_CONFIG.replace("match origin igp", "match origin weird")
    with pytest.raises(Exception):
        parse_config(bad)


def test_json_roundtrip_extended_config():
    config = parse_config(EXTENDED_CONFIG)
    back = config_from_json(config_to_json(config))
    assert back.import_map(Edge("E", "R")) == config.import_map(Edge("E", "R"))
