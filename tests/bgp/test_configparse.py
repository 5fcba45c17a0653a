"""Tests for the text config dialect and the JSON round-trip."""

from __future__ import annotations

import pytest

from repro.bgp.configjson import config_from_json, config_to_json
from repro.bgp.configparse import ConfigSyntaxError, parse_config
from repro.bgp.prefix import Prefix
from repro.bgp.route import Community, Route
from repro.bgp.topology import Edge
from repro.lang.predicates import Not
from repro.workloads.figure1 import build_figure1
from repro.workloads.wan import build_wan


EXAMPLE = """
# The Figure 1 network, in the text dialect.
external ISP1 as 100
external ISP2 as 200
external Customer as 300

router R1 as 65000
  neighbor ISP1 as 100
    import route-map ISP1-IN
  neighbor R2 as 65000
  neighbor R3 as 65000

router R2 as 65000
  neighbor ISP2 as 200
    export route-map ISP2-OUT
  neighbor R1 as 65000
  neighbor R3 as 65000

router R3 as 65000
  neighbor Customer as 300
    import route-map CUST-IN
    originate 8.8.0.0/16 local-pref 150 community 65000:9
  neighbor R1 as 65000
  neighbor R2 as 65000

route-map ISP1-IN
  clause 10 permit
    add community 100:1

route-map ISP2-OUT
  clause 10 deny
    match community 100:1
  clause 20 permit

route-map CUST-IN
  clause 10 permit
    match prefix 20.0.0.0/8 le 24
    clear communities
"""


def test_parse_example_topology():
    config = parse_config(EXAMPLE)
    assert config.topology.routers == {"R1", "R2", "R3"}
    assert config.topology.externals == {"ISP1", "ISP2", "Customer"}
    assert config.topology.has_edge("R1", "ISP1")
    assert config.topology.has_edge("ISP1", "R1")
    assert config.asn_of("ISP2") == 200


def test_parse_example_route_maps_behave():
    config = parse_config(EXAMPLE)
    r = Route(prefix=Prefix.parse("10.0.0.0/8"))
    imported = config.import_route(Edge("ISP1", "R1"), r)
    assert Community(100, 1) in imported.communities
    assert config.export_route(Edge("R2", "ISP2"), imported) is None

    cust = Route(prefix=Prefix.parse("20.1.0.0/16"), communities={Community(100, 1)})
    imported = config.import_route(Edge("Customer", "R3"), cust)
    assert imported is not None and imported.communities == frozenset()
    outside = Route(prefix=Prefix.parse("99.0.0.0/8"))
    assert config.import_route(Edge("Customer", "R3"), outside) is None


def test_parse_originate():
    config = parse_config(EXAMPLE)
    (originated,) = config.originate(Edge("R3", "Customer"))
    assert originated.prefix == Prefix.parse("8.8.0.0/16")
    assert originated.local_pref == 150
    assert Community(65000, 9) in originated.communities


def test_parse_match_not_and_ranges():
    text = """
    external E as 1
    router R as 2
      neighbor E as 1
        import route-map M
    route-map M
      clause 10 permit
        match not community 1:2
        match med 0 50
        match local-pref 100 200
        match as-path-contains 666
        set med 5
        prepend 2 3
    """
    config = parse_config(text)
    rm = config.import_map(Edge("E", "R"))
    clause = rm.clauses[0]
    assert any(isinstance(m, Not) for m in clause.matches)
    route = Route(
        prefix=Prefix.parse("1.0.0.0/8"), med=10, local_pref=150, as_path=(666,)
    )
    out = rm.apply(route)
    assert out.med == 5
    assert out.as_path == (2, 2, 2, 666)


@pytest.mark.parametrize(
    "snippet, message_part",
    [
        ("bogus", "unknown keyword"),
        ("router R1", "expected: router NAME as ASN"),
        ("external E as 1\nexternal E2 as 2\nneighbor E as 1", "outside a router"),
        ("route-map M\nmatch community 1:1", "outside a clause"),
        ("route-map M\nclause 10 deny\nset med 5", "deny clauses"),
        ("router R as 1\nrouter R as 2", "duplicate router"),
        ("route-map M\nroute-map M", "duplicate route-map"),
    ],
)
def test_parse_errors(snippet, message_part):
    with pytest.raises(ConfigSyntaxError) as excinfo:
        parse_config(snippet)
    assert message_part in str(excinfo.value)


def test_undefined_route_map_rejected():
    text = """
    external E as 1
    router R as 2
      neighbor E as 1
        import route-map MISSING
    """
    with pytest.raises(ConfigSyntaxError) as excinfo:
        parse_config(text)
    assert str(excinfo.value) == "line 5: route-map 'MISSING' is never defined"
    assert excinfo.value.line_no == 5


def test_unknown_neighbor_rejected():
    text = """
    router R as 2
      neighbor GHOST as 1
    """
    with pytest.raises(ValueError) as excinfo:
        parse_config(text)
    assert str(excinfo.value) == "router 'R': unknown node 'GHOST'"


def test_remote_as_mismatch_rejected():
    text = """
    external E as 1
    router R as 2
      neighbor E as 99
    """
    with pytest.raises(ValueError) as excinfo:
        parse_config(text)
    assert str(excinfo.value) == "router 'R': neighbor 'E': remote-as 99 but 'E' is AS 1"


# ---------------------------------------------------------------------------
# JSON round-trips
# ---------------------------------------------------------------------------


def _assert_equivalent(a, b) -> None:
    assert a.topology.routers == b.topology.routers
    assert a.topology.externals == b.topology.externals
    assert a.topology.edges == b.topology.edges
    assert a.external_asns == b.external_asns
    for name in a.routers:
        ra, rb = a.routers[name], b.routers[name]
        assert ra.asn == rb.asn
        assert ra.neighbors.keys() == rb.neighbors.keys()
        for peer in ra.neighbors:
            na, nb = ra.neighbors[peer], rb.neighbors[peer]
            assert na.remote_asn == nb.remote_asn
            assert na.import_map == nb.import_map
            assert na.export_map == nb.export_map
            assert na.originated == nb.originated


def test_json_roundtrip_figure1():
    config = build_figure1()
    _assert_equivalent(config, config_from_json(config_to_json(config)))


def test_json_roundtrip_parsed_example():
    config = parse_config(EXAMPLE)
    _assert_equivalent(config, config_from_json(config_to_json(config)))


def test_json_roundtrip_wan():
    wan = build_wan(regions=2, routers_per_region=2)
    _assert_equivalent(wan.config, config_from_json(config_to_json(wan.config)))


def test_json_roundtrip_is_stable():
    config = build_figure1()
    once = config_to_json(config)
    twice = config_to_json(config_from_json(once))
    assert once == twice
