"""One front end, two spellings: the dialect lowers to the JSON document.

For every dialect text in the test suite and the examples, the lowered
document is the one ``config_to_json`` writes for the parsed network, and
the network survives ``config_to_json`` → ``config_from_json`` digest for
digest; so does the route-reflector WAN, whose clients the JSON form
carries.  Lowering and writing turn sets into lists (originated
communities, reflector clients), where a missed sort shows only under
another hash seed, so CI runs this file under several ``PYTHONHASHSEED``s.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from repro.bgp.configjson import config_from_json, config_to_json
from repro.bgp.configparse import lower_config, parse_config
from repro.core.incremental import config_digests
from repro.workloads.wan import build_wan

from tests.bgp.test_configparse import EXAMPLE
from tests.bgp.test_extended_matches import EXTENDED_CONFIG
from tests.conftest import CONFIG_TEXT


def _example_text() -> str:
    path = Path(__file__).resolve().parents[2] / "examples" / "parse_and_verify.py"
    spec = importlib.util.spec_from_file_location("parse_and_verify", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.CONFIG_TEXT


# Sets and orders the lowering must normalise (``config_to_json`` writes
# them sorted): communities out of order and repeated, clauses declared
# out of ``seq`` order, one route map on two sessions, a map declared
# after its use, and a map nobody uses.
SHUFFLED = """
external E1 as 100
external E2 as 200
router R1 as 65000
  neighbor E1 as 100
    import route-map IN
    originate 8.8.0.0/16 community 7:7 community 100:1 community 65000:9 community 7:7 med 5
    originate 9.9.0.0/16 local-pref 150
  neighbor E2 as 200
    import route-map IN
    export route-map OUT
route-map OUT
  clause 30 permit
    match not community 100:1
    prepend 65000 2
  clause 10 deny
    match prefix 10.0.0.0/8 ge 16 le 24
route-map IN
  clause 20 permit
    match community 7:7
    delete community 7:7
    set med 10
  clause 5 permit
    match as-path-length 0 3
    add community 100:1
    set local-pref 200
route-map UNUSED
  clause 10 deny
"""

DIALECT_TEXTS = {
    "cli-figure1": lambda: CONFIG_TEXT,
    "configparse-example": lambda: EXAMPLE,
    "extended-matches": lambda: EXTENDED_CONFIG,
    "example-parse-and-verify": _example_text,
    "shuffled": lambda: SHUFFLED,
}


@pytest.mark.parametrize("text", DIALECT_TEXTS.values(), ids=DIALECT_TEXTS)
def test_dialect_lowers_to_the_document_json_writes(text):
    text = text()
    config = parse_config(text)
    assert lower_config(text) == json.loads(config_to_json(config))
    back = config_from_json(config_to_json(config))
    assert config_digests(back) == config_digests(config)


@pytest.mark.parametrize("reflectors", [False, True], ids=["wan", "rrwan"])
def test_the_wan_survives_the_json_round_trip(reflectors):
    # A router's digest covers its reflector clients.
    config = build_wan(3, 4, route_reflectors=reflectors).config
    text = config_to_json(config)
    back = config_from_json(text)
    assert config_digests(back) == config_digests(config)
    assert config_to_json(back) == text


def test_only_reflectors_carry_rr_clients():
    config = build_wan(3, 4, route_reflectors=True).config
    doc = json.loads(config_to_json(config))
    reflectors = {name for name, router in doc["routers"].items() if "rr_clients" in router}
    assert reflectors == {"W0-0", "W1-0", "W2-0"}
    for name in reflectors:
        assert doc["routers"][name]["rr_clients"] == sorted(config.routers[name].rr_clients)
    # A network without reflectors writes no key at all.
    assert "rr_clients" not in config_to_json(build_wan(2, 3).config)


@pytest.mark.parametrize(
    "clients, message",
    [
        ("W0-1", 'router \'W0-0\': "rr_clients" must be an array, got a string'),
        (["W0-1", 7], 'router \'W0-0\': an "rr_clients" entry must be a string, got an integer'),
    ],
    ids=["string", "integer-entry"],
)
def test_ill_typed_rr_clients_is_a_located_error(clients, message):
    doc = json.loads(config_to_json(build_wan(2, 3, route_reflectors=True).config))
    doc["routers"]["W0-0"]["rr_clients"] = clients
    with pytest.raises(ValueError) as info:
        config_from_json(json.dumps(doc))
    assert str(info.value) == message
