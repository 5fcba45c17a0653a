"""Malformed and self-peering configurations are configuration errors.

Exit code 1 means "a property has a counterexample", so a configuration
the parsers cannot accept must exit 2 with a message that says where the
problem is — never a traceback.  The JSON parser names the router (and
neighbor, route map and clause) whose field is missing or ill-typed.
"""

from __future__ import annotations

import json

import pytest

from repro.bgp.configjson import config_from_json
from repro.bgp.configparse import ConfigSyntaxError, parse_config
from repro.bgp.topology import Topology
from repro.cli import main

SPEC = {
    "safety": [
        {
            "name": "trivial",
            "location": "R1",
            "predicate": {"kind": "true"},
            "invariants": {"default": {"kind": "true"}, "overrides": {}},
        }
    ]
}

CLAUSE_WITHOUT_DISPOSITION = {"name": "IN", "clauses": [{"seq": 10}]}


def _router(neighbors=None, **fields):
    return {"asn": 1, "neighbors": neighbors or {}, **fields}


def _neighbor(**fields):
    return {"remote_asn": 2, **fields}


# (id, document, what stderr must contain)
MALFORMED = [
    ("missing-asn", {"routers": {"R1": {"neighbors": {}}}}, "router 'R1': missing \"asn\""),
    ("top-level-array", [1, 2], "configuration must be an object, got an array"),
    (
        "undeclared-neighbor",
        {"routers": {"R1": _router({"E9": _neighbor()})}},
        "router 'R1': unknown node 'E9'",
    ),
    ("routers-array", {"routers": ["R1"]}, '"routers" must be an object, got an array'),
    (
        "asn-string",
        {"routers": {"R1": _router(asn="65000")}},
        "router 'R1': \"asn\" must be an integer, got a string",
    ),
    (
        "asn-boolean",
        {"routers": {"R1": _router(asn=True)}},
        "router 'R1': \"asn\" must be an integer, got a boolean",
    ),
    ("router-not-object", {"routers": {"R1": 7}}, "router 'R1': a router must be an object"),
    (
        "neighbors-array",
        {"routers": {"R1": _router(neighbors=["R2"])}},
        "router 'R1': \"neighbors\" must be an object, got an array",
    ),
    (
        "missing-remote-asn",
        {"externals": {"E1": 2}, "routers": {"R1": _router({"E1": {}})}},
        "router 'R1': neighbor 'E1': missing \"remote_asn\"",
    ),
    (
        "neighbor-not-object",
        {"externals": {"E1": 2}, "routers": {"R1": _router({"E1": None})}},
        "router 'R1': neighbor 'E1': a neighbor must be an object, got null",
    ),
    (
        "route-map-missing-name",
        {
            "externals": {"E1": 2},
            "routers": {"R1": _router({"E1": _neighbor(import_map={"clauses": []})})},
        },
        "router 'R1': neighbor 'E1': missing \"name\"",
    ),
    (
        "clause-missing-disposition",
        {
            "externals": {"E1": 2},
            "routers": {
                "R1": _router({"E1": _neighbor(export_map=CLAUSE_WITHOUT_DISPOSITION)})
            },
        },
        "router 'R1': neighbor 'E1': route map 'IN' clause 0: missing \"disposition\"",
    ),
    (
        "unknown-match-kind",
        {
            "externals": {"E1": 2},
            "routers": {
                "R1": _router(
                    {
                        "E1": _neighbor(
                            import_map={
                                "name": "IN",
                                "clauses": [
                                    {
                                        "seq": 10,
                                        "disposition": "permit",
                                        "matches": [{"kind": "colour"}],
                                    }
                                ],
                            }
                        )
                    }
                )
            },
        },
        "router 'R1': neighbor 'E1': route map 'IN' clause 0: unknown match kind 'colour'",
    ),
    (
        "originated-not-array",
        {"externals": {"E1": 2}, "routers": {"R1": _router({"E1": _neighbor(originated=5)})}},
        "router 'R1': neighbor 'E1': \"originated\" must be an array, got an integer",
    ),
    (
        "originated-route-missing-prefix",
        {
            "externals": {"E1": 2},
            "routers": {"R1": _router({"E1": _neighbor(originated=[{"med": 1}])})},
        },
        "router 'R1': neighbor 'E1': missing \"prefix\"",
    ),
    (
        "external-asn-string",
        {"externals": {"E1": "two"}, "routers": {}},
        "external 'E1': \"E1\" must be an integer, got a string",
    ),
]


@pytest.mark.parametrize(
    "doc, expected", [case[1:] for case in MALFORMED], ids=[case[0] for case in MALFORMED]
)
def test_malformed_json_is_a_located_value_error(doc, expected):
    with pytest.raises(ValueError) as info:
        config_from_json(json.dumps(doc))
    assert expected in str(info.value)


@pytest.mark.parametrize("command", ["parse", "verify"])
@pytest.mark.parametrize(
    "doc, expected", [case[1:] for case in MALFORMED], ids=[case[0] for case in MALFORMED]
)
def test_malformed_json_exits_2_without_traceback(tmp_path, capsys, command, doc, expected):
    config = tmp_path / "network.json"
    config.write_text(json.dumps(doc))
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(SPEC))
    argv = [command, str(config)] + ([str(spec)] if command == "verify" else [])
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error: ")
    assert expected in err


# ---------------------------------------------------------------------------
# Self-peering
# ---------------------------------------------------------------------------


def test_topology_rejects_self_peering():
    topo = Topology()
    topo.add_router("R1")
    with pytest.raises(ValueError, match="'R1' cannot peer with itself"):
        topo.add_edge("R1", "R1")
    with pytest.raises(ValueError, match="cannot peer with itself"):
        topo.add_peering("R1", "R1")
    with pytest.raises(ValueError, match="cannot peer with itself"):
        topo.add_sessions("R1", ["R1"])
    assert not topo.has_edge("R1", "R1")
    assert topo.edges == frozenset()


SELF_PEERING_JSON = {"routers": {"R1": {"asn": 1, "neighbors": {"R1": {"remote_asn": 1}}}}}
SELF_PEERING_DIALECT = "router R1 as 1\n  neighbor R1 as 1\n"


def test_both_parsers_reject_self_peering():
    with pytest.raises(ValueError, match="router 'R1': 'R1' cannot peer with itself"):
        config_from_json(json.dumps(SELF_PEERING_JSON))
    with pytest.raises(ConfigSyntaxError, match="R1: 'R1' cannot peer with itself"):
        parse_config(SELF_PEERING_DIALECT)


@pytest.mark.parametrize("command", ["parse", "verify"])
@pytest.mark.parametrize(
    "name, text",
    [("self.json", json.dumps(SELF_PEERING_JSON)), ("self.cfg", SELF_PEERING_DIALECT)],
    ids=["json", "dialect"],
)
def test_self_peering_exits_2(tmp_path, capsys, command, name, text):
    config = tmp_path / name
    config.write_text(text)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(SPEC))
    argv = [command, str(config)] + ([str(spec)] if command == "verify" else [])
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "cannot peer with itself" in err
    assert "Traceback" not in err
