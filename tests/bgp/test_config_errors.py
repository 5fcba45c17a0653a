"""Malformed, self-peering and inconsistent configurations are
configuration errors.

Exit code 1 means "a property has a counterexample", so a configuration
the parsers cannot accept must exit 2 with a message that says where the
problem is — never a traceback.  The JSON builder, which the dialect
lowers to, names the router (and neighbor, route map and clause) whose
field is missing or ill-typed, or whose session contradicts the network;
every command prints one ``error:`` line per problem, naming the file.
"""

from __future__ import annotations

import json

import pytest

from repro.bgp.configjson import config_from_json, config_to_json
from repro.bgp.configparse import ConfigSyntaxError, lower_config, parse_config
from repro.bgp.topology import Topology
from repro.cli import main
from repro.workloads.wan import build_wan

from tests.conftest import CONFIG_TEXT
from tests.conftest import SPEC as CLI_SPEC

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
    # One builder behind both formats: one message, and not a syntax error.
    for parse, text in (
        (config_from_json, json.dumps(SELF_PEERING_JSON)),
        (parse_config, SELF_PEERING_DIALECT),
    ):
        with pytest.raises(ValueError) as info:
            parse(text)
        assert not isinstance(info.value, ConfigSyntaxError)
        assert str(info.value) == "router 'R1': 'R1' cannot peer with itself"


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


# ---------------------------------------------------------------------------
# One builder: one message per defect, in either format, from any command
# ---------------------------------------------------------------------------

MISMATCH = "router 'R2': neighbor 'R1': remote-as 123 but 'R1' is AS 65000"
R2_SESSIONS = "  neighbor R1 as 65000\n  neighbor R3 as 65000\n"  # R2's stanza only


def _figure1_files(tmp_path, suffix: str) -> tuple[str, str, str]:
    """(Figure 1, Figure 1 with R2's remote-as for R1 set to 123, its
    no-transit spec) as files; a ``.json`` one holds the lowered dialect."""
    assert CONFIG_TEXT.count(R2_SESSIONS) == 1
    bad = CONFIG_TEXT.replace(R2_SESSIONS, R2_SESSIONS.replace("65000", "123", 1))
    paths = []
    for name, text in (("good", CONFIG_TEXT), ("bad", bad)):
        path = tmp_path / f"{name}{suffix}"
        path.write_text(json.dumps(lower_config(text)) if suffix == ".json" else text)
        paths.append(str(path))
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(CLI_SPEC))
    return (*paths, str(spec))


COMMANDS = {
    "parse": lambda good, bad, spec: ["parse", bad],
    "verify": lambda good, bad, spec: ["verify", bad, spec],
    "reverify-base": lambda good, bad, spec: ["reverify", bad, good, spec],
    "reverify-edited": lambda good, bad, spec: ["reverify", good, bad, spec],
}


@pytest.mark.parametrize("suffix", [".json", ".cfg"])
@pytest.mark.parametrize("argv", COMMANDS.values(), ids=COMMANDS)
def test_inconsistent_network_is_one_error_line_in_every_format_and_command(
    tmp_path, capsys, suffix, argv
):
    good, bad, spec = _figure1_files(tmp_path, suffix)
    assert main(argv(good, bad, spec)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""  # no "config diff:" before the refusal
    assert captured.err == f"error: {bad}: {MISMATCH}\n"


# Each used to be reported as "line 0: ...": a network defect is the
# builder's, located as in a JSON file; a syntax error names its line.
NETWORK_DEFECTS = [
    (
        "undeclared-neighbor",
        "router R as 2\n  neighbor GHOST as 1\n",
        "router 'R': unknown node 'GHOST'",
    ),
    (
        "router-and-external",
        "external R as 1\nrouter R as 2\n",
        "external 'R': 'R' is already an internal router",
    ),
    (
        "remote-as",
        "external E as 1\nrouter R as 2\n  neighbor E as 99\n",
        "router 'R': neighbor 'E': remote-as 99 but 'E' is AS 1",
    ),
    (
        "dangling-route-map",
        "external E as 1\nrouter R as 2\n  neighbor E as 1\n    export route-map NOPE\n",
        "line 4: route-map 'NOPE' is never defined",
    ),
    (
        "duplicate-neighbor",
        "external E as 1\nrouter R as 2\n  neighbor E as 1\n  neighbor E as 1\n",
        "line 4: duplicate neighbor 'E' (in 'neighbor E as 1')",
    ),
    (
        "duplicate-external",
        "external E1 as 100\nexternal E1 as 200\n",
        "line 2: duplicate external 'E1' (in 'external E1 as 200')",
    ),
]


@pytest.mark.parametrize(
    "text, expected", [case[1:] for case in NETWORK_DEFECTS], ids=[case[0] for case in NETWORK_DEFECTS]
)
def test_no_dialect_error_says_line_0(text, expected):
    with pytest.raises(ValueError) as info:
        parse_config(text)
    assert str(info.value) == expected
    assert isinstance(info.value, ConfigSyntaxError) is expected.startswith("line ")


def _reflector_naming(*clients):
    """The WAN with reflectors, ``W0-0`` also naming ``clients``."""
    config = build_wan(3, 4, route_reflectors=True).config
    config.routers["W0-0"].rr_clients |= frozenset(clients)
    return config


# An external neighbor of the reflector and a name the network lacks: each
# is its own located problem, in a config built in code and in JSON.
BAD_CLIENTS = [
    "router 'W0-0': route-reflector client 'NOPE' is not an iBGP neighbor",
    "router 'W0-0': route-reflector client 'Peer-W0-0-0' is not an iBGP neighbor",
]


def test_reflector_clients_must_be_ibgp_neighbors():
    assert _reflector_naming().validate() == []
    config = _reflector_naming("Peer-W0-0-0", "NOPE")
    assert config.validate() == BAD_CLIENTS
    with pytest.raises(ValueError) as info:
        config_from_json(config_to_json(config))
    assert str(info.value).splitlines() == BAD_CLIENTS
