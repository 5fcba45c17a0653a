"""Tests for the JSON spec codec and the command-line interface."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.bgp.configjson import config_to_json
from repro.bgp.topology import Edge
from repro.cli import main
from repro.lang.predicates import (
    AllOf,
    AnyOf,
    AsPathHas,
    FalsePred,
    GhostIs,
    HasCommunity,
    Implies,
    LocalPrefIn,
    MedIn,
    Not,
    PrefixIn,
    TruePred,
)
from repro.bgp.prefix import Prefix
from repro.bgp.route import Community
from repro.lang.specjson import (
    location_from_str,
    predicate_from_json,
    predicate_to_json,
    spec_from_json,
    spec_to_json,
)
from repro.workloads.figure1 import build_figure1

from tests import oracle


CONFIG_TEXT = """
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
  neighbor R1 as 65000
  neighbor R2 as 65000
route-map ISP1-IN
  clause 10 permit
    add community 100:1
route-map ISP2-OUT
  clause 10 deny
    match community 100:1
  clause 20 permit
"""

SPEC = {
    "ghosts": [{"name": "FromISP1", "kind": "source", "sources": ["ISP1->R1"]}],
    "safety": [
        {
            "name": "no-transit",
            "location": "R2->ISP2",
            "predicate": {"kind": "not", "inner": {"kind": "ghost", "name": "FromISP1"}},
            "invariants": {
                "default": {
                    "kind": "implies",
                    "antecedent": {"kind": "ghost", "name": "FromISP1"},
                    "consequent": {"kind": "community", "community": "100:1"},
                },
                "overrides": {
                    "R2->ISP2": {
                        "kind": "not",
                        "inner": {"kind": "ghost", "name": "FromISP1"},
                    }
                },
            },
        }
    ],
}


# ---------------------------------------------------------------------------
# Predicate codec
# ---------------------------------------------------------------------------

ROUNDTRIP_PREDICATES = [
    TruePred(),
    FalsePred(),
    HasCommunity(Community(100, 1)),
    PrefixIn.under(Prefix.parse("10.0.0.0/8")),
    GhostIs("X"),
    GhostIs("X", False),
    AsPathHas(666),
    LocalPrefIn(10, 20),
    MedIn(0, 5),
    Not(HasCommunity(Community(1, 1))),
    AllOf((TruePred(), MedIn(0, 1))),
    AnyOf((AsPathHas(1), AsPathHas(2))),
    Implies(GhostIs("X"), HasCommunity(Community(2, 2))),
]


@pytest.mark.parametrize("pred", ROUNDTRIP_PREDICATES, ids=lambda p: repr(p))
def test_predicate_json_roundtrip(pred):
    doc = predicate_to_json(pred)
    back = predicate_from_json(doc)
    assert back == pred


def test_predicate_unknown_kind_raises():
    with pytest.raises(ValueError):
        predicate_from_json({"kind": "mystery"})


def test_location_parsing():
    assert location_from_str("R1") == "R1"
    assert location_from_str("R1->R2") == Edge("R1", "R2")
    assert location_from_str(" R1 -> R2 ") == Edge("R1", "R2")


def test_spec_roundtrip():
    spec = spec_from_json(json.dumps(SPEC))
    assert len(spec.safety) == 1
    text = spec_to_json(spec)
    again = spec_from_json(text)
    assert again.safety[0].property.name == "no-transit"
    assert again.safety[0].property.location == Edge("R2", "ISP2")


def test_spec_ghost_building():
    spec = spec_from_json(json.dumps(SPEC))
    config = build_figure1()
    (ghost,) = spec.build_ghosts(config.topology)
    assert ghost.name == "FromISP1"
    assert ghost.import_update(Edge("ISP1", "R1")) is True
    assert ghost.import_update(Edge("ISP2", "R2")) is False


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "network.cfg"
    path.write_text(CONFIG_TEXT)
    return str(path)


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(SPEC))
    return str(path)


def test_cli_parse(config_file, capsys):
    assert main(["parse", config_file]) == 0
    out = capsys.readouterr().out
    assert "3 routers" in out
    assert "router R1 (AS 65000)" in out


def test_cli_parse_json_dump_roundtrips(config_file, tmp_path, capsys):
    assert main(["parse", config_file, "--dump-json"]) == 0
    out = capsys.readouterr().out
    json_part = out[out.index("{") :]
    path = tmp_path / "network.json"
    path.write_text(json_part)
    assert main(["parse", str(path)]) == 0


def test_cli_verify_passes(config_file, spec_file, capsys):
    assert main(["verify", config_file, spec_file]) == 0
    out = capsys.readouterr().out
    assert "PASSED" in out
    assert "totals:" in out


def test_cli_verify_fails_on_buggy_config(tmp_path, spec_file, capsys):
    # Drop the tagging action from ISP1-IN: no-transit must fail.
    broken = CONFIG_TEXT.replace("    add community 100:1\n", "")
    path = tmp_path / "broken.cfg"
    path.write_text(broken)
    assert main(["verify", str(path), spec_file]) == 1
    out = capsys.readouterr().out
    assert "FAILED" in out
    assert "blamed router: R1" in out


def test_cli_verify_json_config(tmp_path, spec_file):
    config = build_figure1()
    path = tmp_path / "fig1.json"
    path.write_text(config_to_json(config))
    assert main(["verify", str(path), spec_file]) == 0


def test_cli_error_on_missing_file(spec_file):
    assert main(["verify", "/nonexistent.cfg", spec_file]) == 2


def test_cli_verify_with_jobs(config_file, spec_file, capsys):
    assert main(["verify", config_file, spec_file, "--jobs", "2"]) == 0
    assert "PASSED" in capsys.readouterr().out


def test_cli_verify_with_jobs_auto_and_serial(config_file, spec_file, capsys):
    assert main(["verify", config_file, spec_file, "--jobs", "auto"]) == 0
    capsys.readouterr()
    # --jobs 1 forces the serial path.
    assert main(["verify", config_file, spec_file, "--jobs", "1"]) == 0
    assert "PASSED" in capsys.readouterr().out


def test_cli_rejects_bad_jobs(config_file, spec_file, capsys):
    with pytest.raises(SystemExit):
        main(["verify", config_file, spec_file, "--jobs", "zero"])
    with pytest.raises(SystemExit):
        main(["verify", config_file, spec_file, "--jobs", "0"])


def test_cli_rejects_duplicate_ghost_names(tmp_path, capsys):
    config = tmp_path / "two-externals.cfg"
    config.write_text(
        "external E1 as 100\nexternal E2 as 200\nrouter R1 as 65000\n"
        "  neighbor E1 as 100\n  neighbor E2 as 200\n"
    )
    spec = {
        "ghosts": [
            {"name": "X", "kind": "source", "sources": ["E1->R1"]},
            {"name": "X", "kind": "source", "sources": ["E2->R1"]},
        ],
        "safety": [
            {
                "name": "no-x",
                "location": "R1->E1",
                "predicate": {"kind": "not", "inner": {"kind": "ghost", "name": "X"}},
                "invariants": {"default": {"kind": "true"}},
            }
        ],
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    assert main(["verify", str(config), str(spec_path)]) == 2
    assert "error: ghost 'X' is declared more than once" in capsys.readouterr().err


LIVENESS_SPEC = {
    "safety": [],
    "liveness": [
        {
            "name": "customer-reaches-isp2",
            "location": "R2->ISP2",
            "predicate": {
                "kind": "prefix-in",
                "ranges": ["20.0.0.0/8 ge 8 le 24"],
            },
            "path": ["Customer->R3", "R3", "R3->R2", "R2", "R2->ISP2"],
            "constraints": [
                {"kind": "prefix-in", "ranges": ["20.0.0.0/8 ge 8 le 24"]},
                {
                    "kind": "all",
                    "inners": [
                        {"kind": "prefix-in", "ranges": ["20.0.0.0/8 ge 8 le 24"]},
                        {"kind": "not", "inner": {"kind": "community", "community": "100:1"}},
                    ],
                },
                {
                    "kind": "all",
                    "inners": [
                        {"kind": "prefix-in", "ranges": ["20.0.0.0/8 ge 8 le 24"]},
                        {"kind": "not", "inner": {"kind": "community", "community": "100:1"}},
                    ],
                },
                {
                    "kind": "all",
                    "inners": [
                        {"kind": "prefix-in", "ranges": ["20.0.0.0/8 ge 8 le 24"]},
                        {"kind": "not", "inner": {"kind": "community", "community": "100:1"}},
                    ],
                },
                {"kind": "prefix-in", "ranges": ["20.0.0.0/8 ge 8 le 24"]},
            ],
        }
    ],
}


def _with_safety(**changes) -> dict:
    """SPEC with its one safety problem changed by ``changes``."""
    return {**SPEC, "safety": [{**SPEC["safety"][0], **changes}]}


def _with_liveness(**changes) -> dict:
    """LIVENESS_SPEC with SPEC's ghost declared and its one liveness
    problem changed by ``changes``."""
    return {"ghosts": SPEC["ghosts"], "liveness": [{**LIVENESS_SPEC["liveness"][0], **changes}]}


_DEFAULT_INVARIANT = SPEC["safety"][0]["invariants"]["default"]
_SOURCE_GHOST = SPEC["ghosts"][0]
# ``FromISP1`` is the declared ghost.
_GHOST_TYPO = {"kind": "not", "inner": {"kind": "ghost", "name": "FromISP"}}

BAD_INPUTS = {
    # Names not in the network: each would PASS vacuously.
    "location-router": (_with_safety(location="R9", predicate=_DEFAULT_INVARIANT), ()),
    "location-edge": (_with_safety(location="R2->ISP9", predicate=_DEFAULT_INVARIANT), ()),
    "location-typo": (_with_safety(location="R2->ISP3", predicate=_DEFAULT_INVARIANT), ()),
    "waypoint-router": (
        {**SPEC, "ghosts": [_SOURCE_GHOST, {"name": "ViaR9", "kind": "waypoint", "router": "R9"}]},
        (),
    ),
    # Malformed specs and options.
    "override-router": (
        _with_safety(invariants={"default": _DEFAULT_INVARIANT, "overrides": {"R9": {"kind": "true"}}}),
        (),
    ),
    "override-edge": (
        _with_safety(invariants={"default": _DEFAULT_INVARIANT, "overrides": {"R1->R9": {"kind": "true"}}}),
        (),
    ),
    "ghost-without-sources": ({**SPEC, "ghosts": [{"name": "FromISP1", "kind": "source"}]}, ()),
    # A ghost with no source is false everywhere: `not FromISP1` would PASS.
    "ghost-empty-sources": ({**SPEC, "ghosts": [{**_SOURCE_GHOST, "sources": []}]}, ()),
    # An undeclared ghost is a free attribute: a bogus FAILED (or PASS).
    "ghost-name-typo": (
        _with_safety(invariants={
            "default": {**_DEFAULT_INVARIANT, "antecedent": {"kind": "ghost", "name": "FromISP"}},
            "overrides": {},
        }),
        (),
    ),
    "property-ghost-typo": (
        _with_safety(predicate={"kind": "not", "inner": {"kind": "ghost", "name": "Nope"}}),
        (),
    ),
    "override-ghost-typo": (
        _with_safety(invariants={"default": _DEFAULT_INVARIANT, "overrides": {"R1->R2": _GHOST_TYPO}}),
        (),
    ),
    "liveness-ghost-typo": (_with_liveness(predicate=_GHOST_TYPO), ()),
    "constraint-ghost-typo": (
        _with_liveness(constraints=[_GHOST_TYPO, *LIVENESS_SPEC["liveness"][0]["constraints"][1:]]),
        (),
    ),
    "waypoint-without-router": (
        {**SPEC, "ghosts": [_SOURCE_GHOST, {"name": "Via", "kind": "waypoint"}]},
        (),
    ),
    "negative-budget": (SPEC, ("--budget", "-5")),
    # Unknown keys and empty specs: each would PASS with zero checks.
    "no-property": ({}, ()),
    "only-ghosts": ({"ghosts": SPEC["ghosts"]}, ()),
    "top-level-typo": ({"ghosts": SPEC["ghosts"], "saftey": SPEC["safety"]}, ()),
    "ghost-key-typo": ({**SPEC, "ghosts": [{**_SOURCE_GHOST, "soruces": ["ISP2->R2"]}]}, ()),
    "safety-key-typo": (_with_safety(invariant=SPEC["safety"][0]["invariants"]), ()),
    "invariants-key-typo": (
        _with_safety(invariants={"default": _DEFAULT_INVARIANT, "override": {}}),
        (),
    ),
    "liveness-key-typo": ({"liveness": [{**LIVENESS_SPEC["liveness"][0], "constraint": []}]}, ()),
}


@pytest.mark.parametrize("spec, options", BAD_INPUTS.values(), ids=BAD_INPUTS)
@pytest.mark.parametrize("command", ["verify", "reverify"])
def test_cli_rejects_bad_input_with_exit_2(command, spec, options, config_file, tmp_path, capsys):
    # Exit 1 means "a real counterexample"; a bad input is exit 2 with a
    # one-line error, never a vacuous PASS or a traceback.
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    configs = [config_file] * (2 if command == "reverify" else 1)
    try:
        code = main([command, *configs, str(spec_path), *options])
    except SystemExit as exc:  # argparse rejects an option value
        code = exc.code
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_cli_verbose_breakdown(config_file, spec_file, capsys):
    assert main(["verify", config_file, spec_file, "--verbose"]) == 0
    out = capsys.readouterr().out
    assert "check breakdown:" in out


def test_cli_liveness_spec(tmp_path, capsys):
    # The built Figure 1 network (with the customer-prefix denies on the
    # ISP imports) proves the liveness property; serialise it to JSON.
    config = build_figure1()
    config_path = tmp_path / "fig1.json"
    config_path.write_text(config_to_json(config))
    spec_path = tmp_path / "liveness.json"
    spec_path.write_text(json.dumps(LIVENESS_SPEC))
    assert main(["verify", str(config_path), str(spec_path)]) == 0
    out = capsys.readouterr().out
    assert "liveness" in out and "PASSED" in out


def test_cli_config_directory(tmp_path, capsys):
    # Production-style layout: one file per device plus a policies file.
    confdir = tmp_path / "network"
    confdir.mkdir()
    devices, __, rest = CONFIG_TEXT.partition("\nroute-map")
    policies = "route-map" + rest
    for i, stanza in enumerate(devices.split("router ")[1:]):
        (confdir / f"r{i}.cfg").write_text("router " + stanza)
    (confdir / "externals.cfg").write_text(
        "\n".join(l for l in devices.splitlines() if l.startswith("external"))
    )
    (confdir / "policies.cfg").write_text(policies)
    assert main(["parse", str(confdir)]) == 0
    out = capsys.readouterr().out
    assert "3 routers" in out


def test_cli_empty_directory_errors(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["parse", str(empty)]) == 2


def _write_fig1_edit(tmp_path, name, edit=None):
    """Serialise a (possibly edited) Figure 1 config to JSON."""
    config = build_figure1()
    if edit is not None:
        edit(config)
    path = tmp_path / name
    path.write_text(config_to_json(config))
    return str(path)


def _benign_r3_edit(config):
    oracle.bogon_edit(config, "R3", "Customer")


def _breaking_r2_edit(config):
    config.routers["R2"].neighbors["R1"].import_map = oracle.STRIP


def test_cli_reverify_passes_and_reports_reuse(tmp_path, spec_file, capsys):
    base = _write_fig1_edit(tmp_path, "base.json")
    edited = _write_fig1_edit(tmp_path, "edited.json", _benign_r3_edit)
    assert main(["reverify", base, edited, spec_file]) == 0
    out = capsys.readouterr().out
    assert "config diff: changed: R3" in out
    assert "PASSED" in out
    # The single-router edit consulted only R3's owner group.
    assert "reverify: consulted 6 of 19 checks (6 re-run, 13 reused)" in out


def test_cli_reverify_detects_breaking_edit(tmp_path, spec_file, capsys):
    base = _write_fig1_edit(tmp_path, "base.json")
    edited = _write_fig1_edit(tmp_path, "edited.json", _breaking_r2_edit)
    assert main(["reverify", base, edited, spec_file]) == 1
    out = capsys.readouterr().out
    assert "FAILED" in out
    assert "blamed router: R2" in out


def test_cli_reverify_liveness_spec(tmp_path, capsys):
    base = _write_fig1_edit(tmp_path, "base.json")
    edited = _write_fig1_edit(tmp_path, "edited.json", _benign_r3_edit)
    spec_path = tmp_path / "liveness.json"
    spec_path.write_text(json.dumps(LIVENESS_SPEC))
    assert main(["reverify", base, edited, str(spec_path)]) == 0
    out = capsys.readouterr().out
    assert "liveness" in out and "PASSED" in out
    assert "reverify: consulted" in out


def test_cli_reverify_accepts_budget_and_verbose(tmp_path, spec_file, capsys):
    base = _write_fig1_edit(tmp_path, "base.json")
    edited = _write_fig1_edit(tmp_path, "edited.json", _benign_r3_edit)
    assert (
        main(["reverify", base, edited, spec_file, "--budget", "100000", "--verbose"])
        == 0
    )
    out = capsys.readouterr().out
    assert "base: " in out  # verbose shows the base run summary too


def test_cli_diff(tmp_path, capsys):
    old = build_figure1()
    new = build_figure1()
    from repro.bgp.policy import RouteMap

    new.routers["R2"].neighbors["R1"].import_map = RouteMap.permit_all()
    old_path = tmp_path / "old.json"
    new_path = tmp_path / "new.json"
    old_path.write_text(config_to_json(old))
    new_path.write_text(config_to_json(new))
    assert main(["diff", str(old_path), str(new_path)]) == 1
    out = capsys.readouterr().out
    assert "changed: R2" in out
    assert main(["diff", str(old_path), str(old_path)]) == 0


# Modules a JSON ``verify`` never runs, so must never import: the
# simulator and decision process, the dialect parser, and the library
# extras of ``repro.core``.
NOT_IMPORTED_BY_VERIFY = (
    "repro.bgp.simulator",
    "repro.bgp.selection",
    "repro.bgp.configparse",
    "repro.core.inference",
    "repro.core.scenario",
)


def test_json_verify_imports_no_library_extras(tmp_path, spec_file):
    program = (
        "import sys\n"
        "from repro.cli import main\n"
        "code = main(['verify', *sys.argv[1:]])\n"
        f"leaked = sorted(set(sys.modules) & {set(NOT_IMPORTED_BY_VERIFY)!r})\n"
        "print('leaked:', leaked)\n"
        "sys.exit(code or bool(leaked))\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    config = _write_fig1_edit(tmp_path, "base.json")
    proc = subprocess.run(
        [sys.executable, "-c", program, config, spec_file],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "PASSED" in proc.stdout
    assert "leaked: []" in proc.stdout


def test_lint_is_not_a_subcommand(capsys):
    # The invariants it checked are tests now: the saved cache's shape,
    # digest coverage by field, and the CDCL loop's wall deadline.
    with pytest.raises(SystemExit) as exc:
        main(["lint"])
    assert exc.value.code == 2
    assert "invalid choice: 'lint'" in capsys.readouterr().err
