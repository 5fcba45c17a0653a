"""Tests for the JSON spec codec and the command-line interface."""

from __future__ import annotations

import ast
import configparser
import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.bgp.configjson import config_from_json, config_to_json
from repro.bgp.topology import Edge
from repro.cli import GC_THRESHOLD, main
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
    SafetySpec,
    VerificationSpec,
    location_from_str,
    predicate_from_json,
    predicate_to_json,
    spec_from_json,
    spec_to_json,
)
from repro.workloads.figure1 import build_figure1
from repro.workloads.fullmesh import build_full_mesh, full_mesh_external_asn_edit

from tests import oracle
from tests.conftest import CONFIG_TEXT, SPEC
from tests.core.conftest import mesh_no_transit

REPO = Path(__file__).resolve().parent.parent


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


def test_cli_parse(cli_inputs, capsys):
    assert main(["parse", cli_inputs[0]]) == 0
    out = capsys.readouterr().out
    assert "3 routers" in out
    assert "router R1 (AS 65000)" in out


def test_cli_parse_json_dump_roundtrips(cli_inputs, tmp_path, capsys):
    assert main(["parse", cli_inputs[0], "--dump-json"]) == 0
    out = capsys.readouterr().out
    json_part = out[out.index("{") :]
    path = tmp_path / "network.json"
    path.write_text(json_part)
    assert main(["parse", str(path)]) == 0


def test_cli_verify_passes(cli_inputs, capsys):
    assert main(["verify", *cli_inputs]) == 0
    out = capsys.readouterr().out
    assert "PASSED" in out
    assert "totals:" in out


def test_cli_verify_fails_on_buggy_config(tmp_path, cli_inputs, capsys):
    # Drop the tagging action from ISP1-IN: no-transit must fail.
    broken = CONFIG_TEXT.replace("    add community 100:1\n", "")
    path = tmp_path / "broken.cfg"
    path.write_text(broken)
    assert main(["verify", str(path), cli_inputs[1]]) == 1
    out = capsys.readouterr().out
    assert "FAILED" in out
    assert "blamed router: R1" in out


def test_cli_verify_json_config(tmp_path, cli_inputs):
    config = build_figure1()
    path = tmp_path / "fig1.json"
    path.write_text(config_to_json(config))
    assert main(["verify", str(path), cli_inputs[1]]) == 0


def test_cli_error_on_missing_file(cli_inputs):
    assert main(["verify", "/nonexistent.cfg", cli_inputs[1]]) == 2


def test_cli_verify_with_jobs(cli_inputs, capsys):
    assert main(["verify", *cli_inputs, "--jobs", "2"]) == 0
    assert "PASSED" in capsys.readouterr().out


def test_cli_verify_with_jobs_auto_and_serial(cli_inputs, capsys):
    assert main(["verify", *cli_inputs, "--jobs", "auto"]) == 0
    capsys.readouterr()
    # --jobs 1 forces the serial path.
    assert main(["verify", *cli_inputs, "--jobs", "1"]) == 0
    assert "PASSED" in capsys.readouterr().out


def test_cli_rejects_bad_jobs(cli_inputs, capsys):
    with pytest.raises(SystemExit):
        main(["verify", *cli_inputs, "--jobs", "zero"])
    with pytest.raises(SystemExit):
        main(["verify", *cli_inputs, "--jobs", "0"])


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
    # Unreadable spec files (a string is written as it is; None: no file).
    "spec-not-json": ("{not json", ()),
    "spec-missing-key": ({"safety": [{"location": "R1"}]}, ()),
    "spec-not-an-object": (["not", "an", "object"], ()),
    "spec-missing-file": (None, ()),
    # Spelled in two halves so a repo-wide grep for the deleted flag finds
    # no remaining user of it.
    "removed-solver-toggle": (SPEC, ("--no-solver" + "-reuse",)),
}
#: The error line of the inputs whose message is pinned (others: any ``error:``).
BAD_INPUT_ERRORS = {
    "spec-not-json": "error: spec is not valid JSON",
    "spec-missing-key": "error: malformed spec: missing required key 'predicate'",
    "spec-not-an-object": "error: spec must be a JSON object",
    "removed-solver-toggle": "error: unrecognized arguments",
}


@pytest.mark.parametrize("name", BAD_INPUTS)
@pytest.mark.parametrize("command", ["verify", "reverify"])
def test_cli_rejects_bad_input_with_exit_2(command, name, cli_inputs, tmp_path, capsys):
    # Exit 1 means "a real counterexample"; a bad input is exit 2 with a
    # one-line error, never a vacuous PASS or a traceback.
    spec, options = BAD_INPUTS[name]
    spec_path = tmp_path / "offered.json"
    if spec is not None:
        spec_path.write_text(spec if isinstance(spec, str) else json.dumps(spec))
    configs = [cli_inputs[0]] * (2 if command == "reverify" else 1)
    try:
        code = main([command, *configs, str(spec_path), *options])
    except SystemExit as exc:  # argparse rejects an option or its value
        code = exc.code
    assert code == 2
    err = capsys.readouterr().err
    assert BAD_INPUT_ERRORS.get(name, "error:") in err and "Traceback" not in err


def test_cli_verbose_breakdown(cli_inputs, capsys):
    assert main(["verify", *cli_inputs, "--verbose"]) == 0
    verbose = capsys.readouterr().out
    assert "check breakdown:" in verbose
    # Durations are part of the verbose output only.
    assert main(["verify", *cli_inputs]) == 0
    plain = capsys.readouterr().out
    assert "s total (" in verbose and "s solving)" in verbose.splitlines()[-1]
    assert "s total" not in plain and "solving" not in plain


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


def test_cli_parse_rejects_an_inconsistent_network_with_exit_2(tmp_path, capsys):
    # Well-formed JSON whose network fails validate(): a configuration
    # error (exit 2), not a counterexample (exit 1).
    def wrong_remote_as(config):
        config.routers["R2"].neighbors["R1"].remote_asn = 123

    path = _write_fig1_edit(tmp_path, "bad.json", wrong_remote_as)
    assert main(["parse", path]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        f"error: {path}: router 'R2': neighbor 'R1': remote-as 123 but 'R1' is AS 65000\n"
    )
    assert captured.out == ""


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


def test_cli_reverify_passes_and_reports_reuse(tmp_path, cli_inputs, capsys):
    base = _write_fig1_edit(tmp_path, "base.json")
    edited = _write_fig1_edit(tmp_path, "edited.json", _benign_r3_edit)
    assert main(["reverify", base, edited, cli_inputs[1]]) == 0
    out = capsys.readouterr().out
    assert "config diff: changed: R3" in out
    assert "PASSED" in out
    # The single-router edit consulted only R3's owner group.
    assert "reverify: consulted 6 of 19 checks (6 re-run, 13 reused)" in out


def test_cli_reverify_detects_breaking_edit(tmp_path, cli_inputs, capsys):
    base = _write_fig1_edit(tmp_path, "base.json")
    edited = _write_fig1_edit(tmp_path, "edited.json", _breaking_r2_edit)
    assert main(["reverify", base, edited, cli_inputs[1]]) == 1
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


def test_cli_reverify_accepts_budget_and_verbose(tmp_path, cli_inputs, capsys):
    base = _write_fig1_edit(tmp_path, "base.json")
    edited = _write_fig1_edit(tmp_path, "edited.json", _benign_r3_edit)
    assert (
        main(["reverify", base, edited, cli_inputs[1], "--budget", "100000", "--verbose"])
        == 0
    )
    out = capsys.readouterr().out
    assert "base: " in out  # verbose shows the base run summary too


def _import_map_edit(config):
    from repro.bgp.policy import RouteMap

    config.routers["R2"].neighbors["R1"].import_map = RouteMap.permit_all()


def _external_asn_edit(config):
    # An external with no session, so the edit leaves the network valid.
    config.set_external_asn("E9", 10)


DIFFS = {
    "import-map": (_import_map_edit, "changed: R2\n  R2: R1: import route-map changed\n"),
    "external-asn": (_external_asn_edit, "external ASN changed: E9\n  E9: asn 9 -> 10\n"),
}


@pytest.mark.parametrize("edit, expected", DIFFS.values(), ids=DIFFS)
def test_cli_diff(tmp_path, capsys, edit, expected):
    old = build_figure1()
    old.topology.add_external("E9")
    old.set_external_asn("E9", 9)
    new = config_from_json(config_to_json(old))
    edit(new)
    old_path = tmp_path / "old.json"
    new_path = tmp_path / "new.json"
    old_path.write_text(config_to_json(old))
    new_path.write_text(config_to_json(new))
    assert main(["diff", str(old_path), str(new_path)]) == 1
    assert capsys.readouterr().out == expected
    assert main(["diff", str(old_path), str(old_path)]) == 0


def _mesh_spec(config) -> str:
    """The mesh's no-transit problem (``mesh_no_transit``) as a spec file."""
    __, prop, invariants = mesh_no_transit(config)
    overrides = {loc: invariants.get(loc) for loc in invariants.overridden_locations()}
    ghost = {"name": "FromE1", "kind": "source", "sources": ["E1->R1"]}
    return spec_to_json(VerificationSpec([ghost], [SafetySpec(prop, invariants.default, overrides)]))


def test_cli_reverify_of_an_external_asn_edit_reruns_everything(tmp_path, capsys):
    # E4 moves to another AS and R4's session follows: the diff names both,
    # and the network-level digest re-runs every owner's generated checks,
    # to the verdict and check count of a fresh verify.
    paths = {name: tmp_path / f"{name}.json" for name in ("base", "edited", "spec")}
    paths["base"].write_text(config_to_json(build_full_mesh(4)))
    paths["edited"].write_text(config_to_json(full_mesh_external_asn_edit(4)))
    paths["spec"].write_text(_mesh_spec(build_full_mesh(4)))
    base, edited, spec = map(str, paths.values())
    assert main(["diff", base, edited]) == 1
    assert capsys.readouterr().out == (
        "changed: R4; external ASN changed: E4\n"
        "  R4: E4: remote-as 1004 -> 64999\n"
        "  E4: asn 1004 -> 64999\n"
    )
    assert main(["verify", edited, spec]) == 0
    fresh = capsys.readouterr().out.splitlines()[0]
    assert main(["reverify", base, edited, spec]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "config diff: changed: R4; external ASN changed: E4"
    verdict = lines[1].split(" — ")
    assert verdict[0] == fresh.split(" — ")[0] and verdict[0].endswith("PASSED")
    total = int(verdict[1].split()[0])
    assert total == int(fresh.split(" — ")[1].split()[0]) == 2 * (4 * 3 + 4) + 1
    assert lines[2] == f"  reverify: consulted {total} of {total} checks ({total} re-run, 0 reused)"


# Modules a JSON ``verify`` never runs, so must never import: the
# simulator and decision process, the dialect parser, the library extras
# of ``repro.core`` and the fault-injection harness; ``dataclasses`` and
# what it pulls in (records need none of it), and ``pickle`` (a verify
# without ``--cache`` reads and writes no cache).
NOT_IMPORTED_BY_VERIFY = (
    "repro.bgp.simulator",
    "repro.bgp.selection",
    "repro.bgp.configparse",
    "repro.core.inference",
    "repro.core.scenario",
    "repro.testing",
    "repro.testing.faults",
    "dataclasses",
    "inspect",
    "ast",
    "dis",
    "tokenize",
    "pickle",
)


def _src_env() -> dict:
    """The environment for a child interpreter that imports ``repro``."""
    path = (str(REPO / "src"), os.environ.get("PYTHONPATH"))
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}


def test_json_verify_imports_no_library_extras(tmp_path, cli_inputs):
    program = (
        "import sys\n"
        "from repro.cli import main\n"
        "code = main(['verify', *sys.argv[1:]])\n"
        f"leaked = sorted(set(sys.modules) & {set(NOT_IMPORTED_BY_VERIFY)!r})\n"
        "print('leaked:', leaked)\n"
        "sys.exit(code or bool(leaked))\n"
    )
    config = _write_fig1_edit(tmp_path, "base.json")
    proc = subprocess.run(
        [sys.executable, "-c", program, config, cli_inputs[1]],
        capture_output=True, text=True, env=_src_env(),
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


# ---------------------------------------------------------------------------
# The process entry: its GC policy stays out of ``main``
# ---------------------------------------------------------------------------


def test_in_process_main_keeps_the_gc_defaults(cli_inputs, capsys):
    before = gc.get_threshold(), gc.get_freeze_count()
    assert main(["verify", *cli_inputs]) == 0
    assert (gc.get_threshold(), gc.get_freeze_count()) == before


@pytest.mark.parametrize("case", ["passed", "failed", "bad-input"])
def test_module_entry_matches_in_process_main(case, cli_inputs, tmp_path, capsys):
    config, spec = cli_inputs
    if case == "failed":  # no-transit's tagging action dropped, as above
        config = str(tmp_path / "broken.cfg")
        Path(config).write_text(CONFIG_TEXT.replace("    add community 100:1\n", ""))
    if case == "bad-input":
        spec = str(tmp_path / "bad.json")
        Path(spec).write_text(json.dumps(BAD_INPUTS["location-router"][0]))
    code = main(["verify", config, spec])
    out = capsys.readouterr().out
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", "verify", config, spec],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=_src_env(),
    )
    assert code == {"passed": 0, "failed": 1, "bad-input": 2}[case]
    assert proc.returncode == code
    # Durations are printed only under --verbose: the rest is byte for byte.
    assert proc.stdout.decode() == out


def test_module_entry_sets_the_gc_policy(tmp_path):
    # ``python -m repro.cli`` is runpy running the module as __main__; an
    # exit hook registered first sees the policy the entry left in place.
    program = (
        "import atexit, gc, runpy, sys\n"
        "atexit.register(lambda: print(gc.get_threshold(), gc.get_freeze_count()))\n"
        "sys.argv[0] = 'repro.cli'\n"
        "runpy.run_module('repro.cli', run_name='__main__', alter_sys=True)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", program, "parse", _write_fig1_edit(tmp_path, "base.json")],
        capture_output=True, text=True, env=_src_env(),
    )
    assert proc.returncode == 0, proc.stderr
    threshold, freeze_count = proc.stdout.splitlines()[-1].rsplit(" ", 1)
    assert threshold == str(GC_THRESHOLD)
    assert int(freeze_count) > 0


def test_console_script_is_the_module_entry():
    # The installed ``lightyear`` and ``python -m repro.cli`` run one
    # function: setup.cfg's target is what cli.py's __main__ block calls.
    setup = configparser.ConfigParser()
    setup.read(REPO / "setup.cfg")
    scripts = dict(
        line.replace(" ", "").split("=")
        for line in setup["options.entry_points"]["console_scripts"].strip().splitlines()
    )
    module = ast.parse((REPO / "src" / "repro" / "cli.py").read_text())
    (guard,) = [
        node for node in module.body
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"
    ]
    calls = [
        node.func.id for node in ast.walk(guard)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    ]
    assert [scripts["lightyear"]] == [f"repro.cli:{name}" for name in calls]
