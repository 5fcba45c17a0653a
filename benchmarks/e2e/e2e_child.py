"""The process one benchmark sample runs in.

Untraced CLI samples are plain ``python -m repro.cli ...`` and never come
through here.  This script is the child for

* the two API-driven workloads (``wan``, ``monolithic``), traced or not:
  the driver prints its observations as one JSON line, the harness
  compares them with ``expected.json``;
* the traced variant of a CLI sample (``cli ARGS...``): the same
  ``repro.cli.main(argv)`` in-process, under the span wrappers of
  :mod:`e2e_tracer`.

Usage: ``e2e_child.py [--trace FILE --sample ID] {cli ARGS... | wan PARAMS | monolithic PARAMS}``
"""

from __future__ import annotations

import json
import sys
from typing import Any


def run_wan(params: dict[str, Any]) -> dict[str, Any]:
    """Paper Table 4: 35 problems back to back on one workspace, then the
    no-bogons family on a WAN whose seeded edge router skips the filter."""
    from repro.core.safety import verify_safety_family
    from repro.core.workspace import Workspace
    from repro.workloads.wan import build_wan
    from repro.workloads.wan_properties import (
        peering_problem,
        peering_quality_predicates,
        verify_ip_reuse_liveness_problems,
        verify_ip_reuse_safety_problems,
        verify_peering_problems,
    )

    size = {"regions": params["regions"], "routers_per_region": params["routers_per_region"]}
    wan = build_wan(**size)
    families: dict[str, Any] = {}
    with Workspace(wan.config) as workspace:
        for name, sweep in (
            ("peering", verify_peering_problems),
            ("ip_reuse_safety", verify_ip_reuse_safety_problems),
            ("ip_reuse_liveness", verify_ip_reuse_liveness_problems),
        ):
            reports = [report for __, report in sweep(wan, workspace=workspace)]
            families[name] = {
                "problems": len(reports),
                "passed": sum(1 for r in reports if r.passed),
                "checks": sum(r.num_checks for r in reports),
                "undecided": sum(len(r.unknowns) for r in reports),
            }

    buggy = build_wan(**size, buggy_edge_router=params["buggy_edge_router"])
    problem = peering_problem(buggy, "no-bogons", peering_quality_predicates(buggy)["no-bogons"])
    report = verify_safety_family(
        buggy.config, problem.properties, problem.invariants, ghosts=(problem.ghost,)
    )
    return {
        "routers": len(wan.config.topology.routers),
        "edges": len(wan.config.topology.edges),
        "families": families,
        "buggy": {
            "passed": report.passed,
            "checks": report.num_checks,
            "undecided": len(report.unknowns),
            "failing_edges": sorted(str(f.check.edge) for f in report.failures),
            "blamed_routers": sorted({str(f.blamed_router) for f in report.failures}),
        },
    }


def run_monolithic(params: dict[str, Any]) -> dict[str, Any]:
    """The Minesweeper-style baseline on small full meshes; ``drop_deny``
    removes the deny clause of ``E2-OUT`` so transit routes leak at R2->E2."""
    from repro.baselines.minesweeper import MinesweeperVerifier
    from repro.bgp.policy import RouteMap
    from repro.bgp.topology import Edge
    from repro.core.properties import SafetyProperty
    from repro.lang.ghost import GhostAttribute
    from repro.lang.predicates import GhostIs, Not
    from repro.workloads.fullmesh import build_full_mesh

    cases = []
    for case in params["cases"]:
        config = build_full_mesh(case["n"])
        if case["drop_deny"]:
            session = config.routers["R2"].neighbors["E2"]
            session.export_map = RouteMap("E2-OUT", session.export_map.clauses[1:])
        ghost = GhostAttribute.source_tracker("FromE1", config.topology, [Edge("E1", "R1")])
        prop = SafetyProperty(
            location=Edge("R2", "E2"), predicate=Not(GhostIs("FromE1")), name="no-transit"
        )
        result = MinesweeperVerifier(config, ghosts=(ghost,)).verify(prop)
        location = result.counterexample_location
        cases.append(
            {
                "n": case["n"],
                "drop_deny": case["drop_deny"],
                "verified": result.verified,
                "undecided": result.timed_out,
                "location": None if location is None else str(location),
            }
        )
    return {"cases": cases}


DRIVERS = {"wan": run_wan, "monolithic": run_monolithic}

# What each mode imports before it does any work (its start-up cost).
MODE_IMPORTS = {
    "cli": ("repro.cli",),
    "wan": ("repro.core.workspace", "repro.workloads.wan_properties"),
    "monolithic": ("repro.baselines.minesweeper", "repro.workloads.fullmesh"),
}


def run(mode: str, rest: list[str]) -> int:
    if mode == "cli":
        from repro.cli import main as cli_main

        return cli_main(rest)
    with open(rest[0]) as handle:
        params = json.load(handle)
    print(json.dumps(DRIVERS[mode](params), sort_keys=True))
    return 0


def run_traced(trace_path: str, sample: str, mode: str, rest: list[str]) -> int:
    import importlib

    import e2e_tracer

    tracer = e2e_tracer.Tracer(sample)

    def import_program() -> None:
        for module in MODE_IMPORTS[mode]:
            importlib.import_module(module)
        tracer.counters["startup.modules_loaded"] = len(sys.modules)

    def body() -> int:
        tracer.span("startup.import", import_program)
        restored = e2e_tracer.install(tracer)
        try:
            return run(mode, rest)
        finally:
            e2e_tracer.uninstall(restored)

    try:
        return tracer.span(e2e_tracer.ROOT_SPAN, body)
    finally:
        tracer.finish_counters()
        with open(trace_path, "w") as handle:
            json.dump(tracer.to_json(), handle)


def main(argv: list[str]) -> int:
    if len(argv) >= 4 and argv[0] == "--trace" and argv[2] == "--sample":
        return run_traced(argv[1], argv[3], argv[4], argv[5:])
    if len(argv) < 2 or argv[0] not in ("cli", *DRIVERS):
        print(__doc__, file=sys.stderr)
        return 2
    return run(argv[0], argv[1:])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
