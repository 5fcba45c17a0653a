#!/usr/bin/env python3
"""Incremental re-verification after a config change (§2, §7).

Every local check reads a single router's policy, so editing one router
invalidates only the handful of checks that touch it.  This example
verifies the Figure 1 network in a :class:`repro.core.Workspace`, edits
R3, re-verifies (``apply``/``reverify``), and reports how many checks
were reused — then shows that a *breaking* edit is still caught, and that
the outcome cache survives on disk (``save``/``load``), which is what
``lightyear reverify --cache DIR`` uses to skip the base run in a later
process.

Run: ``python examples/incremental_reverification.py``
"""

import tempfile
from pathlib import Path

from repro.bgp.policy import DeleteCommunity, RouteMap, RouteMapClause
from repro.bgp.topology import Edge
from repro.core import SafetyProperty, Workspace
from repro.core.properties import InvariantMap
from repro.lang import GhostAttribute
from repro.lang.predicates import GhostIs, HasCommunity, Implies, Not, PrefixIn
from repro.workloads.figure1 import TRANSIT_COMMUNITY, build_figure1


def edited_figure1():
    """Figure 1 with a benign edit: R3 also rejects a martian prefix."""
    from repro.bgp.policy import Disposition
    from repro.bgp.prefix import PrefixRange

    edited = build_figure1()
    old = edited.routers["R3"].neighbors["Customer"].import_map
    edited.routers["R3"].neighbors["Customer"].import_map = RouteMap(
        "CUST-IN",
        (
            RouteMapClause(
                1,
                Disposition.DENY,
                matches=(PrefixIn((PrefixRange.parse("192.168.0.0/16 le 32"),)),),
            ),
        )
        + old.clauses,
    )
    return edited


def main() -> None:
    config = build_figure1()
    from_isp1 = GhostAttribute.source_tracker(
        "FromISP1", config.topology, [Edge("ISP1", "R1")]
    )
    prop = SafetyProperty(
        location=Edge("R2", "ISP2"),
        predicate=Not(GhostIs("FromISP1")),
        name="no-transit",
    )
    invariants = InvariantMap(
        config.topology,
        default=Implies(GhostIs("FromISP1"), HasCommunity(TRANSIT_COMMUNITY)),
    )
    invariants.set_edge("R2", "ISP2", Not(GhostIs("FromISP1")))

    workspace = Workspace(config, ghosts=(from_isp1,))
    report = workspace.verify(prop, invariants)
    print(f"initial run:    {report.rerun_checks} checks run, passed={report.passed}")

    # Benign edit: only R3's owner group is re-run.
    workspace.apply(edited_figure1())
    (entry,) = workspace.reverify()
    report = entry.report
    print(
        f"benign edit:    {report.rerun_checks} checks re-run, "
        f"{report.reused_checks} reused ({report.reused_checks / report.num_checks:.0%}), "
        f"passed={report.passed}"
    )

    # Breaking edit: R2 strips the tracking community on iBGP import.
    broken = build_figure1()
    broken.routers["R2"].neighbors["R1"].import_map = RouteMap(
        "OOPS", (RouteMapClause(10, actions=(DeleteCommunity(TRANSIT_COMMUNITY),)),)
    )
    workspace.apply(broken)
    (entry,) = workspace.reverify()
    report = entry.report
    print(
        f"breaking edit:  {report.rerun_checks} checks re-run, "
        f"{report.reused_checks} reused, passed={report.passed}"
    )
    for failure in report.failures:
        print("  " + failure.explain().splitlines()[0])

    # Revert.
    workspace.apply(build_figure1())
    (entry,) = workspace.reverify()
    print(f"revert:         {entry.report.rerun_checks} checks re-run, passed={entry.report.passed}")

    # The outcome cache survives on disk: a fresh workspace (think: a new
    # process — this is exactly `lightyear reverify --cache`) loads it,
    # skips the base run, and consults only the edited owner's checks.
    with tempfile.TemporaryDirectory() as tmp:
        cache = Path(tmp) / "workspace.lyc"
        workspace.save(cache)
        loaded = Workspace.load(cache, build_figure1(), (from_isp1,))
        loaded.apply(edited_figure1())
        (entry,) = loaded.reverify()
        report = entry.report
        print(
            f"cache reload:   {report.rerun_checks} checks consulted "
            f"after load+edit (of {report.num_checks}), passed={report.passed}"
        )
        assert report.rerun_checks == 6


if __name__ == "__main__":
    main()
