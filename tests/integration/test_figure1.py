"""The complete §2 walkthrough: Tables 2 and 3 on the Figure 1 network.

These tests mirror the paper's tables row by row: the user-provided rows
(property, invariants, path constraints) are built exactly as printed, and
the generated rows are exercised through a :class:`Workspace`.
"""

from __future__ import annotations

from repro.bgp.topology import Edge
from repro.core.checks import CheckKind, generate_safety_checks
from repro.core.liveness import generate_propagation_checks, interference_properties
from repro.core.workspace import Workspace
from repro.workloads.figure1 import build_figure1

from tests.core.conftest import (
    customer_liveness_property,
    isp1_ghost,
    no_transit_invariants,
    no_transit_property,
)


def _workspace():
    config = build_figure1()
    return Workspace(config, ghosts=(isp1_ghost(config),)), config


def test_table2_complete_walkthrough():
    workspace, config = _workspace()
    report = workspace.verify(no_transit_property(), no_transit_invariants(config))
    assert report.passed

    # Table 2's generated-check rows: the ISP1->R1 import establishes the
    # key invariant; the R2->ISP2 export discharges the property edge; all
    # other filters preserve the key invariant.
    checks = {
        (c.kind, c.edge): c
        for c in generate_safety_checks(
            config,
            no_transit_invariants(config),
            no_transit_property().location,
            no_transit_property().predicate,
        )
        if c.edge is not None
    }
    assert (CheckKind.IMPORT, Edge("ISP1", "R1")) in checks
    assert (CheckKind.EXPORT, Edge("R2", "ISP2")) in checks
    # "Other edges" rows: every remaining internal location is covered.
    internal_edges = set(config.topology.internal_edges())
    covered = {e for (kind, e) in checks if kind is CheckKind.IMPORT}
    assert internal_edges <= covered


def test_table3_complete_walkthrough():
    workspace, config = _workspace()
    prop = customer_liveness_property()
    report = workspace.verify(prop)
    assert report.passed

    # Table 3's propagation rows.
    checks = generate_propagation_checks(config, prop)
    edges = [c.edge for c in checks]
    assert edges == [
        Edge("Customer", "R3"),
        Edge("R3", "R2"),
        Edge("R3", "R2"),
        Edge("R2", "ISP2"),
    ]
    # Table 3's no-interference rows: R3 and R2.
    assert set(interference_properties(prop)) == {"R3", "R2"}


def test_both_bugs_from_section2_are_found():
    # Bug 1: R1 forgets to tag some ISP1 routes -> safety fails at R1.
    config = build_figure1(buggy_r1_tagging=True)
    report = Workspace(config, ghosts=(isp1_ghost(config),)).verify(
        no_transit_property(), no_transit_invariants(config)
    )
    assert not report.passed
    assert {f.blamed_router for f in report.failures} == {"R1"}

    # Bug 2: R3 forgets to strip communities -> liveness fails at R3.
    config2 = build_figure1(buggy_r3_strip=True)
    report2 = Workspace(config2).verify(customer_liveness_property())
    assert not report2.passed
    blamed = {f.blamed_router for f in report2.failures}
    assert "R3" in blamed
