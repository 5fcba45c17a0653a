"""Shared builders for the benchmark suite.

Every benchmark regenerates one paper artifact (a figure series or a table
row).  Absolute numbers differ from the paper — the substrate is a pure
Python SAT solver, not Z3 on the authors' hardware — but the comparisons
(who wins, growth curves, where timeouts start) reproduce the published
shape; each test asserts the comparison it reproduces.
"""

from __future__ import annotations

import pytest

from repro.bgp.topology import Edge
from repro.core.properties import InvariantMap, SafetyProperty
from repro.lang.ghost import GhostAttribute
from repro.lang.predicates import GhostIs, HasCommunity, Implies, Not
from repro.workloads.fullmesh import TRANSIT_COMMUNITY, build_full_mesh


def fullmesh_problem(n: int):
    """The §6.2 no-transit problem on an N-router full mesh."""
    config = build_full_mesh(n)
    ghost = GhostAttribute.source_tracker(
        "FromE1", config.topology, [Edge("E1", "R1")]
    )
    prop = SafetyProperty(
        location=Edge("R2", "E2"), predicate=Not(GhostIs("FromE1")), name="no-transit"
    )
    invariants = InvariantMap(
        config.topology,
        default=Implies(GhostIs("FromE1"), HasCommunity(TRANSIT_COMMUNITY)),
    )
    invariants.set_edge("R2", "E2", Not(GhostIs("FromE1")))
    return config, ghost, prop, invariants
