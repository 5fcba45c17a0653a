"""Shared fixtures: the Figure 1 verification problem (Tables 2 and 3),
a broken process pool for the serial-fallback tests, and helpers for
reading a single-property workspace's cache accounting, and the §6.2
no-transit problem on E1/R1/R2/E2-shaped networks (full meshes, random
networks) that half the suite verifies."""

from __future__ import annotations

import pytest

from repro.bgp.topology import Edge
from repro.core.checks import generate_safety_checks
from repro.core.properties import InvariantMap, LivenessProperty, SafetyProperty
from repro.core.safety import build_universe
from repro.lang.ghost import GhostAttribute
from repro.lang.predicates import GhostIs, HasCommunity, Implies, Not, PrefixIn
from repro.bgp.prefix import PrefixRange
from repro.workloads import fullmesh
from repro.workloads.figure1 import (
    CUSTOMER_PREFIX,
    TRANSIT_COMMUNITY,
    build_figure1,
)


@pytest.fixture
def fig1_config():
    return build_figure1()


@pytest.fixture
def broken_process_pool(monkeypatch):
    """Every ``ProcessPoolExecutor`` construction fails, as in a sandbox
    without semaphore support: ``parallel`` > 1 must degrade to serial."""
    import concurrent.futures

    def _unavailable(*args, **kwargs):
        raise OSError("process pools unavailable (injected by the test)")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _unavailable)


@pytest.fixture
def from_isp1(fig1_config):
    return GhostAttribute.source_tracker(
        "FromISP1", fig1_config.topology, [Edge("ISP1", "R1")]
    )


def last_result(workspace):
    """The ``IncrementalResult`` of a single-property workspace's last run."""
    (entry,) = workspace.entries
    return entry.last_result


def reverify(workspace, edited):
    """``apply(edited)`` then ``reverify()`` on a single-property workspace."""
    workspace.apply(edited)
    (entry,) = workspace.reverify()
    return entry.last_result


def owner_check_count(tracker, owner) -> int:
    """How many checks the tracker's owner index holds for ``owner``,
    across every section of the proof."""
    return sum(
        len(group.stats) for key, group in tracker._groups.items() if key[-1] == owner
    )


def mesh_no_transit(config):
    """(ghost, property, invariants): no E1 route is sent on R2->E2."""
    ghost = GhostAttribute.source_tracker("FromE1", config.topology, [Edge("E1", "R1")])
    prop = SafetyProperty(
        location=Edge("R2", "E2"), predicate=Not(GhostIs("FromE1")), name="no-transit"
    )
    invariants = InvariantMap(
        config.topology,
        default=Implies(GhostIs("FromE1"), HasCommunity(fullmesh.TRANSIT_COMMUNITY)),
    )
    invariants.set_edge("R2", "E2", Not(GhostIs("FromE1")))
    return ghost, prop, invariants


def fullmesh_problem(n: int):
    """(config, ghost, property, invariants) on the N-router full mesh."""
    config = fullmesh.build_full_mesh(n)
    return (config, *mesh_no_transit(config))


def safety_pieces(config, ghost, prop, invariants):
    """(universe, checks) of a safety problem, for tests below ``verify_safety``."""
    universe = build_universe(config, invariants, [prop.predicate], (ghost,))
    checks = generate_safety_checks(config, invariants, prop.location, prop.predicate)
    return universe, checks


def no_transit_property() -> SafetyProperty:
    """Table 2 end-to-end property: no ISP1 routes sent to ISP2."""
    return SafetyProperty(
        location=Edge("R2", "ISP2"),
        predicate=Not(GhostIs("FromISP1")),
        name="no-transit",
    )


def no_transit_invariants(config) -> InvariantMap:
    """Table 2 network invariants (the three-row structure)."""
    inv = InvariantMap(
        config.topology,
        default=Implies(GhostIs("FromISP1"), HasCommunity(TRANSIT_COMMUNITY)),
    )
    inv.set_edge("R2", "ISP2", Not(GhostIs("FromISP1")))
    return inv


def customer_prefixes() -> PrefixIn:
    return PrefixIn((PrefixRange(CUSTOMER_PREFIX, 8, 24),))


def customer_liveness_property() -> LivenessProperty:
    """Table 3: customer routes eventually reach ISP2."""
    has_cust = customer_prefixes()
    good = has_cust & Not(HasCommunity(TRANSIT_COMMUNITY))
    return LivenessProperty(
        location=Edge("R2", "ISP2"),
        predicate=has_cust,
        path=(
            Edge("Customer", "R3"),
            "R3",
            Edge("R3", "R2"),
            "R2",
            Edge("R2", "ISP2"),
        ),
        constraints=(has_cust, good, good, good, has_cust),
        name="customer-reaches-isp2",
    )
