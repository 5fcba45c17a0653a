"""Shared fixtures: the Figure 1 verification problem (Tables 2 and 3),
a broken process pool for the serial-fallback tests, and helpers for
reading a single-property workspace's cache accounting."""

from __future__ import annotations

import pytest

from repro.bgp.topology import Edge
from repro.core.properties import InvariantMap, LivenessProperty, SafetyProperty
from repro.lang.ghost import GhostAttribute
from repro.lang.predicates import GhostIs, HasCommunity, Implies, Not, PrefixIn
from repro.bgp.prefix import PrefixRange
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
    return sum(len(groups.get(owner, [])) for groups in tracker._checks.values())


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
