"""Shared fixtures: the Figure 1 verification problem (Tables 2 and 3),
a broken process pool for the serial-fallback tests, a helper re-verifying
a single-property workspace, the §6.2 no-transit
problem on E1/R1/R2/E2-shaped networks (full meshes, random networks)
that half the suite verifies, :func:`run_batch` for a bare check list,
:func:`saved_state` for a saved cache's pickled state, and :data:`HARD`,
an invariant conjunct that makes a check spend a conflict."""

from __future__ import annotations

import hashlib
import pickle
from pathlib import Path

import pytest

from repro.bgp.topology import Edge
from repro.core.checks import IMPORT_KINDS, generate_safety_checks
from repro.core.exec import ExecutionContext, Scheduler
from repro.core.liveness import LivenessProblem, interference_properties
from repro.core.properties import InvariantMap, LivenessProperty, SafetyProperty
from repro.core.report import GroupOutcomes
from repro.core.safety import build_universe, invariant_predicates
from repro.lang.ghost import GhostAttribute
from repro.lang.transfer import transfer_policy
from repro.lang.predicates import GhostIs, HasCommunity, Implies, Not, PrefixIn
from repro.bgp.prefix import PrefixRange
from repro.workloads import fullmesh
from repro.workloads.wan_properties import ip_reuse_safety_problem
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


def isp1_ghost(config) -> GhostAttribute:
    """Table 2's ``FromISP1`` ghost on a Figure-1-shaped network."""
    return GhostAttribute.source_tracker("FromISP1", config.topology, [Edge("ISP1", "R1")])


@pytest.fixture
def from_isp1(fig1_config):
    return isp1_ghost(fig1_config)


def reverify(workspace, edited):
    """``apply(edited)`` then ``reverify()`` on a single-property
    workspace: the run's report."""
    workspace.apply(edited)
    (entry,) = workspace.reverify()
    return entry.report


def owner_check_count(tracker, owner) -> int:
    """How many checks the tracker's owner index holds for ``owner``,
    across every section of the proof."""
    return sum(
        group.num_checks for key, group in tracker._groups.items() if key[-1] == owner
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
    predicates = [prop.predicate, *invariant_predicates(invariants)]
    universe = build_universe(config, predicates, (ghost,))
    checks = generate_safety_checks(config, invariants, prop.location, prop.predicate, (ghost,))
    return universe, checks


def class_key(config, kind, edge, assumption, goal, ghosts) -> tuple:
    """The class key of a filter check of ``kind`` on ``edge`` alone, read
    off the edge by :func:`repro.lang.transfer.transfer_policy`."""
    direction = "import" if kind in IMPORT_KINDS else "export"
    return (kind, assumption, goal, transfer_policy(config, edge, ghosts, direction))


def run_batch(checks, config, universe, ghosts, context=None, degradation=None):
    """A bare check list run as one batch; one outcome per member edge, in
    input order (:meth:`GroupOutcomes.outcomes`)."""
    batch = Scheduler(context or ExecutionContext()).run(
        {("batch",): checks}, config, universe, ghosts, degradation
    )
    return GroupOutcomes.of(checks, batch[("batch",)]).outcomes()


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


def saved_state(path) -> dict:
    """The pickled state of a saved workspace cache, read past the format
    header line and the payload's SHA-256."""
    payload = Path(path).read_bytes().partition(b"\n")[2][hashlib.sha256().digest_size:]
    return pickle.loads(payload)


def _prefixes(text: str) -> PrefixIn:
    return PrefixIn((PrefixRange.parse(text),))


#: Valid, but refuting its negation takes a case split on the first two
#: prefix bits — a conflict, on a fresh solver too — where every stock
#: check of the test networks is decided by propagation alone: under
#: ``conflict_budget=0`` a check that has to *prove* it comes back
#: UNKNOWN/``conflicts`` and nothing else does.
HARD = Implies(
    _prefixes("0.0.0.0/0 le 24"),
    _prefixes("0.0.0.0/2 ge 2 le 24")
    | _prefixes("64.0.0.0/2 ge 2 le 24")
    | _prefixes("128.0.0.0/1 ge 1 le 24")
    | _prefixes("0.0.0.0/0 le 1"),
)


def harden(config, problem, hard: Edge):
    """``problem`` with :data:`HARD` conjoined to the invariant at ``hard``
    (a liveness problem's first sub-proof's), so exactly that edge's export
    check has to prove it."""
    if problem.kind == "safety":
        problem.invariants.set_edge(*hard, problem.invariants.default & HARD)
        return problem
    router, sub = next(iter(interference_properties(problem.prop).items()))
    sub_invariants = InvariantMap(config.topology, default=sub.predicate)
    sub_invariants.set_edge(*hard, sub.predicate & HARD)
    return LivenessProblem(problem.prop, {router: sub_invariants})


#: W0-0's and W1-0's internal exports on ``build_wan(2, 3)``.
STARVED_EDGES = tuple(
    Edge(src, dst)
    for src, dsts in (("W0-0", ("W0-1", "W0-2", "W1-0")), ("W1-0", ("W0-0", "W1-1", "W1-2")))
    for dst in dsts
)


def starved_ip_reuse_problem(wan):
    """Region 0's ip-reuse safety problem on ``build_wan(2, 3)`` with
    :data:`HARD` on the invariant of each of :data:`STARVED_EDGES`: six
    export checks (three owned by W0-0) that ``conflict_budget=0`` leaves
    UNKNOWN/``conflicts`` on every path."""
    problem = ip_reuse_safety_problem(wan, 0)
    for edge in STARVED_EDGES:
        problem.invariants.set_edge(*edge, problem.invariants.get(edge) & HARD)
    return problem
