"""Checks are generated as classes: one check per owner router and class
key, standing for every edge of that owner that asks its query.

:func:`repro.core.checks.generate_safety_checks` keys a filter check by
``(kind, assumption, goal, policy)``, where ``policy`` is
:func:`repro.lang.transfer.transfer_policy` of its edge, and emits one
check per ``(owner, key)`` carrying its member edges; every member asks
the same query, so :func:`repro.core.exec.pool.run_in_sessions` runs a
check once and answers its members — and every later check whose key
already passed, another owner's too — as memo hits.  Pinned here:

* completeness: two edge sides one query input apart are in different
  checks, and sides apart only in edge names share one key (one check
  within an owner, the passed-key probe across owners);
* the probe: a batch calls ``LocalCheck.run`` once per class (plus every
  originate and implication check) and decides member by member exactly
  as the hermetic reference does, each member counted as a memo hit;
* a check that does not pass re-runs each member, for its own blame;
* every member still meets the run's wall budget, the fault hook and its
  own deadline, as a check of its own would.

That every execution path decides every corpus case as the per-edge
hermetic reference does, planted faults included, is the equivalence
oracle's job (``tests/integration/test_oracle.py``).
"""

from __future__ import annotations

import time

import pytest

from repro.bgp.policy import AddCommunity, RouteMap, RouteMapClause
from repro.bgp.route import Community
from repro.bgp.topology import Edge
from repro.core.checks import (
    CheckKind,
    LocalCheck,
    check_owner,
    generate_safety_checks,
)
from repro.core.exec import ExecutionContext
from repro.core.exec.pool import run_in_sessions
from repro.core.report import GroupOutcomes
from repro.core.safety import build_universe, invariant_predicates
from repro.lang.ghost import GhostAttribute
from repro.lang.predicates import TruePred
from repro.smt.solver import SessionPool
from repro.testing import faults
from repro.testing.faults import FaultInjected, FaultPlan

from tests import oracle
from tests.core.conftest import class_key, fullmesh_problem, run_batch

IMPORT, EXPORT = CheckKind.IMPORT, CheckKind.EXPORT
TAG = RouteMap("TAG", (RouteMapClause(10, actions=(AddCommunity(Community(7, 7)),)),))


@pytest.fixture(autouse=True)
def _clean_faults():
    faults.reset()
    yield
    faults.reset()


def _mesh(n: int = 4, edit=lambda config, ghosts, invariants: None):
    """(config, ghosts, universe, checks, edges) of the no-transit problem
    on the n-router full mesh, after ``edit`` changed its inputs in place;
    ``edges`` is one check per edge side, in the checks' member order,
    held to the oracle's per-edge reference (:func:`oracle.checked_members`)."""
    config, ghost, prop, invariants = fullmesh_problem(n)
    ghosts = [ghost]
    edit(config, ghosts, invariants)
    universe = build_universe(config, [prop.predicate, *invariant_predicates(invariants)], ghosts)
    checks = generate_safety_checks(
        config, invariants, prop.location, prop.predicate, tuple(ghosts)
    )
    edges = oracle.checked_members(config, invariants, checks)
    return config, tuple(ghosts), universe, checks, edges


def _check_of(checks, kind, edge) -> LocalCheck:
    """The generated check whose members hold ``kind`` on ``edge``."""
    (check,) = [c for c in checks if c.kind is kind and edge in (c.members or (c.edge,))]
    return check


def _retag(config, ghosts, invariants):
    config.routers["R2"].neighbors["R3"].import_map = TAG


def _own_as(config, ghosts, invariants):
    config.routers["R3"].asn = 65001  # R2's session to R3 is now eBGP


def _ghost_on_one_edge(config, ghosts, invariants):
    ghosts.append(GhostAttribute("Seen", import_updates={Edge("R3", "R2"): True}))


def _assume(config, ghosts, invariants):
    invariants.set_edge("R3", "R2", TruePred())


def _goal(config, ghosts, invariants):
    invariants.set_edge("R2", "R3", TruePred())


#: Each query input, the edit that sets it apart on one edge side, the two
#: sides one check holds before the edit, and the key part that differs
#: (1 assumption, 2 goal, 3 policy).
SPLITS = {
    "route-map content": (_retag, IMPORT, ("R3", "R2"), ("R4", "R2"), 3),
    "eBGP prepend ASN": (_own_as, EXPORT, ("R2", "R3"), ("R2", "R4"), 3),
    "ghost update on the edge": (_ghost_on_one_edge, IMPORT, ("R3", "R2"), ("R4", "R2"), 3),
    "assumption": (_assume, IMPORT, ("R3", "R2"), ("R4", "R2"), 1),
    "goal": (_goal, EXPORT, ("R2", "R3"), ("R2", "R4"), 2),
}


@pytest.mark.parametrize("name", SPLITS)
def test_each_query_input_splits_a_check(name):
    edit, kind, one, other, part = SPLITS[name]
    one, other = Edge(*one), Edge(*other)
    checks = _mesh()[3]
    assert _check_of(checks, kind, one) is _check_of(checks, kind, other)
    checks = _mesh(edit=edit)[3]
    first, second = _check_of(checks, kind, one), _check_of(checks, kind, other)
    assert first is not second and check_owner(first) == check_owner(second)
    assert [i for i in range(4) if first.key[i] != second.key[i]] == [part]


def test_direction_and_kind_split_a_key():
    # One edge, one assumption and goal: import, export and propagation
    # keys differ, and the direction is part of the policy, not only of
    # the kind.
    config, ghosts, __, checks, __ = _mesh()
    edge = Edge("R3", "R2")
    imported = _check_of(checks, IMPORT, edge)
    kinds = (IMPORT, EXPORT, CheckKind.PROPAGATE_IMPORT)
    keys = [class_key(config, k, edge, imported.assumption, imported.goal, ghosts) for k in kinds]
    assert keys[0] == imported.key and len(set(keys)) == 3
    assert keys[0][3] != keys[1][3] and keys[0][1:] == keys[2][1:]


def test_sides_apart_only_in_edge_names_share_a_key():
    config, ghosts, __, checks, __ = _mesh()
    # Within an owner: one check whose members are the edges.
    internal = _check_of(checks, IMPORT, Edge("R3", "R2"))
    assert internal.members == [Edge("R1", "R2"), Edge("R3", "R2"), Edge("R4", "R2")]
    assert internal.edge == internal.members[0]
    # Across owners: one key, so only the first check of it runs.
    for kind, edges in ((IMPORT, (("R3", "R2"), ("R2", "R3"))), (EXPORT, (("R3", "R4"), ("R4", "R3")))):
        apart = [_check_of(checks, kind, Edge(*e)) for e in edges]
        assert len({check_owner(c) for c in apart}) == 2
        assert apart[0].key == apart[1].key
    # The implication has no key (nor would an originate check).
    assert {c.kind for c in checks if c.key is None} == {CheckKind.IMPLICATION}
    assert sum(c.size for c in checks) == 2 * (4 * 3 + 4) + 1


def test_a_batch_runs_one_check_per_class_and_decides_as_hermetic(monkeypatch):
    config, ghosts, universe, checks, edges = _mesh(5)
    ran: list[LocalCheck] = []
    run = LocalCheck.run

    def spy(self, *args, **kwargs):
        ran.append(self)
        return run(self, *args, **kwargs)

    monkeypatch.setattr(LocalCheck, "run", spy)
    context = ExecutionContext()
    outcomes = run_batch(checks, config, universe, ghosts, context=context)
    keys = [c.key for c in checks]
    assert len(ran) == len(set(keys) - {None}) + keys.count(None)
    assert len(ran) < len(edges) // 4
    assert [oracle.outcome_key(o) for o in outcomes] == [
        oracle.outcome_key(run(c, config, universe, ghosts)) for c in edges
    ]
    assert context.sessions.stats()["memo_hits"] >= len(edges) - len(ran)
    assert all(o.passed for o in outcomes)


def test_a_failing_check_reruns_its_members_and_blames_each_planted_edge(monkeypatch):
    planted = [Edge("R3", "R2"), Edge("R4", "R2")]

    def strip(config, ghosts, invariants):
        for edge in planted:
            config.routers["R2"].neighbors[edge.src].import_map = oracle.STRIP

    config, ghosts, universe, checks, edges = _mesh(edit=strip)
    failing = _check_of(checks, IMPORT, planted[0])
    assert failing.members == planted  # R1->R2, unstripped, is another check
    ran: list[LocalCheck] = []
    run = LocalCheck.run

    def spy(self, *args, **kwargs):
        ran.append(self)
        return run(self, *args, **kwargs)

    monkeypatch.setattr(LocalCheck, "run", spy)
    outcomes = run_batch(checks, config, universe, ghosts)
    assert [c.edge for c in ran if c.kind is IMPORT and c.edge in planted] == planted
    failures = [o.failure for o in outcomes if o.failure]
    assert [f.check.edge for f in failures] == planted
    assert {f.blamed_router for f in failures} == {"R2"}
    for failure in failures:
        assert failure.check.assumption.holds(failure.input_route)
    assert [oracle.outcome_key(o) for o in outcomes] == [
        oracle.outcome_key(run(c, config, universe, ghosts)) for c in edges
    ]


def _member(checks, edges, edge=Edge("R3", "R2")):
    """(check, side, index) of R2's import from R3 (or ``edge``): the
    check holding it, its own check and its index in ``edges``.  R3->R2 is
    the second member of R2's internal import check, whose query does not
    fold to a constant — so an expired deadline leaves it undecided
    instead of UNSAT."""
    check = _check_of(checks, IMPORT, edge)
    (index,) = [i for i, c in enumerate(edges) if (c.kind, c.edge) == (IMPORT, edge)]
    return check, edges[index], index


def test_a_wall_budget_expiring_inside_a_passed_check_skips_the_rest():
    # The run deadline passes while a member's fault hook sleeps: that
    # member comes back UNKNOWN/timeout (its own deadline expired, so it
    # bypasses the memo) and every later member UNKNOWN/wall-budget, as in
    # a per-edge loop; nothing after the expiry is answered by class.
    config, ghosts, universe, checks, edges = _mesh()
    check, side, victim = _member(checks, edges)
    assert check.members.index(side.edge) == 1
    faults.install(FaultPlan(delay_check_s=0.6, delay_check_match=str(side)))
    outcomes = run_in_sessions(
        checks, config, universe, ghosts, None, None, time.monotonic() + 0.5, SessionPool()
    )
    listing = GroupOutcomes.of(checks, outcomes).outcomes()
    assert all(o.passed and not o.unknown for o in listing[:victim])
    assert (listing[victim].unknown, listing[victim].unknown_reason) == (True, "timeout")
    assert [o.unknown_reason for o in listing[victim + 1 :]] == ["wall-budget"] * (
        len(listing) - victim - 1
    )


def test_without_a_fault_plan_the_wall_budget_still_stops_inside_a_passed_check(monkeypatch):
    # No hook tells the members apart, but the run deadline does: a clock
    # that jumps past it once R2's internal import check has run leaves that
    # check's other members, and everything after, UNKNOWN/wall-budget.
    config, ghosts, universe, checks, edges = _mesh()
    check = _member(checks, edges)[0]
    first = _member(checks, edges, check.edge)[2]  # the check's first member, which runs
    now = [0.0]
    monkeypatch.setattr(time, "monotonic", lambda: now[0])
    run = LocalCheck.run

    def jump(self, *args, **kwargs):
        outcome = run(self, *args, **kwargs)
        if (self.kind, self.edge) == (IMPORT, check.edge):
            now[0] = 2.0
        return outcome

    monkeypatch.setattr(LocalCheck, "run", jump)
    outcomes = run_in_sessions(checks, config, universe, ghosts, None, None, 1.0, SessionPool())
    listing = GroupOutcomes.of(checks, outcomes).outcomes()
    assert all(o.passed for o in listing[: first + 1])
    assert [o.unknown_reason for o in listing[first + 1 :]] == ["wall-budget"] * (
        len(listing) - first - 1
    )


def test_without_a_fault_plan_an_expired_deadline_meets_every_member():
    # A zero deadline expires every member's own deadline: each bypasses the
    # memo and is decided as it is alone on the hermetic path, never counted
    # as a class's memo hit.
    config, ghosts, universe, checks, edges = _mesh()
    context = ExecutionContext(deadline_s=0.0)
    outcomes = run_batch(checks, config, universe, ghosts, context=context)
    assert [oracle.outcome_key(o) for o in outcomes] == [
        oracle.outcome_key(c.run(config, universe, ghosts, deadline_s=0.0)) for c in edges
    ]
    assert outcomes and all(o.unknown_reason == "timeout" for o in outcomes if not o.passed)
    assert context.sessions.stats()["memo_hits"] == 0


@pytest.mark.parametrize("path", ["hermetic", "pooled", "budgeted"])
def test_an_expired_deadline_is_unknown_on_every_path(path):
    # The E1->R1 import of the 4-router mesh: a fresh solver's propagation
    # decides it, so it passed on the hermetic path while an owner's
    # session said UNKNOWN.  Expired, it is not solved on any path.
    config, ghosts, universe, checks, edges = _mesh()
    (check,) = [c for c in edges if (c.kind, c.edge) == (IMPORT, Edge("E1", "R1"))]
    pool = SessionPool()
    session = None if path == "hermetic" else pool.get(check_owner(check))
    budget = 1000 if path == "budgeted" else None
    assert check.run(config, universe, ghosts, budget, session, deadline_s=60.0).passed
    outcome = check.run(config, universe, ghosts, budget, session, deadline_s=0.0)
    assert (outcome.passed, outcome.unknown, outcome.unknown_reason) == (False, True, "timeout")
    assert outcome.stats.sat.decisions == outcome.stats.sat.propagations == 0


def test_every_member_meets_the_fault_hook_and_its_own_deadline():
    config, ghosts, universe, checks, edges = _mesh()
    check, side, victim = _member(checks, edges)
    # R3's import from R1 is answered by the key R2's internal imports
    # passed: a member of another owner's check meets the hook too.
    elsewhere, other_side, __ = _member(checks, edges, Edge("R1", "R3"))
    assert elsewhere.key == check.key and checks.index(elsewhere) > checks.index(check)
    for member in (side, other_side):
        # A hang on a member runs past its deadline: UNKNOWN/timeout, never
        # the class's PASSED.
        faults.install(FaultPlan(hang_check_match=str(member)))
        outcomes = run_batch(
            checks, config, universe, ghosts, context=ExecutionContext(deadline_s=0.2)
        )
        assert [str(o.check) for o in outcomes if not o.passed] == [str(member)]
        assert [o.unknown_reason for o in outcomes if not o.passed] == ["timeout"]
        # A raise on a member propagates.
        faults.install(FaultPlan(raise_in_check_match=str(member)))
        with pytest.raises(FaultInjected):
            run_batch(checks, config, universe, ghosts)
    faults.reset()
    assert run_batch(checks, config, universe, ghosts)[victim].check == side
