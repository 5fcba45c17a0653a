"""Checks are classes: a filter check whose class already passed in the
batch is answered without being run.

:func:`repro.core.checks.check_class` keys a filter check by
``(kind, assumption, goal, policy)``, where ``policy`` is
:func:`repro.lang.transfer.transfer_policy` of its edge; every check of
one class asks the same query, so :func:`repro.core.exec.pool.run_in_sessions`
runs the first and answers each later member of a *passed* class as a
memo hit.  Pinned here:

* completeness: two checks one transfer input apart are in different
  classes, and checks apart only in edge names or owner share one;
* the probe: a batch calls ``LocalCheck.run`` once per class (plus every
  originate and implication check) and decides exactly as the hermetic
  reference does, each member counted as a memo hit;
* every member still meets the run's wall budget, the fault hook and its
  own deadline, as the per-edge loop did.

That every execution path decides every corpus case as the per-edge
hermetic reference does, planted faults included, is the equivalence
oracle's job (``tests/integration/test_oracle.py``).
"""

from __future__ import annotations

import dataclasses
import time

import pytest

from repro.bgp.policy import AddCommunity, RouteMap, RouteMapClause
from repro.bgp.route import Community
from repro.bgp.topology import Edge
from repro.core.checks import CheckKind, LocalCheck, check_class, check_owner
from repro.core.exec import ExecutionContext
from repro.core.exec.pool import run_in_sessions
from repro.lang.ghost import GhostAttribute
from repro.lang.predicates import TruePred
from repro.lang.transfer import transfer_policy
from repro.smt.solver import SessionPool
from repro.testing import faults
from repro.testing.faults import FaultInjected, FaultPlan

from tests import oracle
from tests.core.conftest import fullmesh_problem, run_batch, safety_pieces

IMPORT, EXPORT = CheckKind.IMPORT, CheckKind.EXPORT
TAG = RouteMap("TAG", (RouteMapClause(10, actions=(AddCommunity(Community(7, 7)),)),))


@pytest.fixture(autouse=True)
def _clean_faults():
    faults.reset()
    yield
    faults.reset()


def _mesh(n: int = 4):
    """(config, ghosts, universe, checks, {(kind, edge): check}) of the
    no-transit problem on the n-router full mesh."""
    config, ghost, prop, invariants = fullmesh_problem(n)
    universe, checks = safety_pieces(config, ghost, prop, invariants)
    return config, (ghost,), universe, checks, {(c.kind, c.edge): c for c in checks}


def test_checks_one_transfer_input_apart_are_in_different_classes():
    config, ghosts, __, __, by = _mesh()
    internal = by[IMPORT, Edge("R3", "R2")]
    key = check_class(internal, config, ghosts)

    retagged, *__ = fullmesh_problem(4)
    retagged.routers["R2"].neighbors["R3"].import_map = TAG
    renumbered, *__ = fullmesh_problem(4)
    renumbered.routers["R1"].asn += 1
    external_in = by[IMPORT, Edge("E1", "R1")]
    elsewhere = GhostAttribute.source_tracker(
        "FromE1", config.topology, [Edge("E2", "R2")]
    )
    external_out = by[EXPORT, Edge("R1", "E1")]
    internal_out = dataclasses.replace(
        by[EXPORT, Edge("R3", "R2")], assumption=internal.assumption, goal=internal.goal
    )
    pairs = {
        "route-map content": (key, check_class(internal, retagged, ghosts)),
        "eBGP prepend ASN": (
            check_class(external_out, config, ghosts),
            check_class(external_out, renumbered, ghosts),
        ),
        "ghost update on the edge": (
            check_class(external_in, config, ghosts),
            check_class(external_in, config, (elsewhere,)),
        ),
        "assumption": (
            key,
            check_class(dataclasses.replace(internal, assumption=TruePred()), config, ghosts),
        ),
        "goal": (
            key,
            check_class(dataclasses.replace(internal, goal=TruePred()), config, ghosts),
        ),
        "kind": (
            key,
            check_class(
                dataclasses.replace(internal, kind=CheckKind.PROPAGATE_IMPORT), config, ghosts
            ),
        ),
        "import vs export": (key, check_class(internal_out, config, ghosts)),
    }
    for name, (one, other) in pairs.items():
        assert one is not None and other is not None, name
        assert one != other, name
    # Each pair differs in its policy alone where the input is a policy
    # input, and the direction is part of the policy, not just of the kind.
    for name in ("route-map content", "eBGP prepend ASN", "ghost update on the edge"):
        one, other = pairs[name]
        assert one[:3] == other[:3] and one[3] != other[3], name
    edge = Edge("R3", "R2")
    assert transfer_policy(config, edge, ghosts, "import") != transfer_policy(
        config, edge, ghosts, "export"
    )


def test_checks_apart_only_in_edge_names_or_owner_share_a_class():
    config, ghosts, __, checks, by = _mesh()
    imports = [by[IMPORT, Edge(s, d)] for s, d in (("R3", "R2"), ("R4", "R2"), ("R2", "R3"))]
    exports = [by[EXPORT, Edge(s, d)] for s, d in (("R3", "R4"), ("R4", "R3"), ("R3", "R1"))]
    for members in (imports, exports):
        assert len({check_owner(c) for c in members}) > 1
        assert len({check_class(c, config, ghosts) for c in members}) == 1
    # The implication check has no class (nor would an originate check).
    kinds = {c.kind for c in checks if check_class(c, config, ghosts) is None}
    assert kinds == {CheckKind.IMPLICATION}


def test_a_batch_runs_one_check_per_class_and_decides_as_hermetic(monkeypatch):
    config, ghosts, universe, checks, __ = _mesh(5)
    classes = [check_class(c, config, ghosts) for c in checks]
    ran: list[LocalCheck] = []
    run = LocalCheck.run

    def spy(self, *args, **kwargs):
        ran.append(self)
        return run(self, *args, **kwargs)

    monkeypatch.setattr(LocalCheck, "run", spy)
    context = ExecutionContext()
    outcomes = run_batch(checks, config, universe, ghosts, context=context)
    distinct = {key for key in classes if key is not None}
    assert len(ran) == len(distinct) + classes.count(None)
    assert len(ran) < len(checks) // 4
    assert [oracle.outcome_key(o) for o in outcomes] == [
        oracle.outcome_key(run(c, config, universe, ghosts)) for c in checks
    ]
    members = len(checks) - len(ran)
    assert context.sessions.stats()["memo_hits"] >= members
    assert all(o.passed for o in outcomes)


def _member(checks, by, config, ghosts) -> int:
    """The index of R3's import from R1: a member of the class R2's import
    from R1 opens, whose query does not fold to a constant — so an expired
    deadline leaves it undecided instead of UNSAT."""
    first, member = by[IMPORT, Edge("R1", "R2")], by[IMPORT, Edge("R1", "R3")]
    assert check_class(first, config, ghosts) == check_class(member, config, ghosts)
    assert checks.index(first) < checks.index(member)
    return checks.index(member)


def test_a_wall_budget_expiring_inside_a_passed_class_skips_the_rest():
    # The run deadline passes while a member's fault hook sleeps: that
    # member comes back UNKNOWN/timeout (its own deadline expired, so it
    # bypasses the memo) and every later check UNKNOWN/wall-budget, as in
    # the per-edge loop; nothing after the expiry is answered by class.
    config, ghosts, universe, checks, by = _mesh()
    victim = _member(checks, by, config, ghosts)
    faults.install(FaultPlan(delay_check_s=0.6, delay_check_match=str(checks[victim])))
    outcomes = run_in_sessions(
        checks, config, universe, ghosts, None, None, time.monotonic() + 0.5, SessionPool()
    )
    assert all(o.passed and not o.unknown for o in outcomes[:victim])
    assert (outcomes[victim].unknown, outcomes[victim].unknown_reason) == (True, "timeout")
    assert [o.unknown_reason for o in outcomes[victim + 1 :]] == ["wall-budget"] * (
        len(checks) - victim - 1
    )


def test_every_member_meets_the_fault_hook_and_its_own_deadline():
    config, ghosts, universe, checks, by = _mesh()
    victim = _member(checks, by, config, ghosts)
    # A hang on a member runs past its deadline: UNKNOWN/timeout, never
    # the class's PASSED.
    faults.install(FaultPlan(hang_check_match=str(checks[victim])))
    context = ExecutionContext(deadline_s=0.2)
    outcomes = run_batch(checks, config, universe, ghosts, context=context)
    assert [i for i, o in enumerate(outcomes) if not o.passed] == [victim]
    assert outcomes[victim].unknown_reason == "timeout"
    # A raise on a member propagates.
    faults.install(FaultPlan(raise_in_check_match=str(checks[victim])))
    with pytest.raises(FaultInjected):
        run_batch(checks, config, universe, ghosts)
