"""End-to-end verification of the §6.1 use cases on the synthetic WAN."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.core.exec import ExecutionContext
from repro.core.liveness import verify_liveness
from repro.core.safety import verify_safety_family
from repro.core.workspace import Workspace
from repro.workloads.wan import build_wan, region_community
from repro.workloads.wan_properties import (
    all_peering_problems,
    combined_peering_problem,
    ip_reuse_liveness_problem,
    ip_reuse_safety_problem,
    peering_problem,
    peering_quality_predicates,
    verify_ip_reuse_liveness_problems,
    verify_ip_reuse_safety_problems,
    verify_peering_problems,
)

from tests import oracle


@pytest.fixture(scope="module")
def wan():
    return build_wan(regions=3, routers_per_region=3, peers_per_edge=1)


def _verify_peering(wan, problem):
    return verify_safety_family(
        wan.config, problem.properties, problem.invariants, ghosts=(problem.ghost,)
    )


def test_combined_property_also_verifies(wan):
    report = _verify_peering(wan, combined_peering_problem(wan))
    assert report.passed


def test_buggy_edge_router_caught_and_localised():
    wan = build_wan(regions=2, routers_per_region=2, buggy_edge_router="W0-0")
    problem = peering_problem(
        wan, "no-bogons", peering_quality_predicates(wan)["no-bogons"]
    )
    report = _verify_peering(wan, problem)
    assert not report.passed
    blamed = {f.blamed_router for f in report.failures}
    assert blamed == {"W0-0"}
    # Witness: a bogon-prefix route from a peer that the import accepted.
    witness = report.failures[0]
    assert witness.input_route.ghost_value("FromPeer") or (
        witness.output_route and witness.output_route.ghost_value("FromPeer")
    )


def test_adhoc_aspath_filter_caught():
    wan = build_wan(regions=2, routers_per_region=2, adhoc_aspath_router="W1-0")
    problems = {p.name: p for p in all_peering_problems(wan)}
    report = _verify_peering(wan, problems["no-invalid-as-path"])
    assert not report.passed
    assert {f.blamed_router for f in report.failures} == {"W1-0"}
    # The other ten properties are unaffected by this particular bug.
    report_bogons = _verify_peering(wan, problems["no-bogons"])
    assert report_bogons.passed


def test_wrong_community_bug_caught_by_reuse_safety():
    # The router tags reused routes with a community outside the documented
    # metadata; the region's local invariant (written from the metadata)
    # fails at the data-center import — the §6.1 finding.
    wan = build_wan(regions=2, routers_per_region=2, wrong_community_region=0)
    problem = ip_reuse_safety_problem(wan, region=0)
    report = verify_safety_family(
        wan.config, problem.properties, problem.invariants, ghosts=(problem.ghost,)
    )
    assert not report.passed
    dc, attach = wan.dc_edge_into(0)
    blamed = {f.blamed_router for f in report.failures}
    assert attach in blamed
    witness = report.failures[0]
    assert region_community(0) not in (witness.output_route or witness.input_route).communities


def test_ip_reuse_liveness_broken_by_wrong_community():
    wan = build_wan(regions=2, routers_per_region=2, wrong_community_region=0)
    problem = ip_reuse_liveness_problem(wan, region=0)
    report = verify_liveness(
        wan.config,
        problem.property,
        interference_invariants=problem.interference_invariants,
        ghosts=(problem.ghost,),
    )
    assert not report.passed


def test_liveness_target_router_validation(wan):
    dc, attach = wan.dc_edge_into(0)
    with pytest.raises(ValueError):
        ip_reuse_liveness_problem(wan, region=0, target_router=attach)
    with pytest.raises(ValueError):
        ip_reuse_liveness_problem(wan, region=0, target_router="W1-0")


# -- a context handed to a sweep carries *all* its limits ----------------
#
# Regression: the sweeps used to copy ``parallel`` and ``sessions`` out of
# a ``workspace=`` and silently drop its budget and deadlines.  The counts
# are measured under ``conflict_budget=0`` on this WAN and move with the
# CNF's shape: a query propagation alone decides has no conflict to spend
# (the peering sweep's single UNKNOWN went that way with the one-pass
# encoder).  What must not move is that some sweep still hits the budget —
# all-zero is exactly what a dropped budget looks like.

SWEEPS = {
    verify_peering_problems: 0,
    verify_ip_reuse_safety_problems: 12,
    verify_ip_reuse_liveness_problems: 0,
}


def test_some_sweep_still_hits_the_conflict_budget():
    assert any(SWEEPS.values()), "re-pinned to all zeros: nothing tells a dropped budget apart"


def _unknown_reasons(results):
    return Counter(
        o.unknown_reason for __, r in results for o in r.iter_outcomes() if o.unknown
    )


@pytest.mark.parametrize("sweep", SWEEPS, ids=lambda sweep: sweep.__name__)
def test_sweep_runs_under_its_contexts_limits(sweep):
    small = build_wan(2, 3)
    for context in (
        ExecutionContext(conflict_budget=0),
        Workspace(small.config, conflict_budget=0),
    ):
        assert _unknown_reasons(sweep(small, workspace=context))["conflicts"] == SWEEPS[sweep]
    for context in (
        ExecutionContext(wall_budget_s=1e-9),
        Workspace(small.config, conflict_budget=0, wall_budget_s=1e-9),
    ):
        results = sweep(small, workspace=context)
        total = sum(r.num_checks for __, r in results)
        assert _unknown_reasons(results) == {"wall-budget": total} and total
    assert all(r.passed for __, r in sweep(small))


# -- one pool and one universe per sweep ---------------------------------
#
# A sweep hoists one covering universe over its problems and answers them
# all through one session pool, so later problems run on sessions warmed
# (and clauses learnt) by earlier ones.  Neither may show: every one of
# the 11 peering families and each region's ip-reuse safety and liveness
# problem passes, listed as the hermetic run of that problem alone is.


def test_hoisted_sweeps_on_one_pool_match_each_problem_alone(wan):
    context = ExecutionContext()
    pool = context.sessions
    results = verify_peering_problems(wan, workspace=context)
    results += verify_ip_reuse_safety_problems(wan, workspace=context)
    results += verify_ip_reuse_liveness_problems(wan, workspace=context)
    assert len(all_peering_problems(wan)) == 11
    assert len(results) == 11 + 2 * wan.regions  # every region, both kinds
    for problem, report in results:
        assert report.passed, problem.name
        alone = oracle.hermetic_report(wan.config, (problem.ghost,), problem.problem())
        assert oracle.listing(report) == oracle.listing(alone), problem.name
    # One session per owner for the whole sweep, not per problem; each
    # distinct query solved once, the repeats answered by the memo.
    assert pool.created == len(wan.config.routers) + 1
    stats = pool.stats()
    assert stats["checks_discharged"] == stats["memo_entries"] and stats["memo_hits"] > 0
    assert stats["checks_discharged"] + stats["memo_hits"] == sum(r.num_checks for __, r in results)
    assert stats["learnts_kept"] > 0


def test_later_peering_families_encode_less_than_the_first(wan):
    problems = all_peering_problems(wan)[:3]
    context = ExecutionContext()
    pool = context.sessions
    encoded = lambda: sum(v for v, __ in pool.encoding_sizes().values())
    verify_peering_problems(wan, problems=problems[:1], workspace=context)
    first = encoded()
    verify_peering_problems(wan, problems=problems[1:], workspace=context)
    assert encoded() - first < first  # the transfer terms are already there
