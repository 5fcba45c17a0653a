"""§6.1 bug-finding: how fast injected misconfigurations are found and
localised.

The paper reports 11 peering-policy errors and one undocumented-community
bug found in production, each localised to a specific route map.  These
benchmarks inject the analogous faults into the synthetic WAN and measure
detection time; assertions confirm the blame lands on the planted router.
Each peering bug is also replayed through the simulator
(:func:`repro.core.scenario.assess_impact`) and classified as §6.1 does:
``immediate`` if the witness route violates the property in today's
network, ``latent`` if it only could under other failures or
announcements.  Both planted peering bugs here are immediate: the peer's
witness route is imported and selected at the router that lacks the filter.

Run: ``pytest benchmarks/bench_bugfinding.py --benchmark-only``
"""

from __future__ import annotations

import pytest

from repro.core.safety import verify_safety_family
from repro.core.scenario import assess_impact
from repro.workloads.wan import build_wan
from repro.workloads.wan_properties import (
    ip_reuse_safety_problem,
    peering_problem,
    peering_quality_predicates,
)


WAN_ARGS = dict(regions=4, routers_per_region=4, peers_per_edge=2)


def impact(wan, problem, report) -> set[str]:
    """The §6.1 classification of every failure, each replayed against
    the family's property at the router it blames."""
    located = {prop.location: prop for prop in problem.properties}
    return {
        assess_impact(wan.config, located[f.blamed_router], problem.ghost, f).classification
        for f in report.failures
    }


def test_find_missing_bogon_filter(benchmark):
    wan = build_wan(**WAN_ARGS, buggy_edge_router="W2-0")
    problem = peering_problem(
        wan, "no-bogons", peering_quality_predicates(wan)["no-bogons"]
    )

    def run():
        return verify_safety_family(
            wan.config, problem.properties, problem.invariants, ghosts=(problem.ghost,)
        )

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    assert not report.passed
    assert {f.blamed_router for f in report.failures} == {"W2-0"}
    assert impact(wan, problem, report) == {"immediate"}
    benchmark.extra_info["failed_checks"] = len(report.failures)
    benchmark.extra_info["blamed"] = "W2-0"
    benchmark.extra_info["impact"] = "immediate"


def test_find_adhoc_aspath_policy(benchmark):
    wan = build_wan(**WAN_ARGS, adhoc_aspath_router="W1-0")
    problem = peering_problem(
        wan,
        "no-invalid-as-path",
        peering_quality_predicates(wan)["no-invalid-as-path"],
    )

    def run():
        return verify_safety_family(
            wan.config, problem.properties, problem.invariants, ghosts=(problem.ghost,)
        )

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    assert not report.passed
    assert {f.blamed_router for f in report.failures} == {"W1-0"}
    assert impact(wan, problem, report) == {"immediate"}
    benchmark.extra_info["impact"] = "immediate"


def test_find_undocumented_community(benchmark):
    wan = build_wan(**WAN_ARGS, wrong_community_region=3)
    problem = ip_reuse_safety_problem(wan, region=3)

    def run():
        return verify_safety_family(
            wan.config, problem.properties, problem.invariants, ghosts=(problem.ghost,)
        )

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    assert not report.passed
    dc, attach = wan.dc_edge_into(3)
    assert attach in {f.blamed_router for f in report.failures}
    benchmark.extra_info["blamed"] = attach


def test_multiple_simultaneous_bugs_all_localised(benchmark):
    wan = build_wan(**WAN_ARGS, buggy_edge_router="W0-0", adhoc_aspath_router="W3-0")
    qualities = peering_quality_predicates(wan)
    combined = peering_problem(
        wan,
        "no-bogons-and-paths",
        qualities["no-bogons"] & qualities["no-invalid-as-path"],
    )

    def run():
        return verify_safety_family(
            wan.config,
            combined.properties,
            combined.invariants,
            ghosts=(combined.ghost,),
        )

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    assert not report.passed
    blamed = {f.blamed_router for f in report.failures}
    assert blamed == {"W0-0", "W3-0"}
