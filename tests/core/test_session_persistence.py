"""Tests for persistent CheckSessions across reverify calls and WAN sweeps.

The PR-2 claim is that re-verification cost tracks the size of the *change*:
a persistent :class:`SessionPool` keyed by owner router means a reverify
touching router R adds encoding only to R's session (everyone else's clause
database is bit-for-bit untouched), and a Table-4 sweep reuses one session
per owner across all property families instead of rebuilding encodings per
family.  The solver-level encoding counters are the witnesses.
"""

from __future__ import annotations

from repro.bgp.policy import (
    Disposition,
    MatchPrefix,
    RouteMap,
    RouteMapClause,
)
from repro.bgp.prefix import PrefixRange
from repro.core.exec import ExecutionContext
from repro.core.safety import verify_safety_family
from repro.core.workspace import Workspace
from repro.smt.solver import SessionPool
from repro.workloads.figure1 import build_figure1
from repro.workloads.wan import build_wan
from repro.workloads.wan_properties import (
    all_peering_problems,
    verify_ip_reuse_safety_problems,
    verify_peering_problems,
)

from tests.core.conftest import no_transit_invariants, no_transit_property, reverify


def _verified(config, from_isp1):
    """A workspace that has run the no-transit problem once, in full."""
    ws = Workspace(config, ghosts=(from_isp1,))
    ws.verify(no_transit_property(), no_transit_invariants(config))
    return ws


def _edit_r3(config):
    """A benign import-map tweak on R3 (extra bogon deny)."""
    old_map = config.routers["R3"].neighbors["Customer"].import_map
    config.routers["R3"].neighbors["Customer"].import_map = RouteMap(
        "CUST-IN",
        (
            RouteMapClause(
                1,
                Disposition.DENY,
                matches=(MatchPrefix((PrefixRange.parse("192.168.0.0/16 le 32"),)),),
            ),
        )
        + old_map.clauses,
    )
    return config


def test_verify_builds_one_session_per_owner(fig1_config, from_isp1):
    ws = _verified(fig1_config, from_isp1)
    # Three routers own filter checks; the implication check owns None.
    assert set(ws.sessions.keys()) == {"R1", "R2", "R3", None}
    assert ws.sessions.created == 4


def test_noop_reverify_touches_no_sessions(fig1_config, from_isp1):
    ws = _verified(fig1_config, from_isp1)
    before = ws.sessions.encoding_sizes()
    discharged_before = ws.sessions.checks_discharged
    result = reverify(ws, build_figure1())
    assert result.rerun_checks == 0
    assert ws.sessions.encoding_sizes() == before
    assert ws.sessions.checks_discharged == discharged_before


def test_reverify_reencodes_only_the_edited_owner(fig1_config, from_isp1):
    ws = _verified(fig1_config, from_isp1)
    before = ws.sessions.encoding_sizes()

    result = reverify(ws, _edit_r3(build_figure1()))
    assert result.report.passed
    assert result.rerun_checks == 6  # R3's owner group

    after = ws.sessions.encoding_sizes()
    assert ws.sessions.created == 4  # sessions persisted, none rebuilt
    grew = {key for key in after if after[key] != before[key]}
    assert grew == {"R3"}, f"expected only R3's encoding to grow, got {grew}"
    # And it genuinely grew — the new deny clause needs new terms.
    assert after["R3"][0] > before["R3"][0]


def test_second_reverify_of_same_edit_adds_no_encoding(fig1_config, from_isp1):
    """Flip-flopping between two configs re-solves but re-encodes nothing:
    both policy variants are already in R3's persistent clause database."""
    ws = _verified(fig1_config, from_isp1)
    reverify(ws, _edit_r3(build_figure1()))
    sizes_after_edit = ws.sessions.encoding_sizes()

    reverify(ws, build_figure1())  # back to the original policy
    reverify(ws, _edit_r3(build_figure1()))  # and to the edit again
    assert ws.sessions.encoding_sizes() == sizes_after_edit


def test_wan_sweep_shares_one_session_per_owner_across_families():
    wan = build_wan(regions=3, routers_per_region=3, peers_per_edge=1)
    problems = all_peering_problems(wan)[:4]
    pool = SessionPool()
    context = ExecutionContext(sessions=pool)
    results = verify_peering_problems(wan, problems=problems, workspace=context)
    assert all(report.passed for __, report in results)

    owners = set(wan.config.topology.routers) | {None}
    assert set(pool.keys()) == owners
    # One session per owner for the whole sweep — not per family.
    assert pool.created == len(owners)
    # Every family answered its checks through the shared pool: each one
    # solved by its owner's session or recalled from the pool's query memo.
    stats = pool.stats()
    assert stats["checks_discharged"] + stats["memo_hits"] == sum(
        r.num_checks for __, r in results
    )
    assert stats["checks_discharged"] == stats["memo_entries"]


def test_wan_families_after_first_reuse_encodings():
    wan = build_wan(regions=3, routers_per_region=3, peers_per_edge=1)
    problems = all_peering_problems(wan)[:3]
    pool = SessionPool()
    context = ExecutionContext(sessions=pool)

    verify_peering_problems(wan, problems=problems[:1], workspace=context)
    first_total = sum(v for v, __ in pool.encoding_sizes().values())
    verify_peering_problems(wan, problems=problems[1:], workspace=context)
    later_total = sum(v for v, __ in pool.encoding_sizes().values())

    # Two further families together must cost (much) less marginal encoding
    # than the first did: the transfer terms are already in the databases.
    assert later_total - first_total < first_total


def test_hoisted_peering_sweep_matches_per_family_runs():
    wan = build_wan(regions=3, routers_per_region=3, peers_per_edge=1)
    problems = all_peering_problems(wan)
    hoisted = verify_peering_problems(wan, problems=problems)
    for problem, report in zip(problems, (r for __, r in hoisted)):
        solo = verify_safety_family(
            wan.config, problem.properties, problem.invariants, ghosts=(problem.ghost,)
        )
        assert report.num_checks == solo.num_checks
        assert report.passed == solo.passed
        assert [o.passed for o in report.outcomes] == [o.passed for o in solo.outcomes]


def test_hoisted_ip_reuse_sweep_matches_per_region_runs():
    wan = build_wan(regions=3, routers_per_region=3, peers_per_edge=1)
    pool = SessionPool()
    context = ExecutionContext(sessions=pool)
    results = verify_ip_reuse_safety_problems(wan, workspace=context)
    assert len(results) == wan.regions
    assert all(report.passed for __, report in results)
    # Regions share the pool too: still one session per owner overall.
    assert pool.created == len(set(wan.config.topology.routers)) + 1
