"""Tests for the rcc-style local-only baseline."""

from __future__ import annotations

from repro.baselines.localonly import LocalOnlyChecker
from repro.bgp.topology import Edge
from repro.core.safety import verify_safety
from repro.lang.predicates import GhostIs, HasCommunity, Implies, Not, TruePred
from repro.workloads.figure1 import TRANSIT_COMMUNITY, build_figure1

from tests import oracle
from tests.core.conftest import isp1_ghost, no_transit_invariants, no_transit_property


KEY = Implies(GhostIs("FromISP1"), HasCommunity(TRANSIT_COMMUNITY))


def _obvious_checks(config, ghost) -> LocalOnlyChecker:
    checker = LocalOnlyChecker(config, ghosts=(ghost,))
    checker.add_import_check(Edge("ISP1", "R1"), TruePred(), KEY)
    checker.add_export_check(Edge("R2", "ISP2"), KEY, Not(GhostIs("FromISP1")))
    return checker


def test_user_listed_checks_pass_on_clean_network():
    config = build_figure1()
    result = _obvious_checks(config, isp1_ghost(config)).run()
    assert result.passed
    assert len(result.outcomes) == 2


def test_user_listed_checks_catch_a_directly_checked_bug():
    config = build_figure1(buggy_r1_tagging=True)
    result = _obvious_checks(config, isp1_ghost(config)).run()
    assert not result.passed  # the bug is on a listed edge: caught


def test_local_only_misses_internal_stripping_bug():
    # §2's motivating subtlety: "no other policy strips community 100:1" is
    # the check users forget.  The local-only baseline (just the two
    # obvious checks) passes; Lightyear's generated closure fails.
    config = build_figure1()
    config.routers["R2"].neighbors["R1"].import_map = oracle.STRIP
    ghost = isp1_ghost(config)

    local = _obvious_checks(config, ghost).run()
    assert local.passed  # bug missed

    report = verify_safety(
        config, no_transit_property(), no_transit_invariants(config), ghosts=(ghost,)
    )
    assert not report.passed  # bug caught
    assert {f.blamed_router for f in report.failures} == {"R2"}
