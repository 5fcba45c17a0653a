"""Tests for Originate checks and report formatting."""

from __future__ import annotations

import pytest

from repro.bgp.prefix import Prefix
from repro.bgp.route import Community, Route
from repro.bgp.topology import Edge
from repro.core.checks import CheckKind, generate_safety_checks
from repro.core.liveness import verify_liveness
from repro.core.properties import InvariantMap, SafetyProperty
from repro.core.report import format_report
from repro.core.safety import verify_safety
from repro.lang.predicates import HasCommunity, Not, TruePred
from repro.workloads.figure1 import TRANSIT_COMMUNITY, build_figure1

from tests.core.conftest import customer_liveness_property, isp1_ghost


OWN = Community(65000, 9)


def _config_with_origination(tagged: bool):
    """R1 originates 8.8.0.0/16 toward ISP1, tagged (or not) with 65000:9."""
    config = build_figure1()
    communities = frozenset({OWN}) if tagged else frozenset()
    config.routers["R1"].neighbors["ISP1"].originated = (
        Route(prefix=Prefix.parse("8.8.0.0/16"), communities=communities),
    )
    return config


def _originated_tagged_problem(config):
    prop = SafetyProperty(
        location=Edge("R1", "ISP1"),
        predicate=TruePred(),
        name="originated-routes-tagged",
    )
    invariants = InvariantMap(config.topology, default=TruePred())
    invariants.set_edge("R1", "ISP1", HasCommunity(OWN))
    # The property itself is about the same edge.
    prop = SafetyProperty(
        location=Edge("R1", "ISP1"), predicate=HasCommunity(OWN), name="own-tag"
    )
    return prop, invariants


def test_originate_check_generated_only_when_routes_exist():
    config = _config_with_origination(tagged=True)
    prop, invariants = _originated_tagged_problem(config)
    checks = generate_safety_checks(config, invariants, prop.location, prop.predicate, ())
    originate = [c for c in checks if c.kind is CheckKind.ORIGINATE]
    assert [c.edge for c in originate] == [Edge("R1", "ISP1")]

    clean = build_figure1()
    checks2 = generate_safety_checks(clean, invariants, prop.location, prop.predicate, ())
    assert not [c for c in checks2 if c.kind is CheckKind.ORIGINATE]


def test_originate_check_passes_when_tagged():
    config = _config_with_origination(tagged=True)
    prop, invariants = _originated_tagged_problem(config)
    # All exported routes on R1->ISP1 must carry the tag too; R1 forwards
    # routes from other neighbors there, so restrict the node invariant.
    invariants.set_router("R1", HasCommunity(OWN))
    report = verify_safety(config, prop, invariants)
    # The import checks into R1 cannot establish HasCommunity(OWN) — this
    # invariant set is deliberately too strong; look only at the originate
    # outcome here.
    originate_outcomes = [
        o for o in report.iter_outcomes() if o.check.kind is CheckKind.ORIGINATE
    ]
    assert len(originate_outcomes) == 1
    assert originate_outcomes[0].passed


def test_originate_check_fails_when_untagged():
    config = _config_with_origination(tagged=False)
    prop, invariants = _originated_tagged_problem(config)
    report = verify_safety(config, prop, invariants)
    originate_failures = [
        f for f in report.failures if f.check.kind is CheckKind.ORIGINATE
    ]
    assert originate_failures
    witness = originate_failures[0]
    assert witness.input_route.prefix == Prefix.parse("8.8.0.0/16")
    assert OWN not in witness.input_route.communities
    assert "originated" in witness.explain()


# ---------------------------------------------------------------------------
# Report formatting
# ---------------------------------------------------------------------------


def test_multi_query_outcome_keeps_search_counters_and_unknown_reason():
    """Regression: merging the stats of an originate check's discharges
    dropped the SAT counters and the UNKNOWN reason."""
    from repro.core.checks import _merge_stats
    from repro.smt.sat import SatStats
    from repro.smt.solver import SolverStats

    first = SolverStats(
        num_vars=3, num_clauses=7, build_time_s=0.5, solve_time_s=0.25,
        sat=SatStats(decisions=2, propagations=5, conflicts=1, restarts=1,
                     learned=1, max_learnt_len=4),
    )
    second = SolverStats(
        num_vars=9, num_clauses=2, build_time_s=0.5, solve_time_s=0.25,
        sat=SatStats(decisions=3, propagations=7, conflicts=2, max_learnt_len=2),
        unknown_reason="conflicts",
    )
    merged = _merge_stats(first, second)
    assert (merged.num_vars, merged.num_clauses) == (9, 7)
    assert (merged.build_time_s, merged.solve_time_s) == (1.0, 0.5)
    assert merged.sat == SatStats(
        decisions=5, propagations=12, conflicts=3, restarts=1, learned=1, max_learnt_len=4
    )
    assert merged.unknown_reason == "conflicts"

    # End to end: an originate check that runs out of time says why on its
    # stats too, not only on the outcome.
    config = _config_with_origination(tagged=False)
    prop, invariants = _originated_tagged_problem(config)
    checks = generate_safety_checks(config, invariants, prop.location, prop.predicate, ())
    (originate,) = [c for c in checks if c.kind is CheckKind.ORIGINATE]
    from repro.core.safety import build_universe, invariant_predicates

    universe = build_universe(config, [prop.predicate, *invariant_predicates(invariants)], ())
    outcome = originate.run(config, universe, deadline_s=0.0)
    assert outcome.unknown and outcome.unknown_reason == "timeout"
    assert outcome.stats.unknown_reason == "timeout"


def test_format_safety_report_pass_and_verbose():
    config = build_figure1()
    prop = SafetyProperty(
        location=Edge("R2", "ISP2"),
        predicate=Not(HasCommunity(TRANSIT_COMMUNITY)),
        name="no-leak",
    )
    invariants = InvariantMap(config.topology, default=TruePred())
    invariants.set_edge("R2", "ISP2", Not(HasCommunity(TRANSIT_COMMUNITY)))
    report = verify_safety(config, prop, invariants)
    text = format_report(report)
    assert "PASSED" in text
    verbose = format_report(report, verbose=True)
    assert "check breakdown:" in verbose
    assert verbose.count("[ok  ]") == report.num_checks


def test_format_safety_report_failure_contains_explanation():
    config = build_figure1(buggy_r1_tagging=True)
    from repro.lang.ghost import GhostAttribute
    from tests.core.conftest import no_transit_invariants, no_transit_property

    ghost = isp1_ghost(config)
    report = verify_safety(
        config, no_transit_property(), no_transit_invariants(config), ghosts=(ghost,)
    )
    text = format_report(report)
    assert "FAILED" in text
    assert "blamed router: R1" in text


def test_format_liveness_report():
    config = build_figure1()
    report = verify_liveness(config, customer_liveness_property())
    text = format_report(report, verbose=True)
    assert "PASSED" in text
    assert "no-interference at R2: ok" in text
    assert "no-interference at R3: ok" in text


def test_format_liveness_report_failure():
    config = build_figure1(buggy_r3_strip=True)
    report = verify_liveness(config, customer_liveness_property())
    text = format_report(report)
    assert "FAILED" in text
    assert "Customer->R3" in text
