"""Unknown outcomes must be counted and displayed, not lost.

Regression: UNKNOWN outcomes (conflict budget exhausted) fail a property
but carry no counterexample, so the summaries — which used to count only
``failures`` — rendered an unknown-only failure as ``FAILED (0 checks)``.
Both report summaries and the CLI formatters must surface unknowns
distinctly.
"""

from __future__ import annotations

from repro.core.checks import CheckKind, CheckOutcome, LocalCheck
from repro.core.liveness import verify_liveness
from repro.core.report import IMPLICATION_KEY, SAFETY_KEY, GroupOutcomes, format_report
from repro.core.safety import verify_safety
from repro.lang.predicates import TruePred
from repro.smt.solver import SolverStats
from repro.workloads.figure1 import build_figure1

from tests import oracle
from tests.core.conftest import (
    customer_liveness_property,
    isp1_ghost,
    no_transit_invariants,
    no_transit_property,
)


def _unknown_group(description="undecided stub check"):
    """One more group for a report: a single undecided check."""
    check = LocalCheck(
        kind=CheckKind.IMPLICATION,
        edge=None,
        assumption=TruePred(),
        goal=TruePred(),
        text=description,
    )
    outcome = CheckOutcome(
        check=check, passed=False, stats=SolverStats(), unknown=True
    )
    return GroupOutcomes.of([check], [outcome])


def _fig1_safety_report(config=None):
    config = config if config is not None else build_figure1()
    ghost = isp1_ghost(config)
    return verify_safety(
        config, no_transit_property(), no_transit_invariants(config), ghosts=(ghost,)
    )


def test_safety_summary_counts_unknowns_distinctly():
    report = _fig1_safety_report()
    assert report.passed
    report.sections[SAFETY_KEY].append(_unknown_group())
    assert not report.passed
    assert not report.failures  # no counterexample anywhere...
    assert len(report.unknowns) == 1  # ...but one undecided check
    summary = report.summary()
    assert "1 unknown" in summary
    assert "FAILED (0 checks)" not in summary


def test_safety_summary_mixes_failures_and_unknowns():
    broken, __ = oracle.CASES["figure1-safety-planted"].mutant()
    report = _fig1_safety_report(broken)
    assert report.failures
    report.sections[SAFETY_KEY].append(_unknown_group())
    summary = report.summary()
    assert f"{len(report.failures)} failed" in summary
    assert "1 unknown" in summary


def test_safety_formatter_lists_unknown_checks():
    report = _fig1_safety_report()
    report.sections[SAFETY_KEY].append(_unknown_group("the undecided check"))
    text = format_report(report)
    assert "UNKNOWN (budget exhausted): the undecided check" in text


def test_liveness_summary_counts_unknowns_distinctly():
    config = build_figure1()
    report = verify_liveness(config, customer_liveness_property())
    assert report.passed
    (implication,) = report.section_outcomes(IMPLICATION_KEY)
    implication.passed, implication.unknown = False, True
    assert not report.passed
    assert not report.failures
    assert len(report.unknowns) == 1
    summary = report.summary()
    assert "1 unknown" in summary
    assert "FAILED (0 checks)" not in summary


def test_liveness_formatter_lists_unknown_checks():
    config = build_figure1()
    report = verify_liveness(config, customer_liveness_property())
    (implication,) = report.section_outcomes(IMPLICATION_KEY)
    implication.passed, implication.unknown = False, True
    sub = next(key for key in report.sections if key[0] == "sub")
    report.sections[sub].append(_unknown_group())
    text = format_report(report)
    assert text.count("UNKNOWN (budget exhausted)") == 2
    assert "FAILED (2 unknown)" in report.summary()


def test_empty_status_never_renders_zero_checks():
    """Even a degenerate report (no failures, no unknowns, not passed —
    impossible today, defensive tomorrow) must not claim '0 checks'."""
    from repro.core.report import failure_status

    assert failure_status([], []) == "FAILED"
    assert failure_status([object()], []) == "FAILED (1 failed)"
    assert failure_status([], [object()]) == "FAILED (1 unknown)"
    assert failure_status([object()], [object(), object()]) == (
        "FAILED (1 failed, 2 unknown)"
    )
