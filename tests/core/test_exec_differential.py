"""The scheduler against the hermetic reference, as oracle cells.

Nothing observable may depend on how a batch ran: every case below is a
cell of the equivalence oracle (``tests/oracle.py``), which compares
verdicts, UNKNOWN reasons and blame in the reference's order.  What the
oracle cannot see stays here: the §5 mapping run in either key order,
its flat listing order, one process map per liveness batch, and the
consultation counters of a one-router reverify.
"""

from __future__ import annotations

import pytest

from repro.core.exec import ExecutionContext, Scheduler
from repro.core.safety import build_universe

from tests import oracle

FIGURE1_LIVENESS = oracle.CASES["figure1-liveness"]


@pytest.mark.parametrize(
    "n,model,seed,broken",
    [(5, "gnp", 0, False), (5, "ba", 1, True), (5, "ring", 2, False), (6, "gnp", 3, True)],
)
def test_safety_identical_across_backends(n, model, seed, broken):
    case = oracle.randomnet_case(n, model, seed, broken)
    assert bool(oracle.blamed_routers(oracle.agree(case, "pooled", "parallel"))) == broken


def test_safety_report_buckets_identical_across_backends():
    oracle.agree(oracle.randomnet_case(5, "ba", 4, True), "pooled", "parallel")


def test_outcomes_do_not_depend_on_mapping_order():
    # Independence (the §4.3/§5.3 theorems) is what licenses running a
    # whole proof as one batch with no stages: any key order gives every
    # key the hermetic outcomes, over sessions warmed in a different order.
    config = FIGURE1_LIVENESS.config()
    ghosts, problem = FIGURE1_LIVENESS.problem(config)
    universe = build_universe(config, None, problem.predicates(), ghosts)
    sections = problem.checks(config)
    reference = {
        key: [oracle.outcome_key(check.run(config, universe, ghosts)) for check in checks]
        for key, checks in sections.items()
    }
    for keys in (list(sections), list(reversed(sections))):
        mapping = {key: sections[key] for key in keys}
        result = Scheduler(ExecutionContext()).run(mapping, config, universe, ghosts)
        assert list(result) == keys
        for key in keys:
            assert list(map(oracle.outcome_key, result[key])) == reference[key], key
        # Flat order is mapping order, check for check.
        assert [o.check for outcomes in result.values() for o in outcomes] == [
            check for checks in mapping.values() for check in checks
        ]


@pytest.fixture
def pools_built(monkeypatch):
    """Counts ``ProcessPoolExecutor`` constructions (they still work)."""
    import concurrent.futures

    real = concurrent.futures.ProcessPoolExecutor
    built = []

    def counting(*args, **kwargs):
        built.append(kwargs.get("max_workers"))
        return real(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", counting)
    return built


@pytest.mark.parametrize("buggy", [False, True])
def test_liveness_driver_identical_across_backends(buggy, pools_built):
    case = oracle.CASES["figure1-liveness-planted" if buggy else "figure1-liveness"]
    reference = oracle.listing(oracle.run("hermetic", case))
    assert bool(oracle.blamed_routers(reference)) == buggy
    for path, pools in ((oracle.pooled, 0), (oracle.parallel, 1)):
        del pools_built[:]
        report = path(case)
        # One batch: the whole §5 pipeline shares a single process map.
        assert len(pools_built) == pools, path.__name__
        assert oracle.listing(report) == reference, path.__name__


@pytest.mark.parametrize(
    "parallel", [pytest.param(None, id="serial-None"), pytest.param(2, id="process-2")]
)
def test_incremental_reverify_matches_scratch(parallel):
    case = oracle.randomnet_case(5, "gnp", 0, planted=True)
    result = oracle.tracked(case, parallel=parallel).last_result
    assert oracle.fingerprint(result.report) == oracle.expected(case)
    assert not result.report.passed
    # Consultation accounting: a one-router edit consults exactly that
    # router's owner group — the O(changed-owner) claim.
    assert result.checks_consulted == result.rerun_checks
    assert 0 < result.rerun_checks < result.report.num_checks
    assert result.rerun_checks + result.cached_checks == result.report.num_checks


def test_incremental_liveness_reverify_matches_scratch():
    case = oracle.CASES["figure1-liveness-planted"]
    result = oracle.tracked(case).last_result
    assert oracle.fingerprint(result.report) == oracle.expected(case)
    assert not result.report.passed
    assert result.checks_consulted == result.rerun_checks
    assert result.rerun_checks + result.cached_checks == result.report.num_checks
