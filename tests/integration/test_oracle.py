"""The cells of the equivalence oracle (``tests/oracle.py``).

* every path decides every corpus case exactly as the hermetic reference
  does: pooled ≡ memo ≡ hermetic ≡ uncached terms, serial ≡
  ``parallel=2``, full ≡ tracker after an edit ≡ save → load (the costly
  paths on the cases ``oracle.COSTLY`` names), and each case has the
  verdict it pins;
* under a conflict budget that bites, pooled ≡ tracker ≡ save → load ≡
  hermetic, ``conflicts`` UNKNOWNs included (``oracle.BUDGETED``);
* every planted fault is killed, on every path, at the planted router —
  §6.1's localisation as a kill count — and every FAILED filter check's
  witness replays on the concrete network (``oracle.replay_witnesses``);
* every clean case verifies, and then no simulated trace violates what
  it proved (``oracle.traces``); a planted fault does show in some;
* on small cases the modular verdict is the monolithic baseline's;
* the fingerprint tells apart outcomes that differ in any one field, and
  only the witness fields need ``witness=True``.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.checks import CheckKind

from tests import oracle

CELLS = [
    pytest.param(case, path, id=f"{case}-{path}")
    for case in oracle.CORPUS
    for path in oracle.cells(case)
]
PLANTED = [case for case in oracle.CORPUS if case.planted]
MODEL_FIELDS = ("witness input", "witness output")


@pytest.mark.parametrize("case, path", CELLS)
def test_path_agrees_with_hermetic(case, path):
    oracle.agree(case, path)


@pytest.mark.parametrize(
    "case, path",
    [
        pytest.param(case, path, id=f"{case}-{path}")
        for case in oracle.BUDGETED
        for path in oracle.BUDGETED_PATHS
    ],
)
def test_budgeted_path_agrees_with_hermetic(case, path):
    # Under a conflict budget an UNKNOWN is the query's answer, not the
    # session's that asked: every path gives it where a fresh solver does.
    reference = oracle.agree(case, path, budget=oracle.BUDGET)
    reasons = {key[3] for keys in reference.values() for key in keys}
    assert "conflicts" in reasons, f"the budget does not bite on {case}"


@pytest.mark.parametrize("case", PLANTED, ids=str)
def test_planted_fault_is_killed_at_the_planted_router(case):
    # Every path that runs the case decides it as hermetic does (above),
    # blamed routers included, so killing it here kills it on every path.
    assert oracle.blamed_routers(oracle.expected(case)) == {case.planted_router}


@pytest.mark.parametrize("case", PLANTED, ids=str)
def test_a_planted_fault_has_a_concrete_witness(case):
    # ``hermetic`` and ``pooled`` replay every FAILED filter check's witness
    # on the concrete network (``oracle.replay_witnesses``); each planted
    # fault fails at least one such check.
    config = case.config()
    ghosts, problem = case.problem(config)
    assert oracle.replay_witnesses(oracle.run("hermetic", case), config, ghosts, problem) > 0


def test_the_kill_count_covers_every_mutation_operator():
    names = {case.name.split("-")[0] for case in PLANTED}
    assert names == {
        "randomnet5", "randomnet6", "randomnet8", "fullmesh4", "fullmesh5", "fullmesh6",
        "figure1", "wan", "wan3x3", "rrwan", "policy",
    }
    assert len(PLANTED) == 34


def test_every_costly_cell_names_a_corpus_case():
    for path, reasons in oracle.COSTLY.items():
        assert set(reasons) <= set(oracle.CASES), path


def test_every_case_has_its_pinned_verdict():
    assert [case.name for case in oracle.CORPUS if oracle.verified(case) is not case.passes] == []


@pytest.mark.parametrize("case", [case for case in oracle.CORPUS if case.passes], ids=str)
def test_verified_means_no_simulated_trace_violates_it(case):
    assert oracle.verified(case), f"{case} does not verify"
    assert oracle.traces(case) > 0


@pytest.mark.parametrize(
    "name", ["figure1-safety-untagged", "figure1-liveness-planted", "fullmesh6-safety-wiped"]
)
def test_the_traces_check_sees_a_planted_fault(name):
    with pytest.raises(AssertionError):
        oracle.traces(oracle.CASES[name])


@pytest.mark.parametrize("name", oracle.SMALL)
def test_modular_verdict_matches_minesweeper(name):
    case = oracle.CASES[name]
    assert oracle.minesweeper(case).verified is oracle.verified(case) is (not case.planted)


def test_fingerprint_tells_every_one_field_change_apart():
    case = oracle.CASES["fullmesh4-safety-planted"]
    (outcome,) = [o for o in oracle.hermetic(case).iter_outcomes() if o.failure]
    failure = outcome.failure
    replace = dataclasses.replace
    assert failure.check.kind is CheckKind.IMPORT
    other_input = replace(failure.input_route, med=failure.input_route.med + 1)
    other_output = replace(failure.output_route, med=failure.output_route.med + 1)
    variants = {
        "blamed router": replace(
            outcome, failure=replace(failure, check=replace(failure.check, kind=CheckKind.EXPORT))
        ),
        "unknown_reason": replace(outcome, unknown_reason="timeout"),
        "rejected": replace(outcome, failure=replace(failure, rejected=not failure.rejected)),
        "witness input": replace(outcome, failure=replace(failure, input_route=other_input)),
        "witness output": replace(outcome, failure=replace(failure, output_route=other_output)),
    }
    original = oracle.outcome_key(outcome, witness=True)
    for field, variant in variants.items():
        assert oracle.outcome_key(variant, witness=True) != original, field
    keys = {oracle.outcome_key(v, witness=True) for v in variants.values()}
    assert len(keys) == len(variants)
    # Without ``witness`` the key drops the witness routes and nothing else.
    verdict = oracle.outcome_key(outcome)
    for field, variant in variants.items():
        assert (oracle.outcome_key(variant) == verdict) is (field in MODEL_FIELDS), field
