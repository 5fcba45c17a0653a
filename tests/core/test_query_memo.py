"""The pool-scoped query memo: each distinct query is solved once.

Hash-consing hands ``LocalCheck._discharge`` the identical tuple of
interned assertions for every check that asks the same question, so a
:class:`SessionPool` remembers the SAT/UNSAT answer per tuple and only
queries it has not seen reach a ``CheckSession``.  That a memoised run
decides as the hermetic one does is the oracle's ``pooled`` and ``warm``
cells (``tests/oracle.py``; the 8-router random networks repeat one
failing query across R3's imports).  Pinned here: what the memo stores
(never an UNKNOWN, never across an expired deadline or an intern-table
reset), that a hit's counterexample belongs to the asking check, the
one-solve-per-distinct-query counters, and the self-check that turns a
model failing its own query into an internal error.
"""

from __future__ import annotations

import pickle

import pytest

from repro.bgp.topology import Edge
from repro.cli import main as cli_main
from repro.core.checks import MEMO_HIT_STATS, CheckKind, InternalError, group_checks_by_owner
from repro.core.exec import ExecutionContext
from repro.smt.solver import CheckSession, Model, Result, SessionPool
from repro.smt.terms import clear_intern_cache
from repro.workloads.fullmesh import build_full_mesh
from repro.workloads.wan import build_wan
from repro.workloads.wan_properties import verify_ip_reuse_safety_problems

from tests import oracle
from tests.core.conftest import mesh_no_transit, run_batch, safety_pieces

STRIP = oracle.STRIP


def _no_transit_problem(config):
    ghost, prop, invariants = mesh_no_transit(config)
    return (ghost, prop, invariants, *safety_pieces(config, ghost, prop, invariants))


def _assert_one_solve_per_distinct_query(pool, num_queries):
    stats = pool.stats()
    assert stats["checks_discharged"] == stats["memo_entries"] == len(pool.answers)
    assert stats["checks_discharged"] + stats["memo_hits"] == num_queries
    assert stats["memo_hits"] > 0


# -- (i) UNKNOWNs are never stored ------------------------------------------


def test_budgeted_unknowns_are_not_memoised_and_a_later_run_decides():
    wan = build_wan(regions=2, routers_per_region=3)
    context = ExecutionContext(conflict_budget=0)
    pool = context.sessions
    starved = verify_ip_reuse_safety_problems(wan, workspace=context)
    unknown = [o for __, r in starved for o in r.iter_outcomes() if o.unknown]
    assert unknown and {o.unknown_reason for o in unknown} == {"conflicts"}
    assert all(result is not Result.UNKNOWN for result, __ in pool.answers.values())
    # Only decided answers went in: every solve that did not store one is
    # one of the UNKNOWNs above.
    assert pool.checks_discharged - len(pool.answers) == len(unknown)

    context.conflict_budget = None  # a later run on the same sessions
    decided = verify_ip_reuse_safety_problems(wan, workspace=context)
    assert all(report.passed for __, report in decided)


def test_an_expired_deadline_bypasses_the_memo():
    config = build_full_mesh(4)
    ghost, __, __, universe, checks = _no_transit_problem(config)
    context = ExecutionContext()
    pool = context.sessions
    assert all(o.passed for o in run_batch(checks, config, universe, (ghost,), context=context))
    # Every query is now in the memo, yet a check that starts with no time
    # left still comes back UNKNOWN/timeout.
    late = checks[0].run(config, universe, (ghost,), session=pool.get("R1"), deadline_s=0.0)
    assert late.unknown and late.unknown_reason == "timeout"
    assert late.stats is not MEMO_HIT_STATS


# -- (ii) a hit's counterexample belongs to the asking check ----------------


def test_memo_hit_counterexample_names_and_satisfies_the_asking_check():
    config = build_full_mesh(6)
    for peer in ("R1", "R2", "R3"):
        config.routers["R5"].neighbors[peer].import_map = STRIP
    ghost, __, __, universe, checks = _no_transit_problem(config)
    context = ExecutionContext()
    pool = context.sessions
    outcomes = run_batch(checks, config, universe, (ghost,), context=context)
    failed = [o for o in outcomes if o.failure]
    assert [o.check.edge for o in failed] == [Edge(p, "R5") for p in ("R1", "R2", "R3")]
    hits = [o for o in failed if o.stats is MEMO_HIT_STATS]
    assert len(hits) == 2  # one solve, two recalls
    for outcome in failed:
        failure = outcome.failure
        assert failure.check is outcome.check
        assert failure.blamed_router == "R5"
        assert outcome.check.assumption.holds(failure.input_route)
        assert not failure.rejected
        assert not outcome.check.goal.holds(failure.output_route)


# -- (iii) exactly one solve per distinct query -------------------------------


def test_fullmesh_solves_each_distinct_query_once():
    config = build_full_mesh(10)
    ghost, __, __, universe, checks = _no_transit_problem(config)
    assert not [c for c in checks if c.kind is CheckKind.ORIGINATE]
    context = ExecutionContext()
    pool = context.sessions
    outcomes = run_batch(checks, config, universe, (ghost,), context=context)
    assert all(o.passed for o in outcomes)
    _assert_one_solve_per_distinct_query(pool, len(checks))
    # The repeats carry the one shared zero-cost stats object.
    assert sum(o.stats is MEMO_HIT_STATS for o in outcomes) == pool.stats()["memo_hits"]
    assert (MEMO_HIT_STATS.num_vars, MEMO_HIT_STATS.total_time_s) == (0, 0.0)


def test_a_jobs_worker_keeps_one_memo_across_its_owner_chunks(monkeypatch):
    from repro.core.exec import pool as exec_pool

    config = build_full_mesh(6)
    ghost, __, __, universe, checks = _no_transit_problem(config)
    monkeypatch.setattr(exec_pool, "_WORKER_CONTEXT", None)
    exec_pool._init_worker(config, universe, (ghost,), None, None, None, None)
    chunks = list(group_checks_by_owner(checks).values())
    outcomes = [outcome for chunk in chunks for outcome in exec_pool._run_chunk(pickle.dumps(chunk))]
    assert all(outcome.passed for outcome in outcomes)
    worker_pool = exec_pool._WORKER_CONTEXT[-1]
    assert len(worker_pool) == len(chunks)  # one session per owner chunk
    _assert_one_solve_per_distinct_query(worker_pool, len(checks))


# -- (iv) no hit across an intern-table reset --------------------------------


def test_no_memo_hit_across_clear_intern_cache():
    context = ExecutionContext()
    pool = context.sessions
    config = build_full_mesh(4)
    ghost, __, __, universe, checks = _no_transit_problem(config)
    run_batch(checks[:1], config, universe, (ghost,), context=context)
    assert len(pool.answers) == 1

    clear_intern_cache()
    config = build_full_mesh(4)
    ghost, __, __, universe, checks = _no_transit_problem(config)
    outcome = run_batch(checks[:1], config, universe, (ghost,), context=context)[0]
    # Structurally the same query, but built from new terms: a new key.
    assert outcome.passed and outcome.stats is not MEMO_HIT_STATS
    assert pool.stats()["memo_hits"] == 0
    assert pool.stats()["memo_entries"] == 2


# -- the SAT-side self-check ---------------------------------------------------


def _plant_wrong_model(pool):
    """Replace every stored SAT model with one that assigns nothing."""
    planted = 0
    for query, (result, __) in list(pool.answers.items()):
        if result is Result.SAT:
            pool.answers[query] = (result, Model({}, {}))
            planted += 1
    return planted


def test_a_model_that_fails_its_own_query_is_an_internal_error():
    config = build_full_mesh(4)
    config.routers["R3"].neighbors["R1"].import_map = STRIP
    ghost, __, __, universe, checks = _no_transit_problem(config)
    context = ExecutionContext()
    pool = context.sessions
    outcomes = run_batch(checks, config, universe, (ghost,), context=context)
    (failed,) = [o for o in outcomes if o.failure]
    assert _plant_wrong_model(pool) == 1
    with pytest.raises(InternalError, match="import check at R3"):
        failed.check.run(config, universe, (ghost,), session=pool.get("R3"))


def test_cli_reports_a_failed_self_check_as_exit_2(tmp_path, monkeypatch, capsys):
    from repro.bgp.configjson import config_to_json

    config = build_full_mesh(4)
    config.routers["R3"].neighbors["R1"].import_map = STRIP
    config_path = tmp_path / "mesh.json"
    config_path.write_text(config_to_json(config))
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(SPEC)
    assert cli_main(["verify", str(config_path), str(spec_path)]) == 1
    assert "distinct queries solved" in capsys.readouterr().out

    # The same run with a solver whose SAT models are empty.
    monkeypatch.setattr(CheckSession, "model", lambda self: Model({}, {}))
    assert cli_main(["verify", str(config_path), str(spec_path)]) == 2
    captured = capsys.readouterr()
    assert "internal error" in captured.err
    assert "FAILED" not in captured.out


SPEC = """
{"ghosts": [{"name": "FromE1", "kind": "source", "sources": ["E1->R1"]}],
 "safety": [{"name": "no-transit", "location": "R2->E2",
   "predicate": {"kind": "not", "inner": {"kind": "ghost", "name": "FromE1"}},
   "invariants": {"default": {"kind": "implies",
       "antecedent": {"kind": "ghost", "name": "FromE1"},
       "consequent": {"kind": "community", "community": "100:1"}},
     "overrides": {"R2->E2": {"kind": "not", "inner": {"kind": "ghost", "name": "FromE1"}}}}}]}
"""
