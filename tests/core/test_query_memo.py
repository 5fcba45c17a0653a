"""The pool-scoped query memo: each distinct query is solved once.

Hash-consing hands ``LocalCheck._discharge`` the identical tuple of
interned assertions for every check that asks the same question, so a
:class:`SessionPool` remembers the SAT/UNSAT answer per tuple and only
queries it has not seen reach a ``CheckSession``.  The reference is the
hermetic path (``check.run(..., session=None)``: a fresh ``Solver``, no
session, no memo) and the contract is identity on verdict, blamed edge,
``rejected`` and UNKNOWN reason — the witness *route* may legitimately
differ, so each memo-hit witness is validated against the asking check
instead of compared.
"""

from __future__ import annotations

import pytest

from repro.bgp.policy import ClearCommunities, DeleteCommunity, RouteMap, RouteMapClause
from repro.bgp.topology import Edge
from repro.cli import main as cli_main
from repro.core.checks import MEMO_HIT_STATS, CheckKind, InternalError
from repro.core.exec import ExecutionContext
from repro.core.safety import build_universe, run_checks
from repro.core.workspace import Workspace
from repro.smt.solver import CheckSession, Model, Result, SessionPool
from repro.smt.terms import clear_intern_cache
from repro.workloads.fullmesh import TRANSIT_COMMUNITY, build_full_mesh
from repro.workloads.randomnet import build_random_network
from repro.workloads.wan import build_wan
from repro.workloads.wan_properties import (
    peering_problem,
    peering_quality_predicates,
    verify_ip_reuse_safety_problems,
    verify_peering_problems,
)

from tests.core.conftest import mesh_no_transit, safety_pieces

STRIP = RouteMap("STRIP", (RouteMapClause(10, actions=(DeleteCommunity(TRANSIT_COMMUNITY),)),))


def _no_transit_problem(config):
    ghost, prop, invariants = mesh_no_transit(config)
    return (ghost, prop, invariants, *safety_pieces(config, ghost, prop, invariants))


def _fingerprint(outcome):
    failure = outcome.failure
    return (
        str(outcome.check),
        outcome.passed,
        outcome.unknown,
        outcome.unknown_reason,
        None if failure is None else (failure.check.edge, failure.blamed_router, failure.rejected),
    )


def _assert_matches_hermetic(outcomes, config, universe, ghosts):
    assert outcomes
    for outcome in outcomes:
        reference = outcome.check.run(config, universe, ghosts)
        assert _fingerprint(outcome) == _fingerprint(reference)


def _assert_one_solve_per_distinct_query(pool, num_queries):
    stats = pool.stats()
    assert stats["checks_discharged"] == stats["memo_entries"] == len(pool.answers)
    assert stats["checks_discharged"] + stats["memo_hits"] == num_queries
    assert stats["memo_hits"] > 0


# -- (i) memo ≡ hermetic ---------------------------------------------------


@pytest.mark.parametrize("model", ["gnp", "ba", "ring"])
@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("broken", [False, True])
def test_memo_matches_hermetic_on_random_networks(model, seed, broken):
    config = build_random_network(8, model=model, seed=seed)
    if broken:
        # The same faulty map on every internal import of two routers: the
        # failing query repeats, so most failures are memo hits.
        for router in ("R3", "R4"):
            for peer, session in config.routers[router].neighbors.items():
                if config.topology.is_router(peer):
                    session.import_map = STRIP
    ghost, __, __, universe, checks = _no_transit_problem(config)
    pool = SessionPool()
    context = ExecutionContext(sessions=pool)
    outcomes = run_checks(checks, config, universe, (ghost,), context=context)
    assert any(o.failure for o in outcomes) == broken
    assert pool.stats()["memo_hits"] > 0
    _assert_matches_hermetic(outcomes, config, universe, (ghost,))


def test_memo_matches_hermetic_on_wan_sweep_with_skipped_bogon_filter():
    wan = build_wan(regions=3, routers_per_region=3, buggy_edge_router="W1-0")
    problem = peering_problem(wan, "no-bogons", peering_quality_predicates(wan)["no-bogons"])
    pool = SessionPool()
    context = ExecutionContext(sessions=pool)
    ((__, report),) = verify_peering_problems(wan, problems=[problem], workspace=context)
    assert {f.blamed_router for f in report.failures} == {"W1-0"}
    universe = build_universe(
        wan.config,
        problem.invariants,
        [p.predicate for p in problem.properties],
        (problem.ghost,),
    )
    _assert_matches_hermetic(
        list(report.iter_outcomes()), wan.config, universe, (problem.ghost,)
    )
    _assert_one_solve_per_distinct_query(pool, report.num_checks)


def test_memo_matches_hermetic_with_a_planted_clear_communities_fault():
    config = build_full_mesh(6)
    planted = RouteMap("WIPE", (RouteMapClause(10, actions=(ClearCommunities(),)),))
    config.routers["R4"].neighbors["R1"].import_map = planted
    ghost, __, __, universe, checks = _no_transit_problem(config)
    outcomes = run_checks(checks, config, universe, (ghost,))
    assert [o.check.edge for o in outcomes if o.failure] == [Edge("R1", "R4")]
    _assert_matches_hermetic(outcomes, config, universe, (ghost,))


# -- (ii) UNKNOWNs are never stored ------------------------------------------


def test_budgeted_unknowns_are_not_memoised_and_a_later_run_decides():
    wan = build_wan(regions=2, routers_per_region=3)
    pool = SessionPool()
    context = ExecutionContext(sessions=pool)
    starved = verify_ip_reuse_safety_problems(
        wan, workspace=ExecutionContext(conflict_budget=0, sessions=pool)
    )
    unknown = [o for __, r in starved for o in r.iter_outcomes() if o.unknown]
    assert unknown and {o.unknown_reason for o in unknown} == {"conflicts"}
    assert all(result is not Result.UNKNOWN for result, __ in pool.answers.values())
    # Only decided answers went in: every solve that did not store one is
    # one of the UNKNOWNs above.
    assert pool.checks_discharged - len(pool.answers) == len(unknown)

    decided = verify_ip_reuse_safety_problems(wan, workspace=context)
    assert all(report.passed for __, report in decided)


def test_an_expired_deadline_bypasses_the_memo():
    config = build_full_mesh(4)
    ghost, __, __, universe, checks = _no_transit_problem(config)
    pool = SessionPool()
    context = ExecutionContext(sessions=pool)
    assert all(o.passed for o in run_checks(checks, config, universe, (ghost,), context=context))
    # Every query is now in the memo, yet a check that starts with no time
    # left still comes back UNKNOWN/timeout.
    late = checks[0].run(config, universe, (ghost,), session=pool.get("R1"), deadline_s=0.0)
    assert late.unknown and late.unknown_reason == "timeout"
    assert late.stats is not MEMO_HIT_STATS


# -- (iii) a hit's counterexample belongs to the asking check ----------------


def test_memo_hit_counterexample_names_and_satisfies_the_asking_check():
    config = build_full_mesh(6)
    for peer in ("R1", "R2", "R3"):
        config.routers["R5"].neighbors[peer].import_map = STRIP
    ghost, __, __, universe, checks = _no_transit_problem(config)
    pool = SessionPool()
    context = ExecutionContext(sessions=pool)
    outcomes = run_checks(checks, config, universe, (ghost,), context=context)
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


# -- (iv) exactly one solve per distinct query -------------------------------


def test_fullmesh_solves_each_distinct_query_once():
    config = build_full_mesh(10)
    ghost, __, __, universe, checks = _no_transit_problem(config)
    assert not [c for c in checks if c.kind is CheckKind.ORIGINATE]
    pool = SessionPool()
    context = ExecutionContext(sessions=pool)
    outcomes = run_checks(checks, config, universe, (ghost,), context=context)
    assert all(o.passed for o in outcomes)
    _assert_one_solve_per_distinct_query(pool, len(checks))
    # The repeats carry the one shared zero-cost stats object.
    assert sum(o.stats is MEMO_HIT_STATS for o in outcomes) == pool.stats()["memo_hits"]
    assert (MEMO_HIT_STATS.num_vars, MEMO_HIT_STATS.total_time_s) == (0, 0.0)


def test_wan_sweep_solves_each_distinct_query_once():
    wan = build_wan(regions=3, routers_per_region=3)
    pool = SessionPool()
    context = ExecutionContext(sessions=pool)
    results = verify_peering_problems(wan, workspace=context)
    results += verify_ip_reuse_safety_problems(wan, workspace=context)
    assert all(report.passed for __, report in results)
    _assert_one_solve_per_distinct_query(pool, sum(r.num_checks for __, r in results))


def test_a_jobs_worker_keeps_one_memo_across_its_owner_chunks(monkeypatch):
    from repro.core.exec import pool as exec_pool

    config = build_full_mesh(6)
    ghost, __, __, universe, checks = _no_transit_problem(config)
    monkeypatch.setattr(exec_pool, "_WORKER_CONTEXT", None)
    exec_pool._init_worker(config, universe, (ghost,), None, True, None, None, None)
    chunks = exec_pool.chunk_by_owner(checks)
    outcomes = [pair for chunk in chunks for pair in exec_pool._run_chunk(chunk)]
    assert all(outcome.passed for __, outcome in outcomes)
    worker_pool = exec_pool._WORKER_CONTEXT[-1]
    assert len(worker_pool) == len(chunks)  # one session per owner chunk
    _assert_one_solve_per_distinct_query(worker_pool, len(checks))


# -- (v) through the on-disk cache -------------------------------------------


def test_save_load_reverify_matches_hermetic(tmp_path):
    config = build_full_mesh(6)
    ghost, prop, invariants, __, __ = _no_transit_problem(config)
    path = tmp_path / "workspace.lyc"
    with Workspace(config, ghosts=(ghost,)) as workspace:
        assert workspace.verify(prop, invariants).passed
        workspace.save(path)

    edited = build_full_mesh(6)
    edited.routers["R3"].neighbors["R4"].import_map = STRIP
    with Workspace.load(path, config=build_full_mesh(6), ghosts=(ghost,)) as loaded:
        assert not loaded.sessions.answers  # the memo is never persisted
        loaded.apply(edited)
        (entry,) = loaded.reverify()
    report = entry.last_result.report
    assert [f.check.edge for f in report.failures] == [Edge("R4", "R3")]
    edited_invariants = _no_transit_problem(edited)[2]
    universe = build_universe(edited, edited_invariants, [prop.predicate], (ghost,))
    _assert_matches_hermetic(list(report.iter_outcomes()), edited, universe, (ghost,))


# -- (vi) no hit across an intern-table reset --------------------------------


def test_no_memo_hit_across_clear_intern_cache():
    pool = SessionPool()
    context = ExecutionContext(sessions=pool)
    config = build_full_mesh(4)
    ghost, __, __, universe, checks = _no_transit_problem(config)
    run_checks(checks[:1], config, universe, (ghost,), context=context)
    assert len(pool.answers) == 1

    clear_intern_cache()
    config = build_full_mesh(4)
    ghost, __, __, universe, checks = _no_transit_problem(config)
    outcome = run_checks(checks[:1], config, universe, (ghost,), context=context)[0]
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
    pool = SessionPool()
    context = ExecutionContext(sessions=pool)
    outcomes = run_checks(checks, config, universe, (ghost,), context=context)
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
