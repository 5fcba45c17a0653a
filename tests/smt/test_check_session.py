"""Semantics of :class:`repro.smt.CheckSession`: reuse must be invisible.

A session discharges a sequence of independent queries against one shared
clause database.  Every query's verdict and model must match what a fresh
one-shot :class:`Solver` computes — in any interleaving of SAT and UNSAT
answers — and the per-check stats must stay marginal (bounded by one
check's encoding, not the accumulated session).  What it keeps between
checks is pinned too: learnt clauses under a persistent cap, and the
shared fragment asserted once and skipped per check.
"""

from __future__ import annotations

import pytest

from repro import smt
from repro.core.checks import prepare_session
from repro.core.exec import ExecutionContext
from repro.smt import terms as T
from repro.smt.sat import SatSolver
from repro.smt.solver import CheckSession, SessionPool
from repro.workloads.wan import build_wan
from repro.workloads.wan_properties import verify_ip_reuse_safety_problems

from tests.core.conftest import fullmesh_problem, safety_pieces


def _fresh_result(assertions):
    solver = smt.Solver()
    for a in assertions:
        solver.add(a)
    return solver.check()


def test_session_matches_fresh_solver_on_interleaved_queries():
    x = smt.bv_var("x", 8)
    p = smt.bool_var("p")
    queries = [
        [smt.bv_eq(x, smt.bv_const(3, 8))],
        [smt.bv_eq(x, smt.bv_const(3, 8)), smt.bv_eq(x, smt.bv_const(4, 8))],
        [smt.or_(p, smt.bv_ult(x, smt.bv_const(10, 8)))],
        [smt.and_(p, smt.not_(p))],
        [smt.bv_ule(smt.bv_const(250, 8), x), smt.not_(p)],
    ]
    session = CheckSession()
    for assertions in queries:
        assert session.check(assertions) is _fresh_result(assertions)


def test_session_model_satisfies_current_query_only():
    x = smt.bv_var("x", 8)
    session = CheckSession()
    assert session.check([smt.bv_eq(x, smt.bv_const(7, 8))]) is smt.Result.SAT
    assert session.model().eval_bv(x) == 7
    # A later query over the same variable must re-pin it.
    assert session.check([smt.bv_eq(x, smt.bv_const(200, 8))]) is smt.Result.SAT
    assert session.model().eval_bv(x) == 200


def test_session_model_unavailable_after_unsat():
    p = smt.bool_var("p")
    session = CheckSession()
    assert session.check([p, smt.not_(p)]) is smt.Result.UNSAT
    with pytest.raises(RuntimeError):
        session.model()


def test_session_trivially_false_assertion_is_unsat_not_poisonous():
    p = smt.bool_var("p")
    session = CheckSession()
    assert session.check([smt.false()]) is smt.Result.UNSAT
    # The shared clause database must survive a degenerate query.
    assert session.check([p]) is smt.Result.SAT
    assert session.model().eval_bool(p) is True


def test_session_stats_are_marginal_not_cumulative():
    session = CheckSession()
    xs = [smt.bv_var(f"x{i}", 8) for i in range(6)]
    sizes = []
    for x in xs:
        assert session.check([smt.bv_eq(x, smt.bv_const(1, 8))]) is smt.Result.SAT
        sizes.append(session.stats.num_vars)
    # Each query encodes one fresh 8-bit variable (plus small overhead);
    # cumulative stats would grow linearly instead.
    assert max(sizes) <= 2 * sizes[0] + 8
    # A fully shared repeat query costs (almost) nothing to encode.
    assert session.check([smt.bv_eq(xs[0], smt.bv_const(1, 8))]) is smt.Result.SAT
    assert session.stats.num_vars == 0
    assert session.stats.num_clauses == 0


def test_session_conflict_budget_returns_unknown():
    # Pigeonhole 6-into-5 is hard enough to exhaust a one-conflict budget.
    holes, pigeons = 5, 6
    ps = [
        [smt.bool_var(f"ph.{i}.{j}") for j in range(holes)] for i in range(pigeons)
    ]
    assertions = [smt.or_(ps[i]) for i in range(pigeons)]
    for j in range(holes):
        for i1 in range(pigeons):
            for i2 in range(i1 + 1, pigeons):
                assertions.append(smt.or_(smt.not_(ps[i1][j]), smt.not_(ps[i2][j])))
    session = CheckSession()
    assert session.check(assertions, conflict_budget=1) is smt.Result.UNKNOWN
    # The session keeps working after a budgeted query, with learnt clauses
    # (consequences of the definitions) carried over soundly.
    assert session.check(assertions) is smt.Result.UNSAT
    p = smt.bool_var("p")
    assert session.check([p]) is smt.Result.SAT


# -- what a session keeps across checks ------------------------------------


def test_the_learnt_clause_cap_persists_across_solves():
    # solve() used to reset the cap to its base every call, so a grown
    # learnt DB was re-truncated by each later check.
    solver = SatSolver()
    solver.add_clause([solver.new_var()])
    solver._max_learnts = 123456
    assert solver.solve() is True
    assert solver._max_learnts == 123456


def test_prepare_asserts_each_shared_conjunct_once():
    config, ghost, prop, invariants = fullmesh_problem(4)
    universe, __ = safety_pieces(config, ghost, prop, invariants)
    pool = SessionPool()
    session = pool.get("R1")
    prepare_session(session, universe)
    encoded, asserted = pool.total_encoding(), set(session._asserted)
    assert asserted, "well-formedness must contribute a conjunct"
    prepare_session(session, universe)
    assert (pool.total_encoding(), session._asserted) == (encoded, asserted)
    with pytest.raises(ValueError, match="unsatisfiable"):
        CheckSession().prepare((T.FALSE,))


def test_every_discharged_check_skips_the_shared_fragment():
    context = ExecutionContext()
    verify_ip_reuse_safety_problems(build_wan(2, 3), workspace=context)
    stats = context.sessions.stats()
    assert stats["shared_skips"] >= stats["checks_discharged"] > 0
