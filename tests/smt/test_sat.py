"""The CDCL SAT core: directed cases, and random CNFs against brute force."""

from __future__ import annotations

import itertools
import random

import pytest

from repro.smt.sat import SatSolver, _luby


def test_empty_formula_is_sat():
    s = SatSolver()
    assert s.solve() is True


def test_implication_chain_propagates():
    s = SatSolver()
    xs = [s.new_var() for _ in range(20)]
    s.add_clause([xs[0]])
    for i in range(19):
        s.add_clause([-xs[i], xs[i + 1]])
    assert s.solve() is True
    assert all(s.value(x) is True for x in xs)


def test_pigeonhole_4_into_4_sat():
    s = SatSolver()
    n = 4
    p = [[s.new_var() for _ in range(n)] for _ in range(n)]
    for i in range(n):
        s.add_clause(p[i])
    for j in range(n):
        for i1, i2 in itertools.combinations(range(n), 2):
            s.add_clause([-p[i1][j], -p[i2][j]])
    assert s.solve() is True
    # The model puts every pigeon in a hole, and no two in one.
    assert sorted(j for i in range(n) for j in range(n) if s.value(p[i][j])) == list(range(n))


def test_assumptions_sat_and_unsat():
    s = SatSolver()
    a, b = s.new_var(), s.new_var()
    s.add_clause([-a, b])
    assert s.solve(assumptions=[a]) is True
    assert s.value(b) is True
    s.reset_trail()
    s.add_clause([-b])
    assert s.solve(assumptions=[a]) is False


def test_luby_sequence_prefix():
    assert [_luby(i) for i in range(15)] == [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]


def _brute_force(num_vars: int, clauses: list[list[int]]) -> bool:
    """The one SAT reference: whether any of the 2^n assignments satisfies
    every clause."""
    return any(
        all(any((bits >> (abs(lit) - 1) & 1) == (lit > 0) for lit in clause) for clause in clauses)
        for bits in range(2**num_vars)
    )


def _random_cnf(seed: int) -> tuple[int, list[list[int]], list[int]]:
    """Seed ``seed``'s CNF (≤ 8 variables, ≤ 30 clauses) and 1–3 assumptions."""
    rng = random.Random(seed)
    num_vars = rng.randint(1, 8)
    literal = lambda: rng.randint(1, num_vars) * rng.choice((1, -1))
    clauses = [[literal() for __ in range(rng.randint(1, 3))] for __ in range(rng.randint(1, 30))]
    return num_vars, clauses, sorted({literal() for __ in range(rng.randint(1, 3))})


def _solver(num_vars: int, clauses: list[list[int]]) -> SatSolver:
    solver = SatSolver()
    for __ in range(num_vars):
        solver.new_var()
    for clause in clauses:
        solver.add_clause(list(clause))
    return solver


def _assert_agrees(solver: SatSolver, answer: bool | None, num_vars: int, clauses) -> None:
    """``answer`` is the reference's, and a SAT model satisfies every clause."""
    assert answer is _brute_force(num_vars, clauses), clauses
    if answer:
        assert all(any(solver.value(lit) for lit in clause) for clause in clauses), clauses


# One seeded instance per test, so a failure names its seed.
CNF_SEEDS = range(200)
ASSUMPTION_SEEDS = range(200, 260)


@pytest.mark.parametrize("seed", CNF_SEEDS)
def test_cdcl_agrees_with_brute_force_on_random_cnfs(seed):
    num_vars, clauses, __ = _random_cnf(seed)
    solver = _solver(num_vars, clauses)
    _assert_agrees(solver, solver.solve(), num_vars, clauses)


@pytest.mark.parametrize("seed", ASSUMPTION_SEEDS)
def test_cdcl_agrees_with_brute_force_under_assumptions(seed):
    # Solving under assumptions is solving with them as units, and leaves
    # the base formula's answer (and any learnt clauses) sound.
    num_vars, clauses, assumptions = _random_cnf(seed)
    solver = _solver(num_vars, clauses)
    answer = solver.solve(assumptions=assumptions)
    _assert_agrees(solver, answer, num_vars, clauses + [[a] for a in assumptions])
    _assert_agrees(solver, solver.solve(), num_vars, clauses)


def test_random_cnfs_take_both_verdicts():
    # A skewed generator would silently weaken the two tests above.
    plain = {_brute_force(*_random_cnf(seed)[:2]) for seed in CNF_SEEDS}
    assumed = {_brute_force(n, cs + [[a] for a in units]) for n, cs, units in map(_random_cnf, ASSUMPTION_SEEDS)}
    assert plain == assumed == {True, False}
