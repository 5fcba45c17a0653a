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


def _random_3sat(seed: int, num_vars: int) -> list[list[int]]:
    """Seed ``seed``'s random 3-SAT instance at the threshold ratio 4.26,
    where CDCL search is conflict-heavy."""
    rng = random.Random(seed)
    return [
        [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, num_vars + 1), 3)]
        for __ in range(round(num_vars * 4.26))
    ]


def _trajectory(solver: SatSolver, answer: bool | None) -> tuple:
    stats = solver.stats
    return (answer, stats.decisions, stats.propagations, stats.conflicts, stats.restarts)


# (answer, decisions, propagations, conflicts, restarts) of each instance.
# A kernel change that moves any of them changes the search, not only its
# cost: recorded once, never re-pinned to let a speed-up pass.
TRAJECTORIES = {
    (0, 60): (False, 162, 2112, 137, 1),
    (2, 80): (False, 383, 6335, 317, 2),
    (3, 90): (False, 306, 5524, 264, 2),
    (4, 100): (True, 304, 6527, 241, 2),
    (6, 80): (True, 278, 4690, 219, 2),
    (7, 90): (False, 410, 7425, 349, 2),
}


@pytest.mark.parametrize(("seed", "num_vars"), sorted(TRAJECTORIES))
def test_the_search_trajectory_is_pinned(seed, num_vars):
    solver = _solver(num_vars, _random_3sat(seed, num_vars))
    assert _trajectory(solver, solver.solve()) == TRAJECTORIES[seed, num_vars]


def test_the_search_trajectory_is_pinned_across_assumption_sets():
    # Counters accumulate over one solver's solves; the second search starts
    # from the first one's learnt clauses, activities and saved phases.
    solver = _solver(80, _random_3sat(21, 80))
    first = _trajectory(solver, solver.solve(assumptions=[1, -2, 3]))
    second = _trajectory(solver, solver.solve(assumptions=[-1, 4, -5]))
    assert (first, second) == ((False, 108, 1952, 92, 0), (True, 173, 3032, 137, 0))


def _checked_picks(monkeypatch, solver: SatSolver) -> list[int]:
    """Wrap ``solver``'s branching so every free decision is checked against
    a scan of all variables (highest activity, then lowest index); returns
    the list the picks are recorded in."""
    pick = solver._pick_branch_var
    picks: list[int] = []

    def checked() -> int | None:
        free = [v for v in range(1, solver.num_vars + 1) if solver.value(v) is None]
        expected = min(free, key=lambda v: (-solver.activity[v], v), default=None)
        chosen = pick()
        assert chosen == expected, (len(picks), chosen, expected)
        if chosen is not None:
            picks.append(chosen)
        return chosen

    monkeypatch.setattr(solver, "_pick_branch_var", checked)
    return picks


@pytest.mark.parametrize(("seed", "num_vars"), [(2, 80), (4, 100)])
def test_every_free_decision_is_the_most_active_unassigned_variable(monkeypatch, seed, num_vars):
    solver = _solver(num_vars, _random_3sat(seed, num_vars))
    picks = _checked_picks(monkeypatch, solver)
    solver.solve()
    assert len(picks) == solver.stats.decisions > 100


@pytest.mark.parametrize(("seed", "num_vars"), [(2, 80), (4, 100)])
def test_the_order_heap_holds_one_live_entry_per_variable(monkeypatch, seed, num_vars):
    # Each variable has at most one entry at its current activity; only a
    # bump leaves an older one behind.  A backjump that re-enters every
    # variable it unassigns outgrows this bound within a few conflicts.
    solver = _solver(num_vars, _random_3sat(seed, num_vars))
    bump, cancel = solver._bump_var, solver._cancel_until
    bumps = 0
    peak = 0

    def counted_bump(v: int) -> None:
        nonlocal bumps
        bumps += 1
        bump(v)

    def checked_cancel(level: int) -> None:
        nonlocal peak
        cancel(level)
        peak = max(peak, len(solver.order_heap))
        assert len(solver.order_heap) <= solver.num_vars + bumps

    monkeypatch.setattr(solver, "_bump_var", counted_bump)
    monkeypatch.setattr(solver, "_cancel_until", checked_cancel)
    solver.solve()
    assert solver.stats.conflicts > 200 and peak > solver.num_vars


def test_an_activity_rescale_keeps_the_branching_rule(monkeypatch):
    # Past 1e100 every activity is scaled by 1e-100.  Keys from before the
    # rescale must not outrank the rescaled ones.
    solver = _solver(80, _random_3sat(2, 80))
    solver.var_inc = 1e99
    _checked_picks(monkeypatch, solver)
    checked = solver._pick_branch_var
    incs: list[float] = []

    def recorded() -> int | None:
        incs.append(solver.var_inc)
        return checked()

    monkeypatch.setattr(solver, "_pick_branch_var", recorded)
    assert solver.solve() is TRAJECTORIES[2, 80][0]
    assert sum(inc < 1e90 for inc in incs) > 100, "too few decisions after a rescale"
