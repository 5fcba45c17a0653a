"""End-to-end tests of the SMT facade: encoder + CDCL."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import smt
from repro.smt import terms as T


def test_bv_equality_model():
    s = smt.Solver()
    x = smt.bv_var("x", 8)
    s.add(smt.bv_eq(x, smt.bv_const(42, 8)))
    assert s.check() is smt.Result.SAT
    assert s.model().eval_bv(x) == 42


def test_masking_constraint():
    s = smt.Solver()
    x = smt.bv_var("x", 8)
    s.add(smt.bv_eq(smt.bv_and(x, smt.bv_const(0xF0, 8)), smt.bv_const(0x30, 8)))
    assert s.check() is smt.Result.SAT
    assert s.model().eval_bv(x) & 0xF0 == 0x30


def test_unsat_conflicting_equalities():
    s = smt.Solver()
    x = smt.bv_var("x", 8)
    s.add(smt.bv_eq(x, smt.bv_const(1, 8)))
    s.add(smt.bv_eq(x, smt.bv_const(2, 8)))
    assert s.check() is smt.Result.UNSAT


def test_model_unavailable_after_unsat():
    s = smt.Solver()
    s.add(smt.false())
    assert s.check() is smt.Result.UNSAT
    with pytest.raises(RuntimeError):
        s.model()


def test_non_bool_assertion_rejected():
    s = smt.Solver()
    with pytest.raises(TypeError):
        s.add(smt.bv_var("x", 4))


def test_ult_strictness():
    s = smt.Solver()
    x = smt.bv_var("x", 4)
    s.add(smt.bv_ult(x, smt.bv_const(1, 4)))
    assert s.check() is smt.Result.SAT
    assert s.model().eval_bv(x) == 0

    s2 = smt.Solver()
    s2.add(smt.bv_ult(smt.bv_var("y", 4), smt.bv_const(0, 4)))
    assert s2.check() is smt.Result.UNSAT


def test_ule_range():
    s = smt.Solver()
    x = smt.bv_var("x", 4)
    s.add(smt.bv_ule(smt.bv_const(5, 4), x))
    s.add(smt.bv_ule(x, smt.bv_const(6, 4)))
    s.add(smt.bv_ne(x, smt.bv_const(5, 4)))
    assert s.check() is smt.Result.SAT
    assert s.model().eval_bv(x) == 6


def test_addition_with_overflow():
    s = smt.Solver()
    x = smt.bv_var("x", 8)
    s.add(smt.bv_eq(smt.bv_add(x, smt.bv_const(10, 8)), smt.bv_const(5, 8)))
    assert s.check() is smt.Result.SAT
    assert (s.model().eval_bv(x) + 10) % 256 == 5


def test_bv_ite_selects_branch():
    s = smt.Solver()
    c = smt.bool_var("c")
    x = smt.ite(c, smt.bv_const(7, 8), smt.bv_const(9, 8))
    s.add(smt.bv_eq(x, smt.bv_const(9, 8)))
    assert s.check() is smt.Result.SAT
    assert s.model().eval_bool(c) is False


def test_boolean_structure_with_bv_atoms():
    s = smt.Solver()
    x = smt.bv_var("x", 8)
    y = smt.bv_var("y", 8)
    p = smt.bv_eq(x, smt.bv_const(1, 8))
    q = smt.bv_eq(y, smt.bv_const(2, 8))
    s.add(smt.or_(p, q))
    s.add(smt.not_(p))
    assert s.check() is smt.Result.SAT
    assert s.model().eval_bv(y) == 2


def test_prove_valid_implication():
    x = smt.bv_var("x", 8)
    goal = smt.bv_ule(smt.bv_and(x, smt.bv_const(0x0F, 8)), smt.bv_const(0x0F, 8))
    cex, __ = smt.prove(goal)
    assert cex is None


def test_prove_invalid_gives_counterexample():
    x = smt.bv_var("x", 8)
    goal = smt.bv_ult(x, smt.bv_const(128, 8))
    cex, __ = smt.prove(goal)
    assert cex is not None
    assert cex.model.eval_bv(x) >= 128


def test_prove_with_assumptions():
    x = smt.bv_var("x", 8)
    assumption = smt.bv_ult(x, smt.bv_const(10, 8))
    goal = smt.bv_ult(x, smt.bv_const(100, 8))
    cex, __ = smt.prove(goal, assumptions=[assumption])
    assert cex is None


def test_stats_populated():
    s = smt.Solver()
    x = smt.bv_var("x", 16)
    s.add(smt.bv_eq(x, smt.bv_const(12345, 16)))
    s.check()
    assert s.stats.num_vars >= 16
    assert s.stats.num_clauses > 0
    assert s.stats.total_time_s >= 0


# ---------------------------------------------------------------------------
# Property-based: random term evaluation agrees with the model.
# ---------------------------------------------------------------------------

_WIDTH = 4


@st.composite
def bv_terms(draw, depth=0):
    if depth >= 3:
        choice = draw(st.integers(0, 1))
    else:
        choice = draw(st.integers(0, 6))
    if choice == 0:
        return smt.bv_const(draw(st.integers(0, 2**_WIDTH - 1)), _WIDTH)
    if choice == 1:
        return smt.bv_var(draw(st.sampled_from(["a", "b", "c"])), _WIDTH)
    lhs = draw(bv_terms(depth=depth + 1))
    rhs = draw(bv_terms(depth=depth + 1))
    if choice == 2:
        return smt.bv_and(lhs, rhs)
    if choice == 3:
        return smt.bv_or(lhs, rhs)
    if choice == 4:
        return smt.bv_xor(lhs, rhs)
    if choice == 5:
        return smt.bv_add(lhs, rhs)
    return smt.bv_not(lhs)


@st.composite
def bool_terms(draw, depth=0):
    if depth >= 3:
        choice = draw(st.integers(0, 2))
    else:
        choice = draw(st.integers(0, 6))
    if choice == 0:
        return smt.bool_var(draw(st.sampled_from(["p", "q", "r"])))
    if choice == 1:
        lhs = draw(bv_terms(depth=depth + 1))
        rhs = draw(bv_terms(depth=depth + 1))
        return smt.bv_eq(lhs, rhs)
    if choice == 2:
        lhs = draw(bv_terms(depth=depth + 1))
        rhs = draw(bv_terms(depth=depth + 1))
        return smt.bv_ult(lhs, rhs)
    if choice == 3:
        return smt.not_(draw(bool_terms(depth=depth + 1)))
    if choice == 4:
        return smt.and_(
            draw(bool_terms(depth=depth + 1)), draw(bool_terms(depth=depth + 1))
        )
    if choice == 5:
        return smt.or_(
            draw(bool_terms(depth=depth + 1)), draw(bool_terms(depth=depth + 1))
        )
    return smt.ite(
        draw(bool_terms(depth=depth + 1)),
        draw(bool_terms(depth=depth + 1)),
        draw(bool_terms(depth=depth + 1)),
    )


@settings(max_examples=120, deadline=None)
@given(bool_terms())
def test_model_satisfies_asserted_term(term):
    s = smt.Solver()
    s.add(term)
    result = s.check()
    if result is smt.Result.SAT:
        assert s.model().eval_bool(term) is True
    else:
        # UNSAT must agree with brute force over the tiny variable space.
        assert not _brute_force_satisfiable(term)


def _brute_force_satisfiable(term) -> bool:
    import itertools

    from repro.smt.solver import Model

    bools = ["p", "q", "r"]
    bvs = ["a", "b", "c"]
    for bool_bits in itertools.product([False, True], repeat=len(bools)):
        for bv_vals in itertools.product(range(2**_WIDTH), repeat=len(bvs)):
            model = Model(
                {smt.bool_var(n): v for n, v in zip(bools, bool_bits)},
                {smt.bv_var(n, _WIDTH): v for n, v in zip(bvs, bv_vals)},
            )
            if model.eval_bool(term):
                return True
    return False


def test_model_evaluates_chain_deeper_than_the_recursion_limit():
    import sys

    from repro.smt.solver import Model

    # The worklist evaluator is the only one: a term chain no recursive
    # walk could finish must still evaluate, to what Python computes.
    depth = sys.getrecursionlimit() + 500
    x = smt.bv_var("deep_x", 16)
    p = smt.bool_var("deep_p")
    chain, expected, steps = x, 7, [3, 5, 11]
    for i in range(depth):
        step = steps[i % 3]
        chain = smt.bv_add(smt.bv_xor(chain, smt.bv_const(step, 16)), x)
        expected = ((expected ^ step) + 7) & 0xFFFF
    model = Model({p: True}, {x: 7})
    assert model.eval_bv(chain) == expected
    guarded = smt.and_(p, smt.bv_eq(chain, smt.bv_const(expected, 16)))
    assert model.eval_bool(guarded) is True
