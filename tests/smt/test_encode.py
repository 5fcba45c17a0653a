"""The encoder oracle: CNF ≡ term, in both directions.

``Solver.check()`` must answer SAT exactly when brute-force enumeration with
the independent ``Model._eval`` finds a satisfying assignment, and the model
it returns must be one.  (A proof checker would not catch an encoder bug: it
certifies the CNF, not that the CNF means the term.)  Terms are built with
the raw node classes, not the smart constructors, so constants reach either
operand side of every gate — the encoder's folding paths.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import smt
from repro.smt import terms as T
from repro.smt.solver import CheckSession, Model

BOOLS = (T.BoolVar("p"), T.BoolVar("q"))
DEPTH = 4


def _bv_vars(width: int) -> tuple[T.Term, T.Term]:
    return T.BvVar("x", width), T.BvVar("y", width)


@st.composite
def bv_terms(draw, width: int, depth: int) -> T.Term:
    kind = draw(st.sampled_from(["var", "const"] if depth == 0 else _BV_KINDS))
    if kind == "var":
        return draw(st.sampled_from(_bv_vars(width)))
    if kind == "const":
        return T.BvConst(draw(st.integers(0, 2**width - 1)), width)
    if kind == "not":
        return T.BvNot(draw(bv_terms(width, depth - 1)))
    if kind == "ite":
        return T.BvIte(
            draw(bool_terms(width, depth - 1)),
            draw(bv_terms(width, depth - 1)),
            draw(bv_terms(width, depth - 1)),
        )
    node = {"and": T.BvAnd, "or": T.BvOr, "xor": T.BvXor, "add": T.BvAdd}[kind]
    return node(draw(bv_terms(width, depth - 1)), draw(bv_terms(width, depth - 1)))


@st.composite
def bool_terms(draw, width: int, depth: int) -> T.Term:
    kind = draw(st.sampled_from(["var", "const"] if depth == 0 else _BOOL_KINDS))
    if kind == "var":
        return draw(st.sampled_from(BOOLS))
    if kind == "const":
        return T.BoolConst(draw(st.booleans()))
    if kind == "not":
        return T.Not(draw(bool_terms(width, depth - 1)))
    if kind in ("and", "or"):
        args = draw(st.lists(bool_terms(width, depth - 1), min_size=2, max_size=3))
        return (T.And if kind == "and" else T.Or)(tuple(args))
    if kind == "ite":
        return T.Ite(*(draw(bool_terms(width, depth - 1)) for _ in range(3)))
    node = {"eq": T.BvEq, "ult": T.BvUlt, "ule": T.BvUle}[kind]
    return node(draw(bv_terms(width, depth - 1)), draw(bv_terms(width, depth - 1)))


_BV_KINDS = ["var", "const", "not", "ite", "and", "or", "xor", "add"]
_BOOL_KINDS = ["var", "const", "not", "and", "or", "ite", "eq", "ult", "ule"]

WIDTHS = st.integers(1, 3)


def _satisfying_assignments(assertions, width: int) -> list[tuple]:
    """Every (p, q, x, y) under which all ``assertions`` evaluate to true."""
    found = []
    values = range(2**width)
    for point in itertools.product((False, True), (False, True), values, values):
        model = Model(dict(zip(BOOLS, point[:2])), dict(zip(_bv_vars(width), point[2:])))
        if all(model.eval_bool(a) for a in assertions):
            found.append(point)
    return found


def _point(model: Model, width: int) -> tuple:
    x, y = _bv_vars(width)
    return (
        model.eval_bool(BOOLS[0]),
        model.eval_bool(BOOLS[1]),
        model.eval_bv(x),
        model.eval_bv(y),
    )


def _assert_agrees(result, model_of, assertions, width: int) -> None:
    expected = _satisfying_assignments(assertions, width)
    assert result is (smt.Result.SAT if expected else smt.Result.UNSAT)
    if expected:
        assert _point(model_of(), width) in expected


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_solver_is_sat_iff_brute_force_finds_a_model(data):
    width = data.draw(WIDTHS)
    term = data.draw(bool_terms(width, DEPTH))
    solver = smt.Solver()
    solver.add(term)
    _assert_agrees(solver.check(), solver.model, [term], width)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_long_lived_session_agrees_with_brute_force_on_every_query(data):
    # One encoder across a sequence of queries: gate memo hits, a
    # prepare()d conjunct that later checks skip, conjuncts that fold to
    # true (dropped) and to false (UNSAT without a solve).
    width = data.draw(WIDTHS)
    shared = data.draw(bool_terms(width, DEPTH - 1))
    assume(_satisfying_assignments([shared], width))
    session = CheckSession()
    session.prepare((shared,))
    queries = data.draw(
        st.lists(st.lists(bool_terms(width, DEPTH), min_size=1, max_size=3), min_size=2, max_size=5)
    )
    for extra in queries:
        assertions = [shared, *extra]
        _assert_agrees(session.check(assertions), session.model, assertions, width)
        fresh = smt.Solver()
        for a in assertions:
            fresh.add(a)
        _assert_agrees(fresh.check(), fresh.model, assertions, width)


def test_prepare_rejects_a_fragment_that_encodes_to_false():
    # Not the FALSE term, but every literal of it folds to -true: caught
    # before the unit clause could poison the session's clause DB.
    session = CheckSession()
    x = T.BvVar("x", 3)
    with pytest.raises(ValueError, match="unsatisfiable"):
        session.prepare((T.And((T.BoolVar("p"), T.BvUlt(x, T.BvConst(0, 3)))),))
    assert session.check([T.BoolVar("p")]) is smt.Result.SAT


def test_every_node_kind_is_reachable_by_the_strategies():
    # The oracle is only as good as its coverage: a node class added to the
    # encoder's dispatch table must be added to the strategies above too.
    from repro.smt.encode import Encoder

    named = {
        T.BoolVar, T.BoolConst, T.Not, T.And, T.Or, T.Ite, T.BvEq, T.BvUlt, T.BvUle,
        T.BvVar, T.BvConst, T.BvNot, T.BvIte, T.BvAnd, T.BvOr, T.BvXor, T.BvAdd,
    }  # fmt: skip
    assert set(Encoder._NODE) == named
