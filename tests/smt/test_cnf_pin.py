"""The encoder's CNF is pinned to the one-``add_clause``-per-clause reference.

:class:`ReferenceEncoder` keeps the gate code the encoder had before gates
went through :meth:`SatSolver.add_gate` and constant operand bits were
folded inline: every gate clause is one :meth:`SatSolver.add_clause` call,
``BvEq`` is ``and_`` over ``-xor`` per bit, ``BvAnd`` is ``and2`` per
bit and ``<`` is the ``ite(xor(a, b), b, result)`` chain.  It is not a
subclass: it owns every node handler, the ripple-carry adder and the
comparisons included, so a change to how the encoder does arithmetic or
compares fails here and not only against the brute force of
``test_encode.py``.  Both encoders must leave identical solvers behind — the same clause
database in the same order, variable count, added-clause count and root
trail — on random terms (with root units asserted before and between
encodings), on the policy-diverse route maps checked as the pipeline
checks them, and on the monolithic baseline's whole-network query.
"""

from __future__ import annotations

import random
from typing import Any, Callable

import pytest

from repro.baselines.minesweeper import MinesweeperVerifier
from repro.bgp.topology import Edge
from repro.core.exec import ExecutionContext
from repro.core.properties import SafetyProperty
from repro.core.safety import run_problem
from repro.lang.ghost import GhostAttribute
from repro.lang.predicates import GhostIs, Not
from repro.smt import solver as solver_module
from repro.smt import terms as T
from repro.smt.encode import Bits, Encoder, conjuncts
from repro.smt.sat import SatSolver
from repro.workloads.fullmesh import build_full_mesh
from tests import draws, oracle


class ReferenceEncoder:
    """The plain encoding, owning its whole dispatch: one ``add_clause`` per
    clause, no inline folds, no shared constants, children encoded in the
    encoder's order.  It shares no node or gate code with :class:`Encoder`,
    so a change to the encoder's arithmetic or comparisons shows here."""

    def __init__(self, sat: SatSolver) -> None:
        self.sat = sat
        self.true = sat.new_var()
        sat.add_clause([self.true])
        self.memo: dict[T.Term, Any] = {}
        self.bool_vars: dict[T.Term, int] = {}
        self.bv_vars: dict[T.Term, Bits] = {}
        self._ands: dict[Bits, int] = {}
        self._xors: dict[tuple[int, int], int] = {}
        self._ites: dict[tuple[int, int, int], int] = {}

    # -- entry points, as CheckSession and Solver call them ---------------

    def literal(self, term: T.Term) -> int:
        self._encode(term)
        return self.memo[term]

    def clause(self, conjunct: T.Term) -> list[int]:
        if isinstance(conjunct, T.Or):
            return [self.literal(a) for a in conjunct.args]
        return [self.literal(conjunct)]

    def assert_true(self, term: T.Term) -> None:
        for conjunct in conjuncts(term):
            self.sat.add_clause(self.clause(conjunct))

    def _encode(self, root: T.Term) -> None:
        # Post-order, the missing children of a node last to first.
        memo = self.memo
        stack: list[tuple[T.Term, bool]] = [(root, False)]
        while stack:
            t, ready = stack.pop()
            if ready:
                memo[t] = self._NODE[type(t)](self, t)
            elif t not in memo:
                stack.append((t, True))
                stack.extend((k, False) for k in t.children() if k not in memo)

    # -- gates -------------------------------------------------------------

    def and_(self, lits) -> int:
        true = self.true
        seen: set[int] = set()
        for lit in lits:
            if lit == true:
                continue
            if lit == -true or -lit in seen:
                return -true
            seen.add(lit)
        if not seen:
            return true
        key = tuple(sorted(seen))
        if len(key) == 1:
            return key[0]
        v = self._ands.get(key)
        if v is None:
            v = self._ands[key] = self.sat.new_var()
            add = self.sat.add_clause
            for lit in key:
                add([-v, lit])
            add([v, *[-lit for lit in key]])
        return v

    def and2(self, a: int, b: int) -> int:
        return self.and_((a, b))

    def xor(self, a: int, b: int) -> int:
        true = self.true
        if abs(a) == true:
            return -b if a > 0 else b
        if abs(b) == true:
            return -a if b > 0 else a
        if abs(a) == abs(b):
            return -true if a == b else true
        flip = (a < 0) != (b < 0)
        a, b = abs(a), abs(b)
        key = (a, b) if a < b else (b, a)
        v = self._xors.get(key)
        if v is None:
            v = self._xors[key] = self.sat.new_var()
            add = self.sat.add_clause
            add([-v, a, b])
            add([-v, -a, -b])
            add([v, -a, b])
            add([v, a, -b])
        return -v if flip else v

    def ite(self, c: int, t: int, e: int) -> int:
        true = self.true
        if c == true or t == e:
            return t
        if c == -true:
            return e
        if t == -e:
            return self.xor(c, e)
        if t == true or t == c:
            return -self.and2(-c, -e)
        if t == -true or t == -c:
            return self.and2(-c, e)
        if e == true or e == -c:
            return -self.and2(c, -t)
        if e == -true or e == c:
            return self.and2(c, t)
        if c < 0:
            c, t, e = -c, e, t
        key = (c, t, e)
        v = self._ites.get(key)
        if v is None:
            v = self._ites[key] = self.sat.new_var()
            add = self.sat.add_clause
            add([-v, -c, t])
            add([-v, c, e])
            add([v, -c, -t])
            add([v, c, -e])
        return v

    # -- nodes -------------------------------------------------------------

    def _operands(self, t: T.Term):
        return zip(self.memo[t.lhs], self.memo[t.rhs])

    def _ult(self, a: Bits, b: Bits) -> int:
        result = -self.true
        for ai, bi in zip(a, b):  # LSB -> MSB: the highest differing bit decides
            result = self.ite(self.xor(ai, bi), bi, result)
        return result

    def _bv_add(self, t: T.BvAdd) -> Bits:
        # Ripple carry modulo 2**width: no carry out of the top bit.
        carry = -self.true
        out = []
        for i, (a, b) in enumerate(self._operands(t)):
            differ = self.xor(a, b)
            out.append(self.xor(differ, carry))
            if i < t.width - 1:
                carry = self.ite(differ, carry, a)
        return tuple(out)

    def _bv_var(self, t: T.BvVar) -> Bits:
        bits = self.bv_vars[t] = tuple(self.sat.new_var() for _ in range(t.width))
        return bits

    def _bool_var(self, t: T.BoolVar) -> int:
        var = self.bool_vars[t] = self.sat.new_var()
        return var

    def _bv_const(self, t: T.BvConst) -> Bits:
        true = self.true
        return tuple(true if (t.value >> i) & 1 else -true for i in range(t.width))

    _NODE: dict[type, Callable[..., Any]] = {
        T.BoolConst: lambda self, t: self.true if t.value else -self.true,
        T.BoolVar: _bool_var,
        T.Not: lambda self, t: -self.memo[t.arg],
        T.And: lambda self, t: self.and_([self.memo[a] for a in t.args]),
        T.Or: lambda self, t: -self.and_([-self.memo[a] for a in t.args]),
        T.Ite: lambda self, t: self.ite(self.memo[t.cond], self.memo[t.then], self.memo[t.els]),
        T.BvEq: lambda self, t: self.and_([-self.xor(a, b) for a, b in self._operands(t)]),
        T.BvUlt: lambda self, t: self._ult(self.memo[t.lhs], self.memo[t.rhs]),
        T.BvUle: lambda self, t: -self._ult(self.memo[t.rhs], self.memo[t.lhs]),
        T.BvVar: _bv_var,
        T.BvConst: _bv_const,
        T.BvAnd: lambda self, t: tuple(self.and2(a, b) for a, b in self._operands(t)),
        T.BvAdd: _bv_add,
        T.BvIte: lambda self, t: tuple(
            self.ite(self.memo[t.cond], a, b) for a, b in zip(self.memo[t.then], self.memo[t.els])
        ),
    }


def _state(sat: SatSolver) -> tuple:
    return (sat.clauses, sat.num_vars, sat.num_clauses_added, sat.trail, sat.ok)


# ---------------------------------------------------------------------------
# Random terms over small widths (``tests/draws.py``)
# ---------------------------------------------------------------------------


def _root_unit(rng: random.Random, width: int) -> T.Term:
    """A conjunct that lands as root units: a variable's value or sign."""
    if rng.random() < 0.5:
        var = T.BoolVar(rng.choice("pqr"))
        return var if rng.random() < 0.5 else T.Not(var)
    return T.BvEq(T.BvVar(rng.choice("xyz"), width), T.BvConst(rng.randrange(2**width), width))


def _script(seed: int) -> list[tuple[str, T.Term]]:
    """Encodings as a check session makes them (``literal``), with
    ``assert_true`` units before, between and after; a third of the
    scripts open with root units."""
    rng = random.Random(seed)
    width = rng.randint(1, 4)
    steps: list[tuple[str, T.Term]] = []
    if seed % 3 == 0:
        steps += [("assert", _root_unit(rng, width)) for _ in range(rng.randint(1, 3))]
    for _ in range(rng.randint(1, 6)):
        roll = rng.random()
        if roll < 0.25:
            steps.append(("assert", _root_unit(rng, width)))
        elif roll < 0.4:
            steps.append(("assert", draws.bool_term(rng, width, 3)))
        else:
            steps.append(("literal", draws.bool_term(rng, width, 4)))
    return steps


def _replay(encoder_type: type, steps: list[tuple[str, T.Term]]) -> tuple:
    sat = SatSolver()
    encoder = encoder_type(sat)
    answers = []
    for op, term in steps:
        if op == "assert":
            encoder.assert_true(term)
            answers.append(None)
        else:
            answers.append(encoder.literal(term))
    return answers, _state(sat)


@pytest.mark.parametrize("block", range(4))
def test_random_terms_encode_to_the_reference_cnf(block):
    for seed in range(block * 250, (block + 1) * 250):
        steps = _script(seed)
        assert _replay(Encoder, steps) == _replay(ReferenceEncoder, steps), (seed, steps)


def test_root_units_reach_the_gate_path():
    # The differential above only pins the root-simplification branches if
    # gates really meet root-assigned inputs: a unit on x, then x & y == x.
    x, y = T.BvVar("x", 3), T.BvVar("y", 3)
    steps = [
        ("assert", T.BvEq(x, T.BvConst(5, 3))),
        ("literal", T.BvEq(T.BvAnd(x, y), T.BvAdd(y, x))),
        ("literal", T.BvUlt(T.BvAdd(x, y), y)),
    ]
    answers, state = _replay(Encoder, steps)
    assert (answers, state) == _replay(ReferenceEncoder, steps)
    assert len(state[3]) > 4  # x's bits and the gates over them, at the root


# ---------------------------------------------------------------------------
# The pipeline's own encodings
# ---------------------------------------------------------------------------


def _solvers_built(
    monkeypatch: pytest.MonkeyPatch, encoder_type: type, run: Callable[[], object]
) -> tuple[list[SatSolver], object]:
    """Every SAT solver ``run`` encodes into, under ``encoder_type``."""
    built: list[SatSolver] = []

    def make(sat: SatSolver) -> Any:
        built.append(sat)
        return encoder_type(sat)

    with monkeypatch.context() as patch:
        patch.setattr(solver_module, "Encoder", make)
        result = run()
    return built, result


def _assert_same_solvers(monkeypatch: pytest.MonkeyPatch, run: Callable[[], object]) -> int:
    new, new_result = _solvers_built(monkeypatch, Encoder, run)
    ref, ref_result = _solvers_built(monkeypatch, ReferenceEncoder, run)
    assert len(new) == len(ref) > 0
    for a, b in zip(new, ref):
        assert _state(a) == _state(b)
        assert a.stats == b.stats
    assert oracle.fingerprint(new_result) == oracle.fingerprint(ref_result)
    return sum(sat.num_clauses_added for sat in new)


def test_policy_diverse_checks_encode_to_the_reference_cnf(monkeypatch):
    # Every session of a from-scratch run on the seed-0 policy-diverse
    # network: well-formedness prepared as root clauses, then one
    # transferred route map per filter check, asserted as _run_filter does.
    # 24 routers (the benchmark runs 100): 192 unique route maps, and the
    # test stays well under a second.
    case = oracle.policy_diverse_case(0, n=24)
    config = case.network()
    ghosts, problem = case.problem(config)
    clauses = _assert_same_solvers(
        monkeypatch, lambda: run_problem(ExecutionContext(), problem, config, ghosts)
    )
    assert clauses > 10_000


def test_monolithic_baseline_encodes_to_the_reference_cnf(monkeypatch):
    config = build_full_mesh(4)
    ghost = GhostAttribute.source_tracker("FromE1", config.topology, [Edge("E1", "R1")])
    prop = SafetyProperty(
        location=Edge("R2", "E2"), predicate=Not(GhostIs("FromE1")), name="no-transit"
    )

    def run() -> object:
        return MinesweeperVerifier(config, ghosts=(ghost,)).verify(prop)

    new, new_result = _solvers_built(monkeypatch, Encoder, run)
    ref, ref_result = _solvers_built(monkeypatch, ReferenceEncoder, run)
    assert len(new) == len(ref) == 1
    assert _state(new[0]) == _state(ref[0])
    assert new[0].stats == ref[0].stats
    assert new_result.verified and ref_result.verified
