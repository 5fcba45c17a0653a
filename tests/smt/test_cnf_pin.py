"""The encoder's CNF is pinned to the one-``add_clause``-per-clause reference.

:class:`ReferenceEncoder` keeps the gate code the encoder had before gates
went through :meth:`SatSolver.add_gate` and constant operand bits were
folded inline: every gate clause is one :meth:`SatSolver.add_clause` call,
``BvEq`` is ``and_`` over ``-xor`` per bit, ``BvAnd`` is ``and2`` per
bit and ``<`` is the ``ite(xor(a, b), b, result)`` chain.
Both encoders must leave identical solvers behind — the same clause
database in the same order, variable count, added-clause count and root
trail — on random terms (with root units asserted before and between
encodings), on the policy-diverse route maps checked as the pipeline
checks them, and on the monolithic baseline's whole-network query.
"""

from __future__ import annotations

import random
from typing import Callable

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
from repro.smt.encode import Bits, Encoder
from repro.smt.sat import SatSolver
from repro.workloads.fullmesh import build_full_mesh
from tests import oracle


class ReferenceEncoder(Encoder):
    """The encoder with one ``add_clause`` per clause and no inline folds."""

    def _and_gate(self, key: Bits) -> int:
        v = self._ands.get(key)
        if v is None:
            v = self._ands[key] = self.sat.new_var()
            add = self.sat.add_clause
            for lit in key:
                add([-v, lit])
            add([v, *[-lit for lit in key]])
        return v

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

    def _bv_eq(self, t: T.BvEq) -> int:
        xor = self.xor
        return self.and_([-xor(a, b) for a, b in self._operands(t)])

    def _ult(self, a: Bits, b: Bits) -> int:
        result = -self.true
        for ai, bi in zip(a, b):
            result = self.ite(self.xor(ai, bi), bi, result)
        return result

    def _bv_and(self, t: T.BvAnd) -> Bits:
        and2 = self.and2
        return tuple(and2(a, b) for a, b in self._operands(t))

    _NODE = {
        **Encoder._NODE,
        T.BvEq: _bv_eq,
        T.BvAnd: _bv_and,
    }


def _state(sat: SatSolver) -> tuple:
    return (sat.clauses, sat.num_vars, sat.num_clauses_added, sat.trail, sat.ok)


# ---------------------------------------------------------------------------
# Random terms over small widths
# ---------------------------------------------------------------------------

_BV_NODES = (T.BvAnd, T.BvAdd)
_CMP_NODES = (T.BvEq, T.BvUlt, T.BvUle)


def _bv(rng: random.Random, width: int, depth: int) -> T.Term:
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        if rng.random() < 0.5:
            return T.BvConst(rng.randrange(2**width), width)
        return T.BvVar(rng.choice("xyz"), width)
    if roll < 0.5:
        return T.BvIte(
            _bool(rng, width, depth - 1), _bv(rng, width, depth - 1), _bv(rng, width, depth - 1)
        )
    node = rng.choice(_BV_NODES)
    return node(_bv(rng, width, depth - 1), _bv(rng, width, depth - 1))


def _bool(rng: random.Random, width: int, depth: int) -> T.Term:
    roll = rng.random()
    if depth == 0 or roll < 0.15:
        if rng.random() < 0.2:
            return T.BoolConst(rng.random() < 0.5)
        return T.BoolVar(rng.choice("pqr"))
    if roll < 0.25:
        return T.Not(_bool(rng, width, depth - 1))
    if roll < 0.4:
        node = T.And if rng.random() < 0.5 else T.Or
        return node(tuple(_bool(rng, width, depth - 1) for _ in range(rng.randint(2, 3))))
    if roll < 0.5:
        return T.Ite(*(_bool(rng, width, depth - 1) for _ in range(3)))
    node = rng.choice(_CMP_NODES)
    return node(_bv(rng, width, depth - 1), _bv(rng, width, depth - 1))


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
            steps.append(("assert", _bool(rng, width, 3)))
        else:
            steps.append(("literal", _bool(rng, width, 4)))
    return steps


def _replay(encoder_type: type[Encoder], steps: list[tuple[str, T.Term]]) -> tuple:
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
    monkeypatch: pytest.MonkeyPatch, encoder_type: type[Encoder], run: Callable[[], object]
) -> tuple[list[SatSolver], object]:
    """Every SAT solver ``run`` encodes into, under ``encoder_type``."""
    built: list[SatSolver] = []

    def make(sat: SatSolver) -> Encoder:
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
