"""The encoder oracle: CNF ≡ term, in both directions.

``Solver.check()`` must answer SAT exactly when brute-force enumeration with
the independent ``Model._eval`` finds a satisfying assignment, and the model
it returns must be one.  (A proof checker would not catch an encoder bug: it
certifies the CNF, not that the CNF means the term.)  Terms are built with
the raw node classes, not the smart constructors, so constants reach either
operand side of every gate — the encoder's folding paths.

Directed tests pin what sampling cannot: every width-3 operand pair of
the gates and width-8 pairs (first, so a broken gate fails a deterministic
test), the bits of variables and constants, a model deeper than the
recursion limit, hash-seed-free counters and the facade's errors.
"""

from __future__ import annotations

import importlib.util
import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro import smt
from repro.smt import terms as T
from repro.smt.encode import Encoder
from repro.smt.sat import SatSolver
from repro.smt.solver import CheckSession, Model

from tests import draws

DEPTH = 4


_WIDE = random.Random(8)
OPERANDS = {
    3: list(itertools.product(range(8), repeat=2)),
    8: [(0, 0), (255, 255), (255, 1), (128, 128)]
    + [(_WIDE.randrange(256), _WIDE.randrange(256)) for __ in range(60)],
}


@pytest.mark.parametrize("width", OPERANDS)
def test_gates_on_concrete_operands(width):
    # Every width-3 pair, and width-8 pairs with carries out of every bit:
    # with x and y fixed, each atom below is SAT exactly when it holds.
    x, y = smt.bv_var("x", width), smt.bv_var("y", width)
    const = lambda value: smt.bv_const(value % 2**width, width)
    session = CheckSession()
    for a, b in OPERANDS[width]:
        atoms = {
            smt.bv_ult(x, y): a < b,
            smt.bv_ule(x, y): a <= b,
            smt.bv_eq(smt.bv_add(x, y), const(a + b)): True,
            smt.bv_eq(smt.bv_and(x, y), const(a & b)): True,
        }
        for atom, holds in atoms.items():
            answer = session.check([smt.bv_eq(x, const(a)), smt.bv_eq(y, const(b)), atom])
            assert answer is (smt.Result.SAT if holds else smt.Result.UNSAT), (width, a, b, atom)


def _term(rng: random.Random, width: int, depth: int = DEPTH) -> T.Term:
    # Two variables of each sort keep the brute force at most 2^2 * 8^2
    # assignments.
    return draws.bool_term(rng, width, depth, variables=2)


def satisfiable(assertions, width: int) -> bool:
    """Whether some assignment makes every assertion true, by brute force
    with the independent ``Model._eval`` over the Boolean variables and
    the ``width``-bit vectors the assertions mention (the others cannot
    change the answer)."""
    mentioned, stack = set(), list(assertions)
    while stack:
        node = stack.pop()
        if isinstance(node, (T.BoolVar, T.BvVar)):
            mentioned.add(node)
        stack.extend(node.children())
    bools = sorted((v for v in mentioned if isinstance(v, T.BoolVar)), key=lambda v: v.name)
    bvs = sorted((v for v in mentioned if isinstance(v, T.BvVar)), key=lambda v: v.name)
    for bits in itertools.product((False, True), repeat=len(bools)):
        for values in itertools.product(range(2**width), repeat=len(bvs)):
            model = Model(dict(zip(bools, bits)), dict(zip(bvs, values)))
            if all(model.eval_bool(a) for a in assertions):
                return True
    return False


def _assert_agrees(result, model_of, assertions, sat: bool) -> None:
    """``result`` is SAT iff brute force found a model (``sat``), and a
    SAT model makes every assertion true."""
    assert result is (smt.Result.SAT if sat else smt.Result.UNSAT)
    if sat:
        model = model_of()
        assert all(model.eval_bool(a) for a in assertions)


SOLVER_SEEDS, SESSION_SEEDS = range(300), range(300, 450)


def _solver_input(seed: int) -> tuple[int, T.Term]:
    rng = random.Random(seed)
    width = rng.randint(1, 3)
    return width, _term(rng, width)


@pytest.mark.parametrize("seed", SOLVER_SEEDS)
def test_solver_is_sat_iff_brute_force_finds_a_model(seed):
    width, term = _solver_input(seed)
    solver = smt.Solver()
    solver.add(term)
    _assert_agrees(solver.check(), solver.model, [term], satisfiable([term], width))


@pytest.mark.parametrize("seed", SESSION_SEEDS)
def test_long_lived_session_agrees_with_brute_force_on_every_query(seed):
    # One encoder across a sequence of queries: gate memo hits, a
    # prepare()d conjunct that later checks skip, conjuncts that fold to
    # true (dropped) and to false (UNSAT without a solve).
    rng = random.Random(seed)
    width = rng.randint(1, 3)
    shared = _term(rng, width, DEPTH - 1)
    while not satisfiable([shared], width):
        shared = _term(rng, width, DEPTH - 1)
    session = CheckSession()
    session.prepare((shared,))
    for __ in range(rng.randint(2, 5)):
        assertions = [shared, *(_term(rng, width) for __ in range(rng.randint(1, 3)))]
        sat = satisfiable(assertions, width)
        _assert_agrees(session.check(assertions), session.model, assertions, sat)
        fresh = smt.Solver()
        for a in assertions:
            fresh.add(a)
        _assert_agrees(fresh.check(), fresh.model, assertions, sat)


def test_prepare_rejects_a_fragment_that_encodes_to_false():
    # Not the FALSE term, but every literal of it folds to -true: caught
    # before the unit clause could poison the session's clause DB.
    session = CheckSession()
    x = T.BvVar("x", 3)
    with pytest.raises(ValueError, match="unsatisfiable"):
        session.prepare((T.And((T.BoolVar("p"), T.BvUlt(x, T.BvConst(0, 3)))),))
    assert session.check([T.BoolVar("p")]) is smt.Result.SAT


def test_every_node_kind_is_drawn_by_the_solver_seeds():
    # The oracle is only as good as its coverage: a node class added to the
    # encoder's dispatch table must be drawn by the seeds above too.  And
    # the table is the fragment: every concrete term class has exactly one
    # encoder node, and no node outlives its class.
    concrete = {
        cls for cls in vars(T).values()
        if isinstance(cls, type) and issubclass(cls, T.Term)
        and cls is not T.Term and not cls.__name__.startswith("_")
    }  # fmt: skip
    assert concrete == set(Encoder._NODE)
    drawn, stack = set(), [_solver_input(seed)[1] for seed in SOLVER_SEEDS]
    while stack:
        node = stack.pop()
        drawn.add(type(node))
        stack.extend(node.children())
    assert drawn == concrete


def test_model_evaluates_chain_deeper_than_the_recursion_limit():
    # The worklist evaluator is the only one: a term chain no recursive
    # walk could finish must still evaluate, to what Python computes.
    depth = sys.getrecursionlimit() + 500
    x = smt.bv_var("deep_x", 16)
    p = smt.bool_var("deep_p")
    chain, expected, steps = x, 7, [0xFFF3, 0x7FF5, 0xFF0B]
    for i in range(depth):
        step = steps[i % 3]
        chain = smt.bv_add(smt.bv_and(chain, smt.bv_const(step, 16)), x)
        expected = ((expected & step) + 7) & 0xFFFF
    model = Model({p: True}, {x: 7})
    assert model.eval_bv(chain) == expected
    guarded = smt.and_(p, smt.bv_eq(chain, smt.bv_const(expected, 16)))
    assert model.eval_bool(guarded) is True


def test_a_variable_is_fresh_bits_once_and_a_constant_the_true_literal():
    sat = SatSolver()
    encoder = Encoder(sat)
    v = smt.bv_var("v", 4)
    bits = encoder.bits(v)
    assert len(set(bits)) == 4 and all(0 < b <= sat.num_vars and b != encoder.true for b in bits)
    assert encoder.bits(v) == encoder.bv_vars[v] == bits
    assert sat.num_clauses_added == 1  # only the true literal's unit
    assert encoder.bits(smt.bv_const(0b101, 3)) == (encoder.true, -encoder.true, encoder.true)


def test_api_errors():
    encoder = Encoder(SatSolver())
    with pytest.raises(TypeError):
        encoder.literal(smt.bv_var("v", 4))
    with pytest.raises(TypeError):
        encoder.bits(smt.bool_var("p"))
    solver, session = smt.Solver(), CheckSession()
    with pytest.raises(TypeError):
        solver.add(smt.bv_var("x", 4))
    solver.add(smt.false())
    assert solver.check() is session.check([smt.false()]) is smt.Result.UNSAT
    for model in (solver.model, session.model):
        with pytest.raises(RuntimeError):
            model()
    # A degenerate query leaves the session's clause database usable.
    assert session.check([smt.bool_var("p")]) is smt.Result.SAT


_COUNTERS_SCRIPT = """
import sys
from pathlib import Path
from repro.bgp.configjson import config_from_json
from repro.core.workspace import Workspace
from repro.lang.specjson import spec_from_json

config = config_from_json(Path(sys.argv[1]).read_text())
spec = spec_from_json(Path(sys.argv[2]).read_text())
with Workspace(config, ghosts=spec.build_ghosts(config.topology)) as workspace:
    for sspec in spec.safety:
        assert workspace.verify(sspec.property, sspec.build_invariants(config.topology)).passed
    session = workspace.sessions.peek("R2")
    sat = session._sat.stats
    print(session.total_vars, session.total_clauses, sat.decisions, sat.propagations)
"""


def test_encoding_counters_do_not_depend_on_the_hash_seed(tmp_path):
    # Terms hash by identity, so their hashes follow memory layout as well
    # as PYTHONHASHSEED.  Gate keys are sorted ints and no set of terms is
    # iterated into a clause, so one policy-diverse router's session
    # (unique random route maps: the workload that bypasses every term
    # cache) encodes to the same CNF and searches it the same way whatever
    # the seed and wherever the terms land.
    root = Path(__file__).resolve().parents[2]
    spec = importlib.util.spec_from_file_location(
        "e2e_inputs", root / "benchmarks" / "e2e" / "e2e_inputs.py"
    )
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    config_doc, spec_doc, __ = inputs.policy_diverse(8, 0)
    (tmp_path / "config.json").write_text(inputs.dump(config_doc))
    (tmp_path / "spec.json").write_text(inputs.dump(spec_doc))

    def counters(hash_seed: str) -> list[int]:
        env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONHASHSEED": hash_seed}
        done = subprocess.run(
            [sys.executable, "-c", _COUNTERS_SCRIPT, tmp_path / "config.json", tmp_path / "spec.json"],
            env=env, capture_output=True, text=True, check=True, timeout=120,
        )  # fmt: skip
        return [int(field) for field in done.stdout.split()]

    seed0 = counters("0")
    assert seed0 == counters("1")
    assert seed0[0] > 50 and seed0[1] > 50  # a real encoding, not an empty session
