"""Directed and exhaustive tests for the bit-vector side of the encoder."""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import smt
from repro.smt.encode import Encoder
from repro.smt.sat import SatSolver


def _eval_with(term, assignments: dict[str, int], width: int):
    """Evaluate a BV term by fixing variables through the solver."""
    solver = smt.Solver()
    for name, value in assignments.items():
        solver.add(smt.bv_eq(smt.bv_var(name, width), smt.bv_const(value, width)))
    out = smt.bv_var("__out", width)
    solver.add(smt.bv_eq(out, term))
    assert solver.check() is smt.Result.SAT
    return solver.model().eval_bv(out)


WIDTH = 3


@pytest.mark.parametrize("a", range(8))
@pytest.mark.parametrize("b", range(8))
def test_adder_exhaustive_width3(a, b):
    x, y = smt.bv_var("x", WIDTH), smt.bv_var("y", WIDTH)
    got = _eval_with(smt.bv_add(x, y), {"x": a, "y": b}, WIDTH)
    assert got == (a + b) % 8


@pytest.mark.parametrize("a", range(8))
@pytest.mark.parametrize("b", range(8))
def test_ult_exhaustive_width3(a, b):
    x, y = smt.bv_var("x", WIDTH), smt.bv_var("y", WIDTH)
    solver = smt.Solver()
    solver.add(smt.bv_eq(x, smt.bv_const(a, WIDTH)))
    solver.add(smt.bv_eq(y, smt.bv_const(b, WIDTH)))
    solver.add(smt.bv_ult(x, y))
    expected = smt.Result.SAT if a < b else smt.Result.UNSAT
    assert solver.check() is expected


@pytest.mark.parametrize("a", range(8))
@pytest.mark.parametrize("b", range(8))
def test_ule_exhaustive_width3(a, b):
    x, y = smt.bv_var("x", WIDTH), smt.bv_var("y", WIDTH)
    solver = smt.Solver()
    solver.add(smt.bv_eq(x, smt.bv_const(a, WIDTH)))
    solver.add(smt.bv_eq(y, smt.bv_const(b, WIDTH)))
    solver.add(smt.bv_ule(x, y))
    expected = smt.Result.SAT if a <= b else smt.Result.UNSAT
    assert solver.check() is expected


def test_width_one_vectors():
    x = smt.bv_var("bit", 1)
    solver = smt.Solver()
    solver.add(smt.bv_ult(x, smt.bv_const(1, 1)))
    assert solver.check() is smt.Result.SAT
    assert solver.model().eval_bv(x) == 0


def test_bitblaster_names_bits_deterministically():
    # The encoder's bits have no names: a BvVar is one fresh SAT variable
    # per bit, memoised and recorded where model extraction reads it.
    sat = SatSolver()
    encoder = Encoder(sat)
    bits = encoder.bits(smt.bv_var("v", 4))
    assert len(set(bits)) == 4 and all(0 < b <= sat.num_vars for b in bits)
    assert encoder.true not in bits
    again = encoder.bits(smt.bv_var("v", 4))
    assert bits == again  # memoised
    assert encoder.bv_vars[smt.bv_var("v", 4)] == bits
    assert sat.num_clauses_added == 1  # only the true literal's unit


def test_bitblaster_rejects_unknown_nodes():
    encoder = Encoder(SatSolver())
    with pytest.raises(TypeError):
        encoder.literal(smt.bv_var("v", 4))
    with pytest.raises(TypeError):
        encoder.bits(smt.bool_var("p"))


def test_constant_bv_blasts_to_constants():
    encoder = Encoder(SatSolver())
    bits = encoder.bits(smt.bv_const(0b101, 3))
    assert bits == (encoder.true, -encoder.true, encoder.true)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 255),
    st.integers(0, 255),
    st.sampled_from(["and", "add"]),
)
def test_bitwise_ops_width8(a, b, op):
    x, y = smt.bv_var("x", 8), smt.bv_var("y", 8)
    if op == "and":
        term, expected = smt.bv_and(x, y), a & b
    else:
        term, expected = smt.bv_add(x, y), (a + b) & 0xFF
    got = _eval_with(term, {"x": a, "y": b}, 8)
    assert got == expected


def test_nested_ite_chain():
    # The shape symbolic route-map execution produces: nested BvIte.
    c1, c2 = smt.bool_var("c1"), smt.bool_var("c2")
    term = smt.ite(c1, smt.bv_const(1, 8), smt.ite(c2, smt.bv_const(2, 8), smt.bv_const(3, 8)))
    for v1, v2, expected in [
        (True, True, 1),
        (True, False, 1),
        (False, True, 2),
        (False, False, 3),
    ]:
        solver = smt.Solver()
        solver.add(c1 if v1 else smt.not_(c1))
        solver.add(c2 if v2 else smt.not_(c2))
        solver.add(smt.bv_eq(term, smt.bv_const(expected, 8)))
        assert solver.check() is smt.Result.SAT, (v1, v2, expected)
        # And the wrong value is unsatisfiable.
        solver2 = smt.Solver()
        solver2.add(c1 if v1 else smt.not_(c1))
        solver2.add(c2 if v2 else smt.not_(c2))
        solver2.add(smt.bv_eq(term, smt.bv_const(expected % 3 + 1, 8)))
        assert solver2.check() is smt.Result.UNSAT


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
