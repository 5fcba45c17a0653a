"""Session reuse: one encoding and one learnt-clause DB per owner session.

Three layers are pinned here:

* **SatSolver mechanics** — the learnt-DB cap persists across ``solve``
  calls, so a session discharging thousands of checks keeps what it
  learnt;
* **CheckSession / SessionPool** — fragments every check asserts are
  asserted once (``prepare``, idempotent) and skipped per check;
* **Differential equivalence** — a pooled-session run fingerprints as
  the hermetic reference does (oracle cells, ``tests/oracle.py``) on
  random safety configs, liveness problems, and the WAN workload that
  actually learns clauses.  Reuse is a performance policy; it must never
  change an answer.
"""

from __future__ import annotations

import pytest

from repro.core.checks import prepare_session
from repro.core.exec import ExecutionContext
from repro.core.safety import build_universe
from repro.smt import terms as T
from repro.smt.sat import SatSolver
from repro.smt.solver import CheckSession, SessionPool
from repro.workloads.fullmesh import build_full_mesh
from repro.workloads.wan import build_wan
from repro.workloads.wan_properties import (
    verify_ip_reuse_safety_problems,
    verify_peering_problems,
)

from tests import oracle
from tests.core.conftest import mesh_no_transit


# ---------------------------------------------------------------------------
# SatSolver mechanics
# ---------------------------------------------------------------------------


class TestSatWarmStart:
    def test_learnt_cap_persists_across_solve_calls(self):
        # The fixed bug: solve() used to reset the cap to max_learnts_base
        # every call, so a grown DB was re-truncated by each later check.
        solver = SatSolver()
        a = solver.new_var()
        solver.add_clause([a])
        solver._max_learnts = 123456
        assert solver.solve() is True
        assert solver._max_learnts == 123456


# ---------------------------------------------------------------------------
# CheckSession / SessionPool reuse surface
# ---------------------------------------------------------------------------


class TestSessionReuse:
    def test_shared_fragments_skip_per_check_assumptions(self):
        wan = build_wan(regions=2, routers_per_region=3)
        pool = SessionPool()
        context = ExecutionContext(sessions=pool)
        verify_ip_reuse_safety_problems(wan, workspace=context)
        stats = pool.stats()
        # Every discharged check skipped at least the well-formedness
        # fragment it used to ship as an assumption.
        assert stats["shared_skips"] >= stats["checks_discharged"] > 0

    def test_prepare_is_idempotent_and_encodes_nothing_new(self):
        config = build_full_mesh(4)
        ghost, prop, invariants = mesh_no_transit(config)
        universe = build_universe(config, invariants, [prop.predicate], (ghost,))
        pool = SessionPool()
        session = pool.get("R1")
        prepare_session(session, universe)
        encoded = pool.total_encoding()
        asserted = set(session._asserted)
        assert asserted, "well-formedness must contribute a conjunct"
        prepare_session(session, universe)
        assert pool.total_encoding() == encoded
        assert session._asserted == asserted

    def test_prepare_rejects_a_false_fragment(self):
        with pytest.raises(ValueError, match="unsatisfiable"):
            CheckSession().prepare((T.FALSE,))


# ---------------------------------------------------------------------------
# Differential: pooled sessions vs. the hermetic reference (oracle cells)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("model", ["gnp", "ba", "ring"])
@pytest.mark.parametrize("seed", [0, 1])
def test_differential_safety_random_networks(model, seed):
    oracle.agree(oracle.randomnet_case(8, model, seed), "pooled")


@pytest.mark.parametrize("n", [6, 10])
def test_differential_liveness_fullmesh(n):
    oracle.agree(oracle.fullmesh_case(n, "liveness"), "pooled")


def test_differential_wan_with_learnt_traffic():
    # The workload that actually learns (and keeps) clauses: every answer
    # given with a warm learnt DB must equal the hermetic one.
    wan = build_wan(regions=2, routers_per_region=3)
    pool = SessionPool()
    context = ExecutionContext(sessions=pool)
    results = verify_ip_reuse_safety_problems(wan, workspace=context)
    results += verify_peering_problems(wan, workspace=context)
    assert pool.stats()["learnts_kept"] > 0
    for i, (problem, report) in enumerate(results):
        sweep = lambda config, problem=problem: ((problem.ghost,), problem.problem())
        case = oracle.Case(f"wan-sweep-{i}", lambda: wan.config, sweep)
        assert oracle.listing(report) == oracle.listing(oracle.hermetic(case))
