"""Wall-clock deadline tests: hung checks, run budgets, and exit codes.

A verification run must never hang on one pathological check: with
``deadline_s`` a hung check comes back UNKNOWN with reason ``timeout``
inside the budget, and with a wall budget the run returns partial
results (remaining checks UNKNOWN with reason ``wall-budget``) instead
of running forever — on the serial path and, with ``parallel`` > 1,
inside the process map's workers alike.  Every limit is set on the
:class:`ExecutionContext` (or the ``Workspace``, which is one) and read
from it by the scheduler.  The hang is injected, so these
tests are fast and deterministic — no real runaway SAT search needed.
"""

from __future__ import annotations

import itertools
import time

import pytest

from repro.bgp.configjson import config_to_json
from repro.bgp.policy import RouteMap, RouteMapClause
from repro.bgp.route import Community
from repro.cli import EXIT_DEGRADED, main
from repro.core.checks import implication_check
from repro.core.exec import ExecutionContext
from repro.core.exec.pool import run_checks_in_processes
from repro.core.report import DegradationReport
from repro.core.safety import build_universe, verify_safety
from repro.core.workspace import Workspace
from repro.lang.predicates import AllOf, AnyOf, HasCommunity, Not
from repro.lang.specjson import SafetySpec, VerificationSpec, location_to_str, spec_to_json
from repro.smt.sat import SatSolver
from repro.smt.solver import CheckSession, Result, SessionPool, Solver
from repro.smt.terms import BoolVar, not_, or_
from repro.testing import faults
from repro.testing.faults import FaultPlan
from repro.workloads.fullmesh import build_full_mesh
from repro.workloads.wan import build_wan
from repro.workloads.wan_properties import ip_reuse_safety_problem

from tests.core.conftest import fullmesh_problem, run_batch, safety_pieces


@pytest.fixture(autouse=True)
def _clean_faults():
    faults.reset()
    yield
    faults.reset()


# ---------------------------------------------------------------------------
# Solver-level deadlines
# ---------------------------------------------------------------------------


def test_solver_expired_deadline_returns_unknown_with_timeout_reason():
    solver = Solver()
    x = BoolVar("x")
    solver.add(x)
    result = solver.check(deadline_s=-1.0)
    assert result.name == "UNKNOWN"
    assert solver.stats.unknown_reason == "timeout"
    # The session is not poisoned: the same solver decides normally next.
    assert solver.check().name == "SAT"
    assert solver.stats.unknown_reason is None


def _pigeonhole():
    """Pigeonhole 8 -> 7 as clauses over variables 1..56."""
    holes = [[7 * pigeon + hole + 1 for hole in range(7)] for pigeon in range(8)]
    return holes + [[-a, -b] for hole in zip(*holes) for a, b in itertools.combinations(hole, 2)]


def _as_terms(clauses):
    literal = lambda lit: BoolVar(f"p{lit}") if lit > 0 else not_(BoolVar(f"p{-lit}"))
    return [or_(*map(literal, clause)) for clause in clauses]


def _sat_solve(clauses, deadline_s):
    solver = SatSolver()
    for __ in range(56):
        solver.new_var()
    for clause in clauses:
        solver.add_clause(clause)
    return solver.solve(deadline=time.monotonic() + deadline_s), solver.stop_reason


def _solver_check(clauses, deadline_s):
    solver = Solver()
    for term in _as_terms(clauses):
        solver.add(term)
    return solver.check(deadline_s=deadline_s), solver.stats.unknown_reason


def _session_check(clauses, deadline_s):
    session = CheckSession()
    return session.check(_as_terms(clauses), deadline_s=deadline_s), session.stats.unknown_reason


# Every entry point that takes a wall deadline, and what it answers when the
# deadline stops the search.
CDCL_ENTRY_POINTS = {
    "SatSolver.solve": (_sat_solve, None),
    "Solver.check": (_solver_check, Result.UNKNOWN),
    "CheckSession.check": (_session_check, Result.UNKNOWN),
}


@pytest.mark.parametrize("solve, stopped", CDCL_ENTRY_POINTS.values(), ids=CDCL_ENTRY_POINTS)
def test_cdcl_search_stops_at_its_wall_deadline(solve, stopped):
    # Pigeonhole 8 -> 7 takes about a second of conflict-heavy search to
    # refute, with no conflict budget: a search loop that never samples
    # the clock, or a layer that drops the deadline, answers UNSAT.
    answer, reason = solve(_pigeonhole(), 0.05)
    assert answer is stopped
    assert reason == "timeout"


# ---------------------------------------------------------------------------
# Hung checks under a per-check deadline
# ---------------------------------------------------------------------------


def test_hung_check_times_out_within_budget_and_rest_completes():
    config, ghost, prop, invariants = fullmesh_problem(4)
    universe, checks = safety_pieces(config, ghost, prop, invariants)
    victim = str(checks[0])
    faults.install(FaultPlan(hang_check_match=victim))

    start = time.monotonic()
    outcomes = run_batch(
        checks, config, universe, (ghost,), context=ExecutionContext(deadline_s=0.2)
    )
    elapsed = time.monotonic() - start

    # The hung check came back UNKNOWN with the precise reason, well
    # inside its budget (the injected hang sleeps only to the deadline).
    assert elapsed < 5.0
    hung = outcomes[0]
    assert hung.unknown
    assert hung.unknown_reason == "timeout"
    # Every other check was unaffected.
    assert all(o.passed for o in outcomes[1:])


def test_verify_safety_deadline_produces_timeout_unknowns():
    config, ghost, prop, invariants = fullmesh_problem(4)
    faults.install(FaultPlan(hang_check_match="import check at R3"))
    report = verify_safety(
        config, prop, invariants, ghosts=(ghost,), context=ExecutionContext(deadline_s=0.2)
    )
    assert not report.passed
    assert report.unknowns
    assert report.unknown_reason_counts.get("timeout", 0) >= 1
    assert not report.failures  # undecided, not refuted


# ---------------------------------------------------------------------------
# Wall budget: partial results, never a hang
# ---------------------------------------------------------------------------


def test_exhausted_wall_budget_returns_partial_results():
    config, ghost, prop, invariants = fullmesh_problem(4)
    # Delay every check slightly so a tiny budget expires mid-run.
    faults.install(FaultPlan(delay_check_s=0.05))
    report = verify_safety(
        config, prop, invariants, ghosts=(ghost,),
        context=ExecutionContext(wall_budget_s=0.12),
    )
    reasons = report.unknown_reason_counts
    assert reasons.get("wall-budget", 0) >= 1
    # Partial, not empty: the checks that ran before expiry are decided.
    decided = [o for o in report.iter_outcomes() if not o.unknown]
    assert decided
    assert all(o.passed for o in decided)


def test_workspace_wall_budget_spans_a_run():
    config, ghost, prop, invariants = fullmesh_problem(4)
    ws = Workspace(config, ghosts=(ghost,), wall_budget_s=1e-6)
    with ws:
        report = ws.verify(prop, invariants)
    assert not report.passed
    assert set(report.unknown_reason_counts) == {"wall-budget"}


def test_process_map_skips_every_check_after_an_expired_run_deadline():
    config, ghost, prop, invariants = fullmesh_problem(4)
    universe, checks = safety_pieces(config, ghost, prop, invariants)
    # Straight at the process map (the scheduler would not even fork for
    # an expired batch): the workers themselves must honour the deadline.
    outcomes = run_checks_in_processes(
        checks, config, universe, (ghost,), None, 2, None, time.monotonic() - 1.0
    )
    if outcomes is None:
        pytest.skip("process pools unavailable in this environment")
    assert [o.check for o in outcomes] == checks
    assert all(o.unknown and o.unknown_reason == "wall-budget" for o in outcomes)
    assert all(o.stats.num_vars == 0 for o in outcomes)  # nothing was encoded


def test_process_map_wall_budget_expiring_mid_run_returns_partial_results():
    config, ghost, prop, invariants = fullmesh_problem(5)
    universe, checks = safety_pieces(config, ghost, prop, invariants)
    serial = run_batch(checks, config, universe, (ghost,))
    # ~0.1 s per check: several seconds of work even on two workers, so a
    # 0.6 s budget expires mid-run with checks decided on both sides of it.
    faults.install(FaultPlan(delay_check_s=0.1))
    degradation = DegradationReport()
    start = time.monotonic()
    outcomes = run_batch(
        checks, config, universe, (ghost,),
        context=ExecutionContext(parallel=2, wall_budget_s=0.6),
        degradation=degradation,
    )
    elapsed = time.monotonic() - start
    # The budget was honoured inside the workers, not by going serial.
    assert degradation.serial_fallbacks == 0
    assert elapsed < 0.1 * len(checks) / 2
    # Checks reached after expiry are skipped; the (at most one per
    # worker) check in flight at expiry times out, as on the serial path.
    reasons = [o.unknown_reason for o in outcomes if o.unknown]
    assert reasons.count("wall-budget") >= 1
    assert reasons.count("timeout") <= 2
    assert set(reasons) <= {"wall-budget", "timeout"}
    decided = [(o, ref) for o, ref in zip(outcomes, serial) if not o.unknown]
    assert decided
    assert all(o.check == ref.check and o.passed == ref.passed for o, ref in decided)


# ---------------------------------------------------------------------------
# CLI: flags parse, degraded runs exit EXIT_DEGRADED
# ---------------------------------------------------------------------------

CONFIG_TEXT = """
external ISP1 as 100
external ISP2 as 200
router R1 as 65000
  neighbor ISP1 as 100
    import route-map ISP1-IN
  neighbor R2 as 65000
router R2 as 65000
  neighbor ISP2 as 200
    export route-map ISP2-OUT
  neighbor R1 as 65000
route-map ISP1-IN
  clause 10 permit
    add community 100:1
route-map ISP2-OUT
  clause 10 deny
    match community 100:1
  clause 20 permit
"""

SPEC_JSON = """{
  "ghosts": [{"name": "FromISP1", "kind": "source", "sources": ["ISP1->R1"]}],
  "safety": [{
    "name": "no-transit",
    "location": "R2->ISP2",
    "predicate": {"kind": "not", "inner": {"kind": "ghost", "name": "FromISP1"}},
    "invariants": {
      "default": {
        "kind": "implies",
        "antecedent": {"kind": "ghost", "name": "FromISP1"},
        "consequent": {"kind": "community", "community": "100:1"}
      },
      "overrides": {
        "R2->ISP2": {"kind": "not", "inner": {"kind": "ghost", "name": "FromISP1"}}
      }
    }
  }]
}"""


@pytest.fixture
def cli_inputs(tmp_path):
    config = tmp_path / "network.cfg"
    config.write_text(CONFIG_TEXT)
    spec = tmp_path / "spec.json"
    spec.write_text(SPEC_JSON)
    return str(config), str(spec)


def test_cli_passes_cleanly_with_generous_deadlines(cli_inputs):
    config, spec = cli_inputs
    assert main(
        ["verify", config, spec, "--deadline", "30", "--wall-budget", "300"]
    ) == 0


def test_cli_exhausted_wall_budget_exits_degraded(cli_inputs, capsys):
    config, spec = cli_inputs
    code = main(["verify", config, spec, "--wall-budget", "0.000001"])
    assert code == EXIT_DEGRADED
    out = capsys.readouterr().out
    assert "UNKNOWN (wall budget exhausted)" in out


def test_cli_jobs_honour_the_wall_budget(cli_inputs, capsys):
    # --jobs N --wall-budget S must not silently become a serial run, and
    # must still report the budget's UNKNOWNs with exit 3.
    config, spec = cli_inputs
    faults.install(FaultPlan(delay_check_s=0.2))
    start = time.monotonic()
    code = main(["verify", config, spec, "--jobs", "2", "--wall-budget", "0.5"])
    assert time.monotonic() - start < 5.0
    assert code == EXIT_DEGRADED
    out = capsys.readouterr().out
    assert "UNKNOWN (wall budget exhausted)" in out
    assert "degraded execution" not in out


def test_cli_hung_check_under_deadline_exits_degraded(cli_inputs, capsys):
    config, spec = cli_inputs
    faults.install(FaultPlan(hang_check_match="import check at R1"))
    start = time.monotonic()
    code = main(["verify", config, spec, "--deadline", "0.2"])
    assert time.monotonic() - start < 10.0
    assert code == EXIT_DEGRADED
    assert "UNKNOWN (deadline exceeded)" in capsys.readouterr().out


def test_cli_jobs_honour_the_deadline(cli_inputs, capsys):
    # The per-check deadline reaches the workers of the process map too.
    config, spec = cli_inputs
    faults.install(FaultPlan(hang_check_match="import check at R1"))
    start = time.monotonic()
    code = main(["verify", config, spec, "--jobs", "2", "--deadline", "0.2"])
    assert time.monotonic() - start < 10.0
    assert code == EXIT_DEGRADED
    out = capsys.readouterr().out
    assert "UNKNOWN (deadline exceeded)" in out
    assert "degraded execution" not in out


def test_cli_rejects_nonpositive_durations(cli_inputs):
    config, spec = cli_inputs
    with pytest.raises(SystemExit):
        main(["verify", config, spec, "--deadline", "0"])
    with pytest.raises(SystemExit):
        main(["verify", config, spec, "--wall-budget", "-5"])


# ---------------------------------------------------------------------------
# A degraded run must not poison the cache
# ---------------------------------------------------------------------------
#
# ``deadline_s``/``wall_budget_s`` are not part of an entry's fingerprint,
# so an UNKNOWN they caused answers for that run only: the group is
# reported, saved — and re-run by the next run, in-process or cache-loaded.


def _consulted(out: str) -> tuple[int, int]:
    """(consulted, total) from the CLI's ``cache: consulted N of M`` line."""
    words = out[out.index("consulted") :].split()
    return int(words[1]), int(words[3])


def test_wall_budget_unknowns_are_rerun_in_process_and_after_a_load(tmp_path):
    config, ghost, prop, invariants = fullmesh_problem(4)
    # Owner groups run in the order R1, R2, R3, R4, implication.  Stalling
    # R3's first check past the budget leaves R1 and R2 decided and
    # everything from R3 on time-bound.
    faults.install(FaultPlan(delay_check_s=0.5, delay_check_match="at R3"))
    ws = Workspace(config, ghosts=(ghost,), wall_budget_s=0.3)
    degraded = ws.verify(prop, invariants)
    faults.reset()
    assert set(degraded.unknown_reason_counts) <= {"wall-budget", "timeout"}
    (entry,) = ws.entries
    tracker = entry.tracker
    time_bound = sum(len(tracker._groups[key].stats) for key in tracker._time_bound)
    assert 0 < len(degraded.unknowns) <= time_bound < degraded.num_checks

    # The degraded outcomes are saved (the decided ones are worth keeping)...
    path = tmp_path / "workspace.lyc"
    ws.save(path)
    # ...and both the live and the loaded tracker re-run exactly the
    # time-bound groups once the budget is lifted; nothing else.
    ws.run_deadline = None
    loaded = Workspace.load(path, config, (ghost,))
    for workspace in (ws, loaded):
        report = workspace.verify(prop, invariants)
        assert report.passed
        assert report.rerun_checks == time_bound
        assert report.reused_checks == report.num_checks - time_bound
        # Repaired: a third run has nothing left to re-run.
        assert workspace.verify(prop, invariants).rerun_checks == 0


def test_cli_wall_budget_unknowns_do_not_poison_the_cache(
    cli_inputs, tmp_path, capsys
):
    config, spec = cli_inputs
    cached = ["verify", config, spec, "--cache", str(tmp_path / "cache")]
    assert main([*cached, "--wall-budget", "0.000001"]) == EXIT_DEGRADED
    capsys.readouterr()

    # No budget: every (wall-budget UNKNOWN) group is re-run, the verdict is
    # the uncached one, and the repaired cache is saved again...
    assert main(cached) == 0
    out = capsys.readouterr().out
    assert "PASSED" in out and "UNKNOWN" not in out
    consulted, total = _consulted(out)
    assert consulted == total > 0
    # ...so a third invocation re-runs nothing.
    assert main(cached) == 0
    assert _consulted(capsys.readouterr().out) == (0, total)


def test_cli_deadline_unknowns_do_not_poison_the_cache(cli_inputs, tmp_path, capsys):
    config, spec = cli_inputs
    cached = ["verify", config, spec, "--cache", str(tmp_path / "cache")]
    faults.install(FaultPlan(hang_check_match="import check at R1"))
    assert main([*cached, "--deadline", "0.2"]) == EXIT_DEGRADED
    assert "UNKNOWN (deadline exceeded)" in capsys.readouterr().out
    faults.reset()

    # Only R1's owner group held a timeout: it alone is re-run.
    assert main(cached) == 0
    out = capsys.readouterr().out
    assert "PASSED" in out and "UNKNOWN" not in out
    consulted, total = _consulted(out)
    assert 0 < consulted < total
    assert main(cached) == 0
    assert _consulted(capsys.readouterr().out) == (0, total)


def test_a_loaded_workspace_runs_under_the_limits_it_was_opened_with(tmp_path):
    config, ghost, prop, invariants = fullmesh_problem(4)
    path = tmp_path / "workspace.lyc"
    with Workspace(config, ghosts=(ghost,)) as ws:
        assert ws.verify(prop, invariants).passed
        ws.save(path)
    opened = time.monotonic()
    loaded = Workspace.load(
        path, config, (ghost,), parallel=2, deadline_s=0.2, wall_budget_s=60.0
    )
    assert (loaded.parallel, loaded.deadline_s) == (2, 0.2)
    assert opened + 60.0 <= loaded.run_deadline <= time.monotonic() + 60.0
    # ...and they bite: an edit to R3 re-runs its group, where a check hangs.
    edited = build_full_mesh(4)
    session = edited.routers["R3"].neighbors["R1"]
    session.import_map = RouteMap("R3-IN", (RouteMapClause(10),))
    faults.install(FaultPlan(hang_check_match="import check at R3"))
    loaded.apply(edited)
    (entry,) = loaded.reverify()
    assert "timeout" in entry.report.unknown_reason_counts
    spent = Workspace.load(path, config, (ghost,), wall_budget_s=1e-9)
    spent.apply(edited)
    assert set(spent.reverify()[0].report.unknown_reason_counts) == {"wall-budget"}


def test_cli_cache_loaded_workspace_honours_the_deadline(cli_inputs, tmp_path, capsys):
    config, spec = cli_inputs
    edited = tmp_path / "edited.cfg"
    edited.write_text(
        CONFIG_TEXT.replace("add community 100:1", "add community 100:1\n    set local-pref 200")
    )
    cached = ["reverify", config, str(edited), spec, "--cache", str(tmp_path / "cache")]
    assert main(cached) == 0
    capsys.readouterr()
    # The second invocation loads the base outcomes and re-runs only R1's
    # group — under the --deadline it was started with.
    faults.install(FaultPlan(hang_check_match="import check at R1"))
    assert main([*cached, "--deadline", "0.2"]) == EXIT_DEGRADED
    out = capsys.readouterr().out
    assert "base run skipped" in out
    assert "UNKNOWN (deadline exceeded)" in out


def test_conflict_budget_unknowns_are_reused(tmp_path):
    """The conflict budget *is* part of the entry fingerprint, so a
    ``conflicts`` UNKNOWN is a deterministic answer to the registered
    problem: it stays cached, in-process and across save/load."""
    wan = build_wan(2, 3)
    problem = ip_reuse_safety_problem(wan, 0)
    ws = Workspace(wan.config, ghosts=(problem.ghost,), conflict_budget=1)
    first = ws.verify(problem.properties[0], problem.invariants)
    assert set(first.unknown_reason_counts) == {"conflicts"}

    path = tmp_path / "workspace.lyc"
    ws.save(path)
    loaded = Workspace.load(path, wan.config, (problem.ghost,), conflict_budget=1)
    for workspace in (ws, loaded):
        again = workspace.verify(problem.properties[0], problem.invariants)
        assert again.rerun_checks == 0
        assert again.unknown_reason_counts == first.unknown_reason_counts


# ---------------------------------------------------------------------------
# The conflict budget, end to end: --budget reaches every solve
# ---------------------------------------------------------------------------
#
# The WAN ip-reuse problem is the stock instance that needs conflicts:
# under ``--budget 0`` six of its import checks cannot be decided.  Each
# test below fails if any hop between the flag (or the keyword) and
# ``sat.solve`` drops the budget.


def test_hermetic_check_honours_the_conflict_budget():
    # Every stock check is decided by propagation alone on a fresh solver,
    # so the hermetic row needs one that is not: (a|b)(a|~b)(~a|b) => a&b.
    config = build_full_mesh(3)
    a, b = HasCommunity(Community(1, 1)), HasCommunity(Community(1, 2))
    assumption = AllOf((AnyOf((a, b)), AnyOf((a, Not(b))), AnyOf((Not(a), b))))
    check = implication_check("R1", assumption, AllOf((a, b)), "both tags")
    universe = build_universe(config, [assumption], ())
    starved = check.run(config, universe, (), conflict_budget=0, session=None)
    assert starved.unknown and starved.unknown_reason == "conflicts"
    assert check.run(config, universe, (), session=None).passed
    # The same through a session: CheckSession.check forwards it too.
    session = SessionPool().get(None)
    starved = check.run(config, universe, (), conflict_budget=0, session=session)
    assert starved.unknown and starved.unknown_reason == "conflicts"


@pytest.fixture
def wan_cli_inputs(tmp_path):
    """The WAN ip-reuse problem as CLI inputs: base config, a benign edit
    of W0-0 (which owns one of the budget-starved checks), and the spec."""
    wan = build_wan(2, 3)
    problem = ip_reuse_safety_problem(wan, 0)
    invariants = problem.invariants
    spec = VerificationSpec(
        ghost_docs=[
            {
                "name": problem.ghost.name,
                "kind": "source",
                "sources": [
                    location_to_str(edge)
                    for edge, tracked in problem.ghost.import_updates.items()
                    if tracked
                ],
            }
        ],
        safety=[
            SafetySpec(
                problem.properties[0],
                invariants.default,
                {loc: invariants.get(loc) for loc in invariants.overridden_locations()},
            )
        ],
    )
    edited = build_wan(2, 3).config
    session = edited.routers["W0-0"].neighbors["W1-0"]
    session.import_map = RouteMap(
        "XREGION-IN-0-EDITED", (*session.import_map.clauses, RouteMapClause(40))
    )
    paths = []
    for name, text in (
        ("base.json", config_to_json(wan.config)),
        ("edited.json", config_to_json(edited)),
        ("spec.json", spec_to_json(spec)),
    ):
        (tmp_path / name).write_text(text)
        paths.append(str(tmp_path / name))
    return paths


@pytest.mark.parametrize("jobs", [[], ["--jobs", "2"]], ids=["serial", "jobs2"])
def test_cli_exhausted_conflict_budget_exits_degraded(wan_cli_inputs, capsys, jobs):
    base, __, spec = wan_cli_inputs
    assert main(["verify", base, spec, *jobs]) == 0
    capsys.readouterr()
    assert main(["verify", base, spec, "--budget", "0", *jobs]) == EXIT_DEGRADED
    out = capsys.readouterr().out
    assert out.count("UNKNOWN (conflict budget exhausted)") == 6
    assert "degraded execution" not in out


@pytest.mark.parametrize("jobs", [[], ["--jobs", "2"]], ids=["serial", "jobs2"])
def test_cli_reverify_honours_the_conflict_budget(wan_cli_inputs, capsys, jobs):
    base, edited, spec = wan_cli_inputs
    assert main(["reverify", base, edited, spec, *jobs]) == 0
    capsys.readouterr()
    code = main(["reverify", base, edited, spec, "--budget", "0", *jobs])
    assert code == EXIT_DEGRADED
    out = capsys.readouterr().out
    # W0-0's group was re-run (a warm session may now decide its starved
    # check); the other owners' starved outcomes are reused as they are.
    assert "consulted 0 of" not in out
    assert out.count("UNKNOWN (conflict budget exhausted)") >= 5


def test_cli_cache_saved_under_one_budget_refuses_another(wan_cli_inputs, tmp_path, capsys):
    base, __, spec = wan_cli_inputs
    cached = ["verify", base, spec, "--cache", str(tmp_path / "cache")]
    assert main([*cached, "--budget", "0"]) == EXIT_DEGRADED
    # The budget is part of what the cache answers for: neither another
    # budget nor "no budget" may be served the starved outcomes.
    for other in (["--budget", "1000"], []):
        assert main([*cached, *other]) == 2
        assert "cache" in capsys.readouterr().err
    assert main([*cached, "--budget", "0"]) == EXIT_DEGRADED
    assert _consulted(capsys.readouterr().out)[0] == 0
