"""The outcome store: per-group rows, not outcome objects.

A tracker keeps, and ``Workspace.save`` persists, one
:class:`repro.core.report.GroupOutcomes` per ``(section, owner)`` group —
a stats row per check, the whole outcome of every check that did not pass
and of every owner-less implication, four folds — and no check at all.
What this file pins:

* **the differential**: on Figure 1, a full mesh and a seeded random
  network, each carrying a planted FAILED check, a conflict-budget UNKNOWN
  and a time-bound (wall-budget) group, for a safety and a liveness
  problem, the in-process tracker ≡ the same state after ``save`` →
  ``load`` in a fresh :class:`Workspace` ≡ one-shot ``run_problem`` — on
  verdict, rendered text, listing order and cache accounting — and the
  time-bound groups are re-run after a load exactly as in process;
* **nothing is regenerated for a summary**: a cache-loaded one-router
  reverify generates only that router's checks, unless the per-check
  listing is asked for;
* **each configuration is digested once** on that path;
* **a saved topology change is noticed after a load** (it used to report
  PASSED over the old, smaller check set);
* **the saved bytes do not follow the hash seed**: sets (topology
  adjacency, reflector clients, time-bound group keys) pickle sorted.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import time
from functools import partial
from pathlib import Path

import pytest

from repro.bgp.config import RouterConfig
from repro.bgp.prefix import PrefixRange
from repro.bgp.topology import Edge
from repro.core.exec import ExecutionContext
from repro.core.liveness import LivenessProblem, interference_properties
from repro.core.properties import InvariantMap
from repro.core.report import IMPLICATION_KEY, format_report
from repro.core.safety import run_problem
from repro.core.workspace import Workspace
from repro.lang.predicates import Implies, PrefixIn
from repro.workloads.fullmesh import build_full_mesh, full_mesh_single_router_edit

from tests import oracle
from tests.core.conftest import mesh_no_transit, reverify


def _ranges(text: str) -> PrefixIn:
    return PrefixIn((PrefixRange.parse(text),))


# Valid, but refuting its negation takes a case split on the first prefix
# bit — one conflict — where every other check of these networks is decided
# by propagation alone: under ``conflict_budget=0`` the one check that has
# to *prove* it comes back UNKNOWN/``conflicts`` and nothing else does.
HARD = Implies(
    oracle.SHORT,
    _ranges("0.0.0.0/1 ge 1 le 24") | _ranges("128.0.0.0/1 ge 1 le 24") | _ranges("0.0.0.0/0 le 0"),
)


def _harden(config, problem, hard: Edge):
    """``problem`` with ``HARD`` conjoined to the invariant at ``hard`` (a
    liveness problem's first sub-proof's), so exactly that edge's export
    check has to prove it."""
    if problem.kind == "safety":
        problem.invariants.set_edge(*hard, problem.invariants.default & HARD)
        return problem
    router, sub = next(iter(interference_properties(problem.prop).items()))
    sub_invariants = InvariantMap(config.topology, default=sub.predicate)
    sub_invariants.set_edge(*hard, sub.predicate & HARD)
    return LivenessProblem(problem.prop, {router: sub_invariants})


def _exits(config) -> list[Edge]:
    topology = config.topology
    return sorted(edge for edge in topology.external_edges() if topology.is_router(edge.src))


def _planted(name: str, edit: str | None = None):
    """The corpus case ``name`` (a planted FAILED) with ``HARD`` at the last
    router's exit and a benign edit at router ``edit``'s exit — by default
    the first router that is neither planted nor hard: (config, ghosts,
    problem, edited config)."""
    case = oracle.CASES[name]
    config = case.config()
    ghosts, problem = case.problem(config)
    exits = _exits(config)
    hard = exits[-1]
    skip = (case.planted_router, hard.src)
    edited = next(e for e in exits if e.src == edit or (edit is None and e.src not in skip))
    return config, ghosts, _harden(config, problem, hard), oracle.bogon_edit(case.config(), *edited)


CELLS = {
    **{
        name: partial(_planted, name)
        for name in (
            "figure1-safety-planted",
            "figure1-liveness-planted",
            "fullmesh5-safety-planted",
            f"randomnet6-gnp-{oracle.SEEDS[0]}-planted",
            "fullmesh5-liveness-planted",
            "randomnet6-gnp-3-liveness-planted",
        )
    },
    # A conflicts UNKNOWN is an answer of the session that asked: a warm
    # tracker re-running R2's group decides ``import check at R2 on
    # ISP2->R2``, which a fresh one-shot run leaves UNKNOWN.
    "figure1-liveness-planted-edit-R2": pytest.param(
        partial(_planted, "figure1-liveness-planted", edit="R2"),
        marks=pytest.mark.xfail(strict=True, reason="conflicts UNKNOWNs follow the session"),
    ),
}


_MASKS = [
    (re.compile(r"\d+\.\d+m?s"), "T"),  # timings
    # Per-check sizes are marginal to a session's encoding and zero on a
    # memo hit, so they depend on what the process solved before.
    (re.compile(r"\d+v/\d+c"), "NvMc"),
    (re.compile(r"max \d+ vars / \d+ constraints"), "max N vars / M constraints"),
]


def _text(report) -> str:
    text = format_report(report, verbose=True)
    for pattern, mask in _MASKS:
        text = pattern.sub(mask, text)
    return text


def _order(report) -> list:
    return list(map(oracle.outcome_key, report.iter_outcomes()))


def _accounting(report) -> tuple[int, int]:
    return report.rerun_checks, report.reused_checks


@pytest.mark.parametrize("build", CELLS.values(), ids=CELLS)
def test_in_process_loaded_and_one_shot_agree(build, tmp_path):
    config, ghosts, problem, edited = build()
    ws = Workspace(config, ghosts=ghosts, conflict_budget=0)
    first = ws.verify(problem.prop, problem.invariants)
    assert first.failures, "the planted failure did not take"
    assert first.unknown_reason_counts == {"conflicts": len(first.unknowns)} != {}

    # A one-router edit whose run starts with its time already spent: that
    # router's groups — and nothing else — become time-bound UNKNOWNs.
    expired = time.monotonic() - 1
    ws.run_deadline = expired
    degraded = reverify(ws, edited)
    rerun = degraded.rerun_checks
    assert 0 < rerun < first.num_checks
    assert degraded.unknown_reason_counts["wall-budget"] == rerun
    assert degraded.failures and "conflicts" in degraded.unknown_reason_counts
    path = tmp_path / "workspace.lyc"
    ws.save(path)

    # The file restores that state in a fresh workspace, offered the edited
    # configuration the saved one had staged.  Still out of time, both
    # re-run exactly the time-bound groups and say the same thing, cached
    # FAILED and conflict-budget UNKNOWN included, check by check in the
    # same order.
    loaded = Workspace.load(path, build()[3], ghosts, conflict_budget=0)
    loaded.run_deadline = expired
    (from_disk,) = loaded.reverify()
    (in_process,) = ws.reverify()
    assert _accounting(from_disk.report) == _accounting(in_process.report)
    assert _accounting(in_process.report) == _accounting(degraded)
    for entry in (from_disk, in_process):
        assert _text(entry.report) == _text(degraded)
        assert _order(entry.report) == _order(degraded)

    # With the time limit lifted both repair the same groups and agree
    # with a from-scratch run on the edited configuration (which lists a
    # section edge by edge, not owner group by owner group).
    problem = ws.entries[0].tracker.problem
    reference = run_problem(ExecutionContext(conflict_budget=0), problem, edited, ghosts)
    for workspace in (ws, loaded):
        workspace.run_deadline = None
        (entry,) = workspace.reverify()
        assert _accounting(entry.report) == _accounting(degraded)
        report = entry.report
        assert "wall-budget" not in report.unknown_reason_counts
        assert report.status() == reference.status()
        assert report.num_checks == reference.num_checks
        assert sorted(_order(report), key=repr) == sorted(_order(reference), key=repr)
        assert sorted(_text(report).splitlines()) == sorted(_text(reference).splitlines())
    assert _text(ws.entries[0].report) == _text(loaded.entries[0].report)
    assert _order(ws.entries[0].report) == _order(loaded.entries[0].report)
    # Repaired means repaired: nothing is time-bound any more.
    for workspace in (ws, loaded):
        (entry,) = workspace.reverify()
        assert entry.report.rerun_checks == 0


@pytest.mark.parametrize("kind", ["safety", "liveness"])
def test_cache_loaded_reverify_generates_only_the_edited_owners_checks(
    kind, tmp_path, monkeypatch
):
    import repro.core.liveness
    import repro.core.safety
    from repro.core.checks import generate_safety_checks

    n = 6
    ghosts, problem = oracle.mesh_problem(kind, n)
    ws = Workspace(build_full_mesh(n), ghosts=ghosts)
    total = ws.verify(problem.prop, problem.invariants).num_checks
    path = tmp_path / "workspace.lyc"
    ws.save(path)

    asked: list = []

    def spy(config, invariants, location, predicate, owners=None):
        asked.append(owners)
        return generate_safety_checks(config, invariants, location, predicate, owners=owners)

    monkeypatch.setattr(repro.core.safety, "generate_safety_checks", spy)
    monkeypatch.setattr(repro.core.liveness, "generate_safety_checks", spy)

    loaded = Workspace.load(path, build_full_mesh(n), ghosts)
    edited = full_mesh_single_router_edit(n, router="R4")
    report = reverify(loaded, edited)
    sections = 1 if kind == "safety" else 2  # one §4 check set per sub-proof
    assert asked == [{"R4"}] * sections
    assert 0 < report.rerun_checks < total

    # Everything a summary, the CLI's default output or an exit code reads
    # comes from the stored rows.
    assert report.passed and report.num_checks == total
    assert not report.failures and not report.unknowns
    assert report.max_vars >= 0 and report.solve_time_s >= 0 and report.build_time_s >= 0
    format_report(report)
    if kind == "liveness":
        format_report(report, verbose=True)  # counts sub-proof checks, lists none
        assert report.section_outcomes(IMPLICATION_KEY)[0].passed
    assert asked == [{"R4"}] * sections

    # The listing regenerates the other owners' checks, once.
    others = {f"R{i}" for i in range(1, n + 1)} - {"R4"}
    listing = list(report.iter_outcomes())
    assert asked == [{"R4"}] * sections + [others] * sections
    assert len(listing) == total and all(o.passed for o in listing)
    assert list(map(oracle.outcome_key, report.iter_outcomes())) == list(map(oracle.outcome_key, listing))
    format_report(report, verbose=True)
    assert len(asked) == 2 * sections
    # ...and lists what the in-process tracker, which never dropped its
    # checks, lists.
    assert list(map(oracle.outcome_key, listing)) == _order(reverify(ws, edited))


def test_a_cold_reverify_digests_each_configuration_once(tmp_path, monkeypatch):
    n = 6
    config = build_full_mesh(n)
    ghost, prop, invariants = mesh_no_transit(config)
    ws = Workspace(config, ghosts=(ghost,))
    ws.verify(prop, invariants)
    path = tmp_path / "workspace.lyc"
    ws.save(path)

    digested: list[str] = []
    digest = RouterConfig.digest
    monkeypatch.setattr(
        RouterConfig, "digest", lambda self: digested.append(self.name) or digest(self)
    )
    loaded = Workspace.load(path, build_full_mesh(n), (ghost,))
    assert len(digested) == n  # the offered configuration
    report = reverify(loaded, full_mesh_single_router_edit(n))
    assert len(digested) == 2 * n  # the edit; the tracker reads the workspace's
    assert report.passed and 0 < report.rerun_checks < report.num_checks


@pytest.mark.parametrize("kind", ["safety", "liveness"])
def test_a_saved_topology_change_is_noticed_after_a_load(kind, tmp_path):
    """``apply`` a bigger mesh, ``save`` before re-verifying, ``load``:
    the restored tracker's groups answer for the old topology.  It used to
    be pointed at the loaded configuration, find nothing changed, and
    report PASSED without the new router's checks (41 of 51)."""
    ghosts, problem = oracle.mesh_problem(kind, 5)
    ws = Workspace(build_full_mesh(4), ghosts=ghosts)
    before = ws.verify(problem.prop, problem.invariants).num_checks
    grown = build_full_mesh(5)
    ws.apply(grown)
    path = tmp_path / "workspace.lyc"
    ws.save(path)

    (from_disk,) = Workspace.load(path, build_full_mesh(5), ghosts).reverify()
    (in_process,) = ws.reverify()
    reference = oracle.reference(grown, ghosts, problem)
    for entry in (from_disk, in_process):
        assert entry.report.num_checks > before
        assert entry.report.reused_checks == 0
        assert oracle.fingerprint(entry.report) == reference
    assert _order(from_disk.report) == _order(in_process.report)


_SAVE_SCRIPT = """
import sys, time
time.perf_counter = lambda: 0.0  # timings are the one run-dependent content
from repro.bgp.policy import DeleteCommunity, RouteMap, RouteMapClause
from repro.core.workspace import Workspace
from repro.workloads.fullmesh import TRANSIT_COMMUNITY, build_full_mesh
from tests.core.conftest import mesh_no_transit

config = build_full_mesh(6)
config.routers["R3"].rr_clients = frozenset({"R4", "R5", "R6", "R1"})
config.routers["R5"].neighbors["R1"].import_map = RouteMap(
    "STRIP", (RouteMapClause(10, actions=(DeleteCommunity(TRANSIT_COMMUNITY),)),)
)
ghost, prop, invariants = mesh_no_transit(config)
for path, deadline in zip(sys.argv[1:], (None, 0.0)):
    ws = Workspace(config, ghosts=(ghost,), deadline_s=deadline)
    assert not ws.verify(prop, invariants).passed
    ws.save(path)
"""


def test_a_saved_cache_is_byte_identical_under_every_hash_seed(tmp_path):
    # One cache with a FAILED check (counterexample routes), one where a
    # zero deadline leaves every solved group time-bound.
    root = Path(__file__).resolve().parents[2]

    def save(hash_seed: str) -> list[bytes]:
        paths = [tmp_path / f"{hash_seed}-{name}.lyc" for name in ("failed", "time-bound")]
        env = {**os.environ, "PYTHONPATH": f"{root / 'src'}:{root}", "PYTHONHASHSEED": hash_seed}
        subprocess.run(
            [sys.executable, "-c", _SAVE_SCRIPT, *map(str, paths)],
            env=env, check=True, timeout=120, cwd=root,
        )  # fmt: skip
        return [path.read_bytes() for path in paths]

    assert save("0") == save("1")
