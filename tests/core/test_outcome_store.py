"""The outcome store of cache format 6: per-group rows, not outcome objects.

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
  PASSED over the old, smaller check set).
"""

from __future__ import annotations

import re
import time

import pytest

from repro.bgp.config import RouterConfig
from repro.bgp.policy import (
    DeleteCommunity,
    Disposition,
    MatchPrefix,
    RouteMap,
    RouteMapClause,
)
from repro.bgp.prefix import PrefixRange
from repro.bgp.topology import Edge
from repro.core.exec import ExecutionContext
from repro.core.liveness import interference_properties
from repro.core.properties import InvariantMap, LivenessProperty
from repro.core.report import format_report
from repro.core.safety import run_problem
from repro.core.workspace import Workspace
from repro.lang.ghost import GhostAttribute
from repro.lang.predicates import Implies, PrefixIn
from repro.workloads.figure1 import CUSTOMER_PREFIX, build_figure1
from repro.workloads.fullmesh import (
    TRANSIT_COMMUNITY,
    build_full_mesh,
    full_mesh_single_router_edit,
)
from repro.workloads.randomnet import build_random_network

from tests.core.conftest import (
    customer_liveness_property,
    mesh_no_transit,
    no_transit_invariants,
    no_transit_property,
    reverify,
)
from tests.core.test_tracker_differential import _fp, _problem


def _ranges(text: str) -> PrefixIn:
    return PrefixIn((PrefixRange.parse(text),))


SHORT = _ranges("0.0.0.0/0 le 24")
# Valid, but refuting its negation takes a case split on the first prefix
# bit — one conflict — where every other check of these networks is decided
# by propagation alone: under ``conflict_budget=0`` the one check that has
# to *prove* it comes back UNKNOWN/``conflicts`` and nothing else does.
HARD = Implies(
    SHORT,
    _ranges("0.0.0.0/1 ge 1 le 24") | _ranges("128.0.0.0/1 ge 1 le 24") | _ranges("0.0.0.0/0 le 0"),
)
STRIP = RouteMap("STRIP", (RouteMapClause(10, actions=(DeleteCommunity(TRANSIT_COMMUNITY),)),))
BOGONS = MatchPrefix((PrefixRange.parse("192.168.0.0/16 le 32"),))


def _deny(ranges: PrefixRange) -> RouteMap:
    deny = RouteMapClause(10, Disposition.DENY, matches=(MatchPrefix((ranges,)),))
    return RouteMap("BREAK-PROP", (deny, RouteMapClause(20)))


def _benign_edit(config, router: str, external: str):
    """One more bogon deny on ``router``'s import from ``external``."""
    session = config.routers[router].neighbors[external]
    clauses = session.import_map.clauses
    bogon = RouteMapClause(clauses[0].seq - 1, Disposition.DENY, matches=(BOGONS,))
    session.import_map = RouteMap(f"{session.import_map.name}-EDIT", (bogon, *clauses))
    return config


def _problems(config, safety, liveness, hard_edge):
    """Both problems with ``HARD`` conjoined to one external-bound edge's
    invariant, so exactly that edge's export check has to prove it."""
    prop, invariants = safety
    invariants.set_edge(*hard_edge, invariants.default & HARD)
    router, sub = next(iter(interference_properties(liveness).items()))
    sub_invariants = InvariantMap(config.topology, default=sub.predicate)
    sub_invariants.set_edge(*hard_edge, sub.predicate & HARD)
    return {"safety": (prop, invariants), "liveness": (liveness, {router: sub_invariants})}


def _figure1():
    def build():
        config = build_figure1()
        # FAILED: R2 strips the transit tag (safety), R3 stops exporting
        # customer prefixes to R2 (liveness propagation).
        config.routers["R2"].neighbors["R1"].import_map = STRIP
        config.routers["R3"].neighbors["R2"].export_map = _deny(
            PrefixRange(CUSTOMER_PREFIX, 8, 24)
        )
        return config

    config = build()
    ghost = GhostAttribute.source_tracker("FromISP1", config.topology, [Edge("ISP1", "R1")])
    problems = _problems(
        config,
        (no_transit_property(), no_transit_invariants(config)),
        customer_liveness_property(),
        ("R3", "Customer"),
    )
    return config, (ghost,), problems, _benign_edit(build(), "R1", "ISP1")


def _mesh_shaped(build):
    """The E1/R1/R2/E2 no-transit problem and a short-prefix liveness
    property along E2 → R2 → its first internal neighbor → that router's
    external, on any network built like the full mesh."""

    def planted():
        config = build()
        topology = config.topology
        peer = min(r for r in topology.successors("R2") if topology.is_router(r))
        # FAILED: ``peer`` strips the transit tag on its import from R2
        # (safety), R2 stops exporting short prefixes to it (liveness).
        config.routers[peer].neighbors["R2"].import_map = STRIP
        config.routers["R2"].neighbors[peer].export_map = _deny(PrefixRange.parse("0.0.0.0/0 le 24"))
        return config, peer

    config, peer = planted()
    ghost, prop, invariants = mesh_no_transit(config)
    last = len(config.routers)
    assert peer not in (f"R{last}", f"R{last - 1}")
    exit_edge = Edge(peer, "E" + peer[1:])
    path = (Edge("E2", "R2"), "R2", Edge("R2", peer), peer, exit_edge)
    liveness = LivenessProperty(
        location=exit_edge,
        predicate=SHORT,
        path=path,
        constraints=(SHORT,) * len(path),
        name="short-prefix-leaves",
    )
    problems = _problems(config, (prop, invariants), liveness, (f"R{last}", f"E{last}"))
    edited = _benign_edit(planted()[0], f"R{last - 1}", f"E{last - 1}")
    return config, (ghost,), problems, edited


NETWORKS = {
    "figure1": _figure1,
    "fullmesh": lambda: _mesh_shaped(lambda: build_full_mesh(5)),
    "randomnet": lambda: _mesh_shaped(lambda: build_random_network(6, model="gnp", seed=3)),
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
    return [_fp(o) for o in report.iter_outcomes()]


def _accounting(result) -> tuple[int, int, int]:
    return result.rerun_checks, result.cached_checks, result.checks_consulted


@pytest.mark.parametrize("kind", ["safety", "liveness"])
@pytest.mark.parametrize("network", NETWORKS)
def test_in_process_loaded_and_one_shot_agree(network, kind, tmp_path):
    config, ghosts, problems, edited = NETWORKS[network]()
    ws = Workspace(config, ghosts=ghosts, conflict_budget=0)
    first = ws.verify(*problems[kind])
    assert first.failures, "the planted failure did not take"
    assert first.unknown_reason_counts == {"conflicts": len(first.unknowns)} != {}

    # A one-router edit whose run starts with its time already spent: that
    # router's groups — and nothing else — become time-bound UNKNOWNs.
    expired = time.monotonic() - 1
    ws.set_run_deadline(expired)
    degraded = reverify(ws, edited)
    rerun = degraded.rerun_checks
    assert 0 < rerun < first.num_checks
    assert degraded.report.unknown_reason_counts["wall-budget"] == rerun
    assert degraded.report.failures and "conflicts" in degraded.report.unknown_reason_counts
    path = tmp_path / "workspace.lyc"
    ws.save(path)

    # The file restores that state in a fresh workspace (no ``config=``:
    # through the nested blob).  Still out of time, both re-run exactly the
    # time-bound groups and say the same thing, cached FAILED and
    # conflict-budget UNKNOWN included, check by check in the same order.
    loaded = Workspace.load(path, ghosts=ghosts)
    assert loaded.conflict_budget == 0
    loaded.set_run_deadline(expired)
    (from_disk,) = loaded.reverify()
    (in_process,) = ws.reverify()
    assert _accounting(from_disk.last_result) == _accounting(in_process.last_result)
    assert _accounting(in_process.last_result) == _accounting(degraded)
    for entry in (from_disk, in_process):
        assert _text(entry.report) == _text(degraded.report)
        assert _order(entry.report) == _order(degraded.report)

    # With the time limit lifted both repair the same groups and agree
    # with a from-scratch run on the edited configuration (which lists a
    # section edge by edge, not owner group by owner group).
    problem = ws.entries[0].tracker.problem
    reference = run_problem(ExecutionContext(conflict_budget=0), problem, edited, ghosts)
    for workspace in (ws, loaded):
        workspace.set_run_deadline(None)
        (entry,) = workspace.reverify()
        assert _accounting(entry.last_result) == _accounting(degraded)
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
        assert entry.last_result.rerun_checks == 0


@pytest.mark.parametrize("kind", ["safety", "liveness"])
def test_cache_loaded_reverify_generates_only_the_edited_owners_checks(
    kind, tmp_path, monkeypatch
):
    import repro.core.liveness
    import repro.core.safety
    from repro.core.checks import generate_safety_checks

    n = 6
    ghosts, problem, __ = _problem(kind)  # built for the 4- and 5-mesh...
    config = build_full_mesh(n)
    if kind == "safety":  # ...so rebuild the invariants over this one
        ghost, prop, invariants = mesh_no_transit(config)
        ghosts, problem = (ghost,), (prop, invariants)
    else:
        from repro.workloads.fullmesh import full_mesh_liveness_property

        problem = (full_mesh_liveness_property(n),)
    ws = Workspace(config, ghosts=ghosts)
    total = ws.verify(*problem).num_checks
    path = tmp_path / "workspace.lyc"
    ws.save(path)

    asked: list = []

    def spy(config, invariants, location, predicate, owners=None):
        asked.append(owners)
        return generate_safety_checks(config, invariants, location, predicate, owners=owners)

    monkeypatch.setattr(repro.core.safety, "generate_safety_checks", spy)
    monkeypatch.setattr(repro.core.liveness, "generate_safety_checks", spy)

    loaded = Workspace.load(path, config=build_full_mesh(n), ghosts=ghosts)
    edited = full_mesh_single_router_edit(n, router="R4")
    result = reverify(loaded, edited)
    sections = 1 if kind == "safety" else 2  # one §4 check set per sub-proof
    assert asked == [{"R4"}] * sections
    assert 0 < result.rerun_checks < total

    # Everything a summary, the CLI's default output or an exit code reads
    # comes from the stored rows.
    report = result.report
    assert report.passed and report.num_checks == total
    assert not report.failures and not report.unknowns
    assert report.max_vars >= 0 and report.solve_time_s >= 0 and report.build_time_s >= 0
    format_report(report)
    if kind == "liveness":
        format_report(report, verbose=True)  # counts sub-proof checks, lists none
        assert report.implication_outcome.passed
    assert asked == [{"R4"}] * sections

    # The listing regenerates the other owners' checks, once.
    others = {f"R{i}" for i in range(1, n + 1)} - {"R4"}
    listing = list(report.iter_outcomes())
    assert asked == [{"R4"}] * sections + [others] * sections
    assert len(listing) == total and all(o.passed for o in listing)
    assert [_fp(o) for o in report.iter_outcomes()] == list(map(_fp, listing))
    format_report(report, verbose=True)
    assert len(asked) == 2 * sections
    # ...and lists what the in-process tracker, which never dropped its
    # checks, lists.
    assert list(map(_fp, listing)) == _order(reverify(ws, edited).report)


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
    loaded = Workspace.load(path, config=build_full_mesh(n), ghosts=(ghost,))
    assert len(digested) == n  # the offered configuration
    result = reverify(loaded, full_mesh_single_router_edit(n))
    assert len(digested) == 2 * n  # the edit; the tracker reads the workspace's
    assert result.report.passed and 0 < result.rerun_checks < result.report.num_checks


@pytest.mark.parametrize("kind", ["safety", "liveness"])
def test_a_saved_topology_change_is_noticed_after_a_load(kind, tmp_path):
    """``apply`` a bigger mesh, ``save`` before re-verifying, ``load``:
    the restored tracker's groups answer for the old topology.  It used to
    be pointed at the loaded configuration, find nothing changed, and
    report PASSED without the new router's checks (41 of 51)."""
    ghosts, problem, from_scratch = _problem(kind)
    ws = Workspace(build_full_mesh(4), ghosts=ghosts)
    before = ws.verify(*problem).num_checks
    grown = build_full_mesh(5)
    ws.apply(grown)
    path = tmp_path / "workspace.lyc"
    ws.save(path)

    (from_disk,) = Workspace.load(path, ghosts=ghosts).reverify()
    (in_process,) = ws.reverify()
    reference = from_scratch(grown)
    assert reference.num_checks > before
    for entry in (from_disk, in_process):
        assert entry.report.passed == reference.passed
        assert entry.report.num_checks == reference.num_checks
        assert entry.last_result.cached_checks == 0
        assert sorted(_order(entry.report), key=repr) == sorted(_order(reference), key=repr)
    assert _order(from_disk.report) == _order(in_process.report)
