"""Tests for the session-oriented :class:`Workspace` API (PR 5).

Pinned claims:

* ``verify`` is property-polymorphic — a :class:`SafetyProperty` runs the
  §4 pipeline, a :class:`LivenessProperty` the §5 pipeline — and both
  match the free-function pipelines outcome for outcome;
* re-verifying through one workspace (``verify`` again, or
  ``apply``/``reverify``) consults only the owner groups a config edit
  invalidated, across *all* registered properties at once;
* ``save``/``load`` round-trips the outcome cache through disk: a fresh
  workspace (fresh process stand-in) skips the base run and consults only
  the edited owners' checks, while a config/ghost fingerprint mismatch or
  a corrupt/foreign file is rejected loudly.
"""

from __future__ import annotations

import hashlib
import pickle

import pytest

from repro.bgp.policy import Disposition, MatchPrefix, RouteMap, RouteMapClause
from repro.bgp.prefix import PrefixRange
from repro.core.liveness import verify_liveness
from repro.core.safety import verify_safety
from repro.core.workspace import (
    CACHE_FORMAT,
    Workspace,
    WorkspaceCacheError,
    WorkspaceCacheMismatch,
)
from repro.workloads.figure1 import build_figure1
from repro.workloads.fullmesh import (
    build_full_mesh,
    full_mesh_liveness_property,
    full_mesh_single_router_edit,
)

from tests.core.conftest import (
    customer_liveness_property,
    no_transit_invariants,
    no_transit_property,
    owner_check_count,
)


def _edit_r3(config):
    """A benign import-map tweak on R3 (extra bogon deny)."""
    old_map = config.routers["R3"].neighbors["Customer"].import_map
    config.routers["R3"].neighbors["Customer"].import_map = RouteMap(
        "CUST-IN",
        (
            RouteMapClause(
                1,
                Disposition.DENY,
                matches=(MatchPrefix((PrefixRange.parse("192.168.0.0/16 le 32"),)),),
            ),
        )
        + old_map.clauses,
    )
    return config


def _outcome_fp(outcome):
    failure = outcome.failure
    return (
        str(outcome.check),
        outcome.passed,
        outcome.unknown,
        None
        if failure is None
        else (str(failure.input_route), str(failure.output_route), failure.rejected),
    )


def _report_fp(report):
    return sorted(_outcome_fp(o) for o in report.iter_outcomes())


# ---------------------------------------------------------------------------
# Polymorphic verify
# ---------------------------------------------------------------------------


def test_verify_dispatches_on_property_type(fig1_config, from_isp1):
    ws = Workspace(fig1_config, ghosts=(from_isp1,))
    safety = ws.verify(no_transit_property(), no_transit_invariants(fig1_config))
    liveness = ws.verify(customer_liveness_property())
    assert safety.passed and liveness.passed
    assert hasattr(liveness, "interference_reports")  # §5 pipeline ran
    assert not hasattr(safety, "interference_reports")  # §4 pipeline ran
    assert [e.kind for e in ws.entries] == ["safety", "liveness"]
    assert ws.stats.num_checks == safety.num_checks + liveness.num_checks


def test_verify_rejects_non_properties(fig1_config):
    ws = Workspace(fig1_config)
    with pytest.raises(TypeError):
        ws.verify("not a property")
    with pytest.raises(TypeError):
        # interference invariants make no sense for safety properties
        ws.verify(no_transit_property(), interference_invariants={})


def test_workspace_validates_config_and_backend(fig1_config):
    # No backend to choose: ``parallel`` is the only execution knob, and
    # it is validated at construction.
    with pytest.raises(TypeError):
        Workspace(fig1_config, backend="quantum")
    # A workspace always owns its session pool; nothing can lend it one.
    with pytest.raises(TypeError):
        Workspace(fig1_config, sessions=None)
    with pytest.raises(ValueError):
        Workspace(fig1_config, parallel=-1)
    broken = build_figure1()
    del broken.routers["R1"]
    with pytest.raises(ValueError):
        Workspace(broken)


def test_repeat_verify_consults_nothing(fig1_config, from_isp1):
    """The session-oriented payoff: a second verify of the same property
    is a cache hit end to end — zero checks consulted, same report."""
    ws = Workspace(fig1_config, ghosts=(from_isp1,))
    first = ws.verify(no_transit_property(), no_transit_invariants(fig1_config))
    second = ws.verify(no_transit_property(), no_transit_invariants(fig1_config))
    (entry,) = ws.entries
    assert entry.last_result.checks_consulted == 0
    assert entry.last_result.cached_checks == first.num_checks
    assert _report_fp(first) == _report_fp(second)


def test_different_budget_registers_a_separate_entry(fig1_config, from_isp1):
    prop, inv = no_transit_property(), no_transit_invariants(fig1_config)
    ws = Workspace(fig1_config, ghosts=(from_isp1,), conflict_budget=123)
    ws.verify(prop, inv)
    (entry,) = ws.entries
    assert entry.tracker.state_dict()["conflict_budget"] == 123
    # One workspace, one budget: there is no per-call override to drop.
    with pytest.raises(TypeError):
        ws.verify(prop, inv, conflict_budget=5)
    with pytest.raises(TypeError):
        ws.has_entry(prop, inv, conflict_budget=123)
    # The budget is still part of an entry's identity.
    unlimited = Workspace(fig1_config, ghosts=(from_isp1,))
    unlimited.verify(prop, inv)
    assert unlimited.entries[0].fingerprint != entry.fingerprint


# ---------------------------------------------------------------------------
# apply / reverify
# ---------------------------------------------------------------------------


def test_apply_reports_changed_owners(fig1_config, from_isp1):
    ws = Workspace(fig1_config, ghosts=(from_isp1,))
    changed = ws.apply(_edit_r3(build_figure1()))
    assert changed == {"R3"}


def test_reverify_touches_all_properties_but_only_edited_owners(
    fig1_config, from_isp1
):
    """One edit, one reverify call, every registered property updated —
    each consulting only the edited owner's groups."""
    ws = Workspace(fig1_config, ghosts=(from_isp1,))
    ws.verify(no_transit_property(), no_transit_invariants(fig1_config))
    ws.verify(customer_liveness_property())

    edited = _edit_r3(build_figure1())
    ws.apply(edited)
    safety_entry, liveness_entry = ws.reverify()

    # Safety: R3 owns 6 of the 19 checks.
    assert safety_entry.last_result.checks_consulted == 6
    assert safety_entry.last_result.cached_checks == 13
    assert safety_entry.last_result.report.passed
    # Liveness: R3's propagation checks + its group in each sub-proof,
    # never the implication.
    expected = owner_check_count(liveness_entry.tracker, "R3")
    assert liveness_entry.last_result.checks_consulted == expected
    assert liveness_entry.last_result.report.passed
    # Both match fresh pipelines on the edited config.
    assert _report_fp(safety_entry.last_result.report) == _report_fp(
        verify_safety(
            edited,
            no_transit_property(),
            no_transit_invariants(edited),
            ghosts=(from_isp1,),
        )
    )
    assert _report_fp(liveness_entry.last_result.report) == _report_fp(
        verify_liveness(edited, customer_liveness_property(), ghosts=(from_isp1,))
    )


def test_noop_reverify_consults_nothing(fig1_config, from_isp1):
    ws = Workspace(fig1_config, ghosts=(from_isp1,))
    ws.verify(no_transit_property(), no_transit_invariants(fig1_config))
    ws.apply(build_figure1())
    (entry,) = ws.reverify()
    assert entry.last_result.checks_consulted == 0
    assert entry.last_result.reuse_fraction == 1.0


# ---------------------------------------------------------------------------
# save / load (the on-disk outcome cache)
# ---------------------------------------------------------------------------


def _saved_workspace(tmp_path, config, ghosts, *problems):
    ws = Workspace(config, ghosts=ghosts)
    for prop, inv in problems:
        ws.verify(prop, inv)
    path = tmp_path / "cache" / "workspace.lyc"
    ws.save(path)
    return ws, path


def test_save_load_roundtrip_noop(tmp_path, fig1_config, from_isp1):
    ws, path = _saved_workspace(
        tmp_path,
        fig1_config,
        (from_isp1,),
        (no_transit_property(), no_transit_invariants(fig1_config)),
        (customer_liveness_property(), None),
    )
    original = [_report_fp(e.last_result.report) for e in ws.entries]

    loaded = Workspace.load(path, config=build_figure1(), ghosts=(from_isp1,))
    assert [e.kind for e in loaded.entries] == ["safety", "liveness"]
    entries = loaded.reverify()
    # Nothing changed: every cached outcome is reused without consultation.
    assert [e.last_result.checks_consulted for e in entries] == [0, 0]
    assert [_report_fp(e.last_result.report) for e in entries] == original


def test_load_then_edit_consults_only_the_owner(tmp_path, fig1_config, from_isp1):
    """The daemonless amortization story: a fresh workspace loads the base
    outcomes from disk and a single-router edit consults only that owner's
    checks — the base run never happens in the second 'process'."""
    __, path = _saved_workspace(
        tmp_path,
        fig1_config,
        (from_isp1,),
        (no_transit_property(), no_transit_invariants(fig1_config)),
    )
    loaded = Workspace.load(path, config=build_figure1(), ghosts=(from_isp1,))
    edited = _edit_r3(build_figure1())
    loaded.apply(edited)
    (entry,) = loaded.reverify()
    assert entry.last_result.checks_consulted == 6  # R3's group only
    assert entry.last_result.cached_checks == 13
    assert _report_fp(entry.last_result.report) == _report_fp(
        verify_safety(
            edited,
            no_transit_property(),
            no_transit_invariants(edited),
            ghosts=(from_isp1,),
        )
    )


def test_load_detects_breaking_edit(tmp_path, fig1_config, from_isp1):
    from repro.bgp.policy import DeleteCommunity
    from repro.workloads.figure1 import TRANSIT_COMMUNITY

    __, path = _saved_workspace(
        tmp_path,
        fig1_config,
        (from_isp1,),
        (no_transit_property(), no_transit_invariants(fig1_config)),
    )
    loaded = Workspace.load(path, config=build_figure1(), ghosts=(from_isp1,))
    broken = build_figure1()
    broken.routers["R2"].neighbors["R1"].import_map = RouteMap(
        "STRIP", (RouteMapClause(10, actions=(DeleteCommunity(TRANSIT_COMMUNITY),)),)
    )
    loaded.apply(broken)
    (entry,) = loaded.reverify()
    assert not entry.last_result.report.passed
    assert {f.blamed_router for f in entry.last_result.report.failures} == {"R2"}


def test_load_rejects_config_digest_mismatch(tmp_path, fig1_config, from_isp1):
    __, path = _saved_workspace(
        tmp_path,
        fig1_config,
        (from_isp1,),
        (no_transit_property(), no_transit_invariants(fig1_config)),
    )
    with pytest.raises(WorkspaceCacheMismatch):
        Workspace.load(path, config=_edit_r3(build_figure1()), ghosts=(from_isp1,))


def test_load_rejects_ghost_mismatch(tmp_path, fig1_config, from_isp1):
    from repro.bgp.topology import Edge
    from repro.lang.ghost import GhostAttribute

    __, path = _saved_workspace(
        tmp_path,
        fig1_config,
        (from_isp1,),
        (no_transit_property(), no_transit_invariants(fig1_config)),
    )
    other = GhostAttribute.source_tracker(
        "FromISP2", build_figure1().topology, [Edge("ISP2", "R2")]
    )
    with pytest.raises(WorkspaceCacheMismatch):
        Workspace.load(path, config=build_figure1(), ghosts=(other,))


def test_load_adopts_the_saved_budget_and_rejects_another(tmp_path, fig1_config, from_isp1):
    prop, inv = no_transit_property(), no_transit_invariants(fig1_config)
    ws = Workspace(fig1_config, ghosts=(from_isp1,), conflict_budget=7)
    ws.verify(prop, inv)
    path = tmp_path / "workspace.lyc"
    ws.save(path)
    # Like config and ghosts: defaults to the saved value, must match if given.
    for loaded in (Workspace.load(path), Workspace.load(path, conflict_budget=7)):
        assert loaded.conflict_budget == 7
        assert loaded.has_entry(prop, inv)
        assert loaded.entries[0].fingerprint == ws.entries[0].fingerprint
        loaded.verify(prop, inv)
        assert loaded.entries[0].last_result.checks_consulted == 0
    with pytest.raises(WorkspaceCacheMismatch, match="conflict budget"):
        Workspace.load(path, conflict_budget=8)

    # A format-5 file written when the budget was per call can hold entries
    # decided under different budgets.  One workspace runs under one, so
    # the file is refused — with a message, with or without a budget.
    state = pickle.loads(path.read_bytes())
    second = pickle.loads(pickle.dumps(state["entries"][0]))
    second["state"]["conflict_budget"] = None
    state["entries"].append(second)
    payload = pickle.dumps(state)
    path.write_bytes(payload + hashlib.sha256(payload).digest())
    for budget in (None, 7):
        with pytest.raises(WorkspaceCacheMismatch, match=r"budget\(s\) \[7, None\]"):
            Workspace.load(path, conflict_budget=budget)


def test_load_rejects_corrupt_and_foreign_files(tmp_path):
    garbage = tmp_path / "garbage.lyc"
    garbage.write_bytes(b"not a pickle at all")
    with pytest.raises(WorkspaceCacheError):
        Workspace.load(garbage)
    foreign = tmp_path / "foreign.lyc"
    foreign.write_bytes(pickle.dumps({"something": "else"}))
    with pytest.raises(WorkspaceCacheError):
        Workspace.load(foreign)
    missing = tmp_path / "nope.lyc"
    with pytest.raises(WorkspaceCacheError):
        Workspace.load(missing)


def test_load_rejects_future_format(tmp_path, fig1_config, from_isp1):
    __, path = _saved_workspace(
        tmp_path,
        fig1_config,
        (from_isp1,),
        (no_transit_property(), no_transit_invariants(fig1_config)),
    )
    state = pickle.loads(path.read_bytes())
    state["format"] = CACHE_FORMAT + 1
    path.write_bytes(pickle.dumps(state))
    with pytest.raises(WorkspaceCacheError):
        Workspace.load(path)


def test_save_load_liveness_on_fullmesh(tmp_path):
    """Liveness trackers round-trip too: off-path edit after a load
    consults only the edited owner's sub-proof groups."""
    n = 5
    config = build_full_mesh(n)
    prop = full_mesh_liveness_property(n)
    ws = Workspace(config)
    ws.verify(prop)
    path = tmp_path / "mesh.lyc"
    ws.save(path)

    loaded = Workspace.load(path, config=build_full_mesh(n))
    edited = full_mesh_single_router_edit(n)  # edits R5, off the path
    loaded.apply(edited)
    (entry,) = loaded.reverify()
    expected = owner_check_count(entry.tracker, f"R{n}")
    assert expected > 0
    assert entry.last_result.checks_consulted == expected
    assert _report_fp(entry.last_result.report) == _report_fp(
        verify_liveness(edited, prop)
    )
