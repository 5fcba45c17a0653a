"""The session-oriented :class:`Workspace` API.

That a workspace's reports are the hermetic ones — after ``verify``,
``apply`` + ``reverify`` and ``save`` → ``load`` — is the oracle's
``reloaded`` cells (``tests/oracle.py``).  Pinned here:

* ``verify`` is property-polymorphic — a :class:`SafetyProperty` runs the
  §4 pipeline, a :class:`LivenessProperty` the §5 pipeline — and rejects
  anything else; one workspace runs under one budget;
* one ``reverify`` updates every registered property, each consulting
  only the owner groups the edit invalidated;
* ``save``/``load`` round-trips the outcome cache: a loaded workspace
  skips the base run, consults exactly what the saved one would, and
  persists no solver state (what it refuses is ``tests/test_cache.py``'s
  table);
* what ``save`` writes has the shape ``cache-shape.json`` records for
  ``CACHE_FORMAT``, so a persisted shape changes only with a format bump.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from repro.core.report import PROPAGATION_KEY, SAFETY_KEY
from repro.core.workspace import CACHE_FORMAT, Workspace
from repro.record import Record, fields
from repro.workloads.figure1 import build_figure1
from repro.workloads.fullmesh import build_full_mesh, full_mesh_single_router_edit

from tests import oracle
from tests.core.conftest import (
    customer_liveness_property,
    isp1_ghost,
    no_transit_invariants,
    no_transit_property,
    owner_check_count,
    reverify,
    saved_state,
)


def _edit_r3(config):
    """A benign import-map tweak on R3 (extra bogon deny)."""
    return oracle.bogon_edit(config, "R3", "Customer")


# ---------------------------------------------------------------------------
# Polymorphic verify
# ---------------------------------------------------------------------------


def test_verify_dispatches_on_property_type(fig1_config, from_isp1):
    ws = Workspace(fig1_config, ghosts=(from_isp1,))
    safety = ws.verify(no_transit_property(), no_transit_invariants(fig1_config))
    liveness = ws.verify(customer_liveness_property())
    assert safety.passed and liveness.passed
    assert list(safety.sections) == [SAFETY_KEY]  # §4 pipeline ran
    assert PROPAGATION_KEY in liveness.sections  # §5 pipeline ran
    assert [e.kind for e in ws.entries] == ["safety", "liveness"]


def test_verify_rejects_non_properties(fig1_config):
    ws = Workspace(fig1_config)
    with pytest.raises(TypeError):
        ws.verify("not a property")
    with pytest.raises(TypeError):
        # interference invariants make no sense for safety properties
        ws.verify(no_transit_property(), {})
    with pytest.raises(TypeError):
        # nor one invariant map for a liveness property
        ws.verify(customer_liveness_property(), no_transit_invariants(fig1_config))


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
    assert (second.rerun_checks, second.reused_checks) == (0, first.num_checks)
    assert oracle.listing(first, witness=True) == oracle.listing(second, witness=True)


def test_a_workspace_has_one_budget_and_no_per_call_override(fig1_config, from_isp1):
    prop, inv = no_transit_property(), no_transit_invariants(fig1_config)
    ws = Workspace(fig1_config, ghosts=(from_isp1,), conflict_budget=123)
    ws.verify(prop, inv)
    with pytest.raises(TypeError):
        ws.verify(prop, inv, conflict_budget=5)
    with pytest.raises(TypeError):
        ws.entry(prop, inv, conflict_budget=123)
    assert ws.entry(prop, inv) is ws.entries[0]


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
    assert (safety_entry.report.rerun_checks, safety_entry.report.reused_checks) == (6, 13)
    assert safety_entry.report.passed
    # Liveness: R3's propagation checks + its group in each sub-proof,
    # never the implication.
    expected = owner_check_count(liveness_entry.tracker, "R3")
    assert liveness_entry.report.rerun_checks == expected
    assert liveness_entry.report.passed


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
    original = [oracle.listing(e.report, witness=True) for e in ws.entries]

    loaded = Workspace.load(path, build_figure1(), (from_isp1,))
    assert [e.kind for e in loaded.entries] == ["safety", "liveness"]
    entries = loaded.reverify()
    # Nothing changed: every cached outcome is reused without consultation.
    assert [e.report.rerun_checks for e in entries] == [0, 0]
    assert [oracle.listing(e.report, witness=True) for e in entries] == original


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
    loaded = Workspace.load(path, build_figure1(), (from_isp1,))
    assert not loaded.sessions.answers  # the query memo is never persisted
    loaded.apply(_edit_r3(build_figure1()))
    (entry,) = loaded.reverify()
    assert (entry.report.rerun_checks, entry.report.reused_checks) == (6, 13)  # R3's group only


@pytest.mark.parametrize("kind", ["safety", "liveness"])
def test_a_loaded_tracker_reverifies_like_the_saved_one(kind, tmp_path):
    ghosts, problem = oracle.mesh_problem(kind, 5)
    ws = Workspace(build_full_mesh(5), ghosts=ghosts)
    ws.verify(problem.prop, problem.invariants)
    path = tmp_path / "workspace.lyc"
    ws.save(path)
    loaded = Workspace.load(path, build_full_mesh(5), ghosts)

    # R2 sits on the liveness witness path and owns safety checks too; the
    # bogon deny makes a liveness propagation check fail.
    edited = full_mesh_single_router_edit(5, router="R2")
    in_process, from_disk = reverify(ws, edited), reverify(loaded, edited)
    assert oracle.listing(from_disk) == oracle.listing(in_process)
    assert from_disk.reused_checks == in_process.reused_checks
    assert from_disk.rerun_checks == owner_check_count(loaded.entries[0].tracker, "R2") > 0


# ---------------------------------------------------------------------------
# The persisted shape moves only with CACHE_FORMAT
# ---------------------------------------------------------------------------

MANIFEST = Path(__file__).resolve().parents[2] / "cache-shape.json"
# Records the saved cache below must keep reaching.
PERSISTED_TYPES = (
    "GroupOutcomes", "LocalCheck", "CheckOutcome", "CheckFailure", "SolverStats", "SatStats",
)


def _dataclass_shapes(*roots):
    """The fields of every record pickle reaches from ``roots`` (keyed
    ``dataclass:NAME``, the manifest's spelling since format 5)."""
    shapes, seen, todo = {}, {}, list(roots)
    while todo:
        obj = todo.pop()
        if id(obj) in seen or isinstance(obj, (str, bytes, int, float, type(None), type)):
            continue
        seen[id(obj)] = obj  # held, so no id is reused by a freed temporary
        if isinstance(obj, dict):
            todo += [*obj, *obj.values()]
        elif isinstance(obj, (list, tuple, set, frozenset)):
            todo += obj
        else:
            if isinstance(obj, Record):
                shapes[f"dataclass:{type(obj).__name__}"] = sorted(fields(obj))
            reduced = obj.__reduce_ex__(5)  # (callable, args, state, items...)
            todo += [*reduced[1:3], *map(list, filter(None, reduced[3:5]))]
    return shapes


def test_the_saved_cache_has_the_shape_its_format_records(tmp_path):
    config = build_figure1()
    config.routers["R2"].neighbors["R1"].import_map = oracle.STRIP  # persists a CheckFailure
    ws = Workspace(config, ghosts=(isp1_ghost(config),))
    assert not ws.verify(no_transit_property(), no_transit_invariants(config)).passed
    ws.verify(customer_liveness_property())
    ws.run_deadline = time.monotonic() - 1  # every check a time-bound UNKNOWN
    assert set(ws.verify(no_transit_property()).unknown_reason_counts) == {"wall-budget"}
    ws.save(tmp_path / "workspace.lyc")

    assert (tmp_path / "workspace.lyc").read_bytes().startswith(b"lightyear-cache %d\n" % CACHE_FORMAT)
    state = saved_state(tmp_path / "workspace.lyc")
    shapes = {"save:state": sorted(state)}
    for doc in state["entries"]:
        shapes[f"state_dict:{doc['kind']}"] = sorted(doc["state"])
    shapes.update(_dataclass_shapes(state))
    assert {f"dataclass:{name}" for name in PERSISTED_TYPES} <= set(shapes)
    assert state["entries"][-1]["state"]["time_bound"]

    manifest = json.loads(MANIFEST.read_text())
    paste = json.dumps(
        {**manifest, "cache_format": CACHE_FORMAT, "shapes": dict(sorted(shapes.items()))}, indent=2
    )
    if manifest["cache_format"] != CACHE_FORMAT:
        pytest.fail(f"stale manifest: CACHE_FORMAT is {CACHE_FORMAT}; write this to cache-shape.json:\n{paste}")
    if manifest["shapes"] != shapes:
        pytest.fail(
            "the saved cache changed shape: bump `CACHE_FORMAT` (saying what changed), then write"
            f" this to cache-shape.json with the new number:\n{paste}"
        )
