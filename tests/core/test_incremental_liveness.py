"""Tests for incremental liveness re-verification (§5 through the tracker).

Driven through ``Workspace.verify/apply/reverify``.  The pinned claims
mirror the safety-side suite in ``test_incremental.py``:

* a single-router edit consults only that owner's check groups — its
  propagation checks (if it sits on the witness path) and its owner group
  inside every no-interference sub-proof — and **never** the final
  implication;
* outcomes fingerprint as the hermetic reference on the edited
  configuration (``tests/oracle.py``; pass, fail, and external-ASN-edit
  cases, plus randomized edit sequences);
* a network-level edit (``set_external_asn``) invalidates everything;
* unchanged owners are never re-encoded (the session pool's per-owner
  encoding sizes are the witness);
* ``conflict_budget`` is threaded through to the scheduler.
"""

from __future__ import annotations

import random

import pytest

from repro.core.liveness import IMPLICATION_KEY, PROPAGATION_KEY, LivenessProblem
from repro.core.workspace import Workspace
from repro.workloads.figure1 import build_figure1
from repro.workloads.fullmesh import (
    build_full_mesh,
    full_mesh_external_asn_edit,
    full_mesh_liveness_property,
    full_mesh_single_router_edit,
)

from tests import oracle
from tests.core.conftest import (
    customer_liveness_property,
    last_result,
    owner_check_count,
    reverify,
)


def _scratch(config, prop):
    """The hermetic fingerprint of ``prop`` on ``config`` (the oracle's
    reference: per section, order-insensitive, since the tracker assembles
    a section from its owner groups)."""
    return oracle.reference(config, (), LivenessProblem(prop))


def _verified(config, prop, **kwargs):
    """A workspace whose one property has had its first (full) run."""
    ws = Workspace(config, **kwargs)
    ws.verify(prop)
    return ws, ws.entries[0].tracker


def _implication_outcome(tracker):
    (outcome,) = tracker._groups[(*IMPLICATION_KEY, None)].kept.values()
    return outcome


def test_initial_run_matches_fresh_pipeline_and_counts_everything():
    config = build_full_mesh(5)
    prop = full_mesh_liveness_property(5)
    ws, __ = _verified(config, prop)
    result = last_result(ws)
    assert result.report.passed
    assert oracle.fingerprint(result.report) == _scratch(config, prop)
    assert result.cached_checks == 0
    assert result.rerun_checks == result.checks_consulted == result.report.num_checks


def test_noop_reverify_consults_no_checks():
    config = build_full_mesh(5)
    prop = full_mesh_liveness_property(5)
    ws, __ = _verified(config, prop)
    initial = last_result(ws)
    result = reverify(ws, build_full_mesh(5))
    assert result.report.passed
    assert result.rerun_checks == 0
    assert result.checks_consulted == 0
    assert result.cached_checks == initial.rerun_checks
    assert result.reuse_fraction == 1.0
    assert oracle.listing(result.report, witness=True) == oracle.listing(
        initial.report, witness=True
    )


def test_off_path_edit_consults_only_subproof_groups():
    """An edit off the witness path invalidates no propagation check and
    never the implication — just the owner's group in each sub-proof."""
    n = 5
    prop = full_mesh_liveness_property(n)
    ws, tracker = _verified(build_full_mesh(n), prop)
    implication_before = _implication_outcome(tracker)

    edited = full_mesh_single_router_edit(n)  # edits R5, off the E2->R2->R3 path
    result = reverify(ws, edited)
    assert result.report.passed
    expected = owner_check_count(tracker, f"R{n}")
    assert (*PROPAGATION_KEY, f"R{n}") not in tracker._groups  # truly off-path
    assert result.checks_consulted == expected
    assert result.rerun_checks == expected
    # The implication outcome was reused wholesale, not re-run.
    assert _implication_outcome(tracker) is implication_before
    assert oracle.fingerprint(result.report) == _scratch(edited, prop)


def test_on_path_edit_also_reruns_its_propagation_checks():
    n = 5
    prop = full_mesh_liveness_property(n)
    ws, tracker = _verified(build_full_mesh(n), prop)
    implication_before = _implication_outcome(tracker)

    edited = full_mesh_single_router_edit(n, router="R2")  # on the witness path
    result = reverify(ws, edited)
    # The bogon deny overlaps the short-prefix constraint, so the import
    # propagation check at R2 now genuinely fails — a localized failure the
    # incremental run must detect from R2's groups alone.
    assert not result.report.passed
    expected = owner_check_count(tracker, "R2")
    assert len(tracker._groups[(*PROPAGATION_KEY, "R2")].stats) > 0  # import from E2, export to R3
    assert result.checks_consulted == expected
    assert _implication_outcome(tracker) is implication_before
    assert oracle.fingerprint(result.report) == _scratch(edited, prop)


def test_breaking_edit_detected_incrementally_and_revertible():
    prop = customer_liveness_property()
    ws, tracker = _verified(build_figure1(), prop)
    assert last_result(ws).report.passed

    broken = build_figure1(buggy_r3_strip=True)
    result = reverify(ws, broken)
    assert not result.report.passed
    assert result.rerun_checks == owner_check_count(tracker, "R3")
    assert oracle.fingerprint(result.report) == _scratch(broken, prop)

    # Reverting the edit re-runs R3's groups again and passes.
    reverted = reverify(ws, build_figure1())
    assert reverted.report.passed
    assert reverted.rerun_checks == result.rerun_checks


def test_external_asn_edit_recomputes_everything():
    """Regression guard shared with the safety verifier: ``set_external_asn``
    changes no router digest, yet must invalidate every cached outcome."""
    n = 5
    prop = full_mesh_liveness_property(n)
    ws, tracker = _verified(build_full_mesh(n), prop)
    initial = last_result(ws)
    assert tracker.universe_builds == 1

    edited = full_mesh_external_asn_edit(n)
    result = reverify(ws, edited)
    total = result.rerun_checks + result.cached_checks
    assert result.rerun_checks == total  # nothing reused
    assert result.cached_checks == 0
    assert tracker.universe_builds == 2  # the universe content genuinely changed
    assert oracle.fingerprint(result.report) == _scratch(edited, prop)
    assert total == initial.rerun_checks


def test_unchanged_owners_are_not_reencoded():
    n = 5
    ws, __ = _verified(build_full_mesh(n), full_mesh_liveness_property(n))
    sizes_before = ws.sessions.encoding_sizes()

    result = reverify(ws, full_mesh_single_router_edit(n))
    assert result.report.passed
    sizes_after = ws.sessions.encoding_sizes()
    grown = {k for k in sizes_after if sizes_after[k] != sizes_before.get(k)}
    assert grown == {f"R{n}"}  # only the edited owner's session grew


def test_noop_reverify_adds_no_encoding():
    n = 5
    ws, __ = _verified(build_full_mesh(n), full_mesh_liveness_property(n))
    encoded = ws.sessions.total_encoding()
    reverify(ws, build_full_mesh(n))
    assert ws.sessions.total_encoding() == encoded


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_randomized_edit_sequence_matches_fresh_pipeline(seed):
    """Differential: a chain of random reverifies equals fresh runs."""
    n = 4
    rng = random.Random(seed)
    prop = full_mesh_liveness_property(n)
    ws, __ = _verified(build_full_mesh(n), prop)
    # The mutation mix makes the sequence hit both pass and fail outcomes
    # across seeds; each step must agree with a from-scratch pipeline.
    for __ in range(3):
        edited = build_full_mesh(n)
        for ___ in range(rng.randrange(1, 3)):
            oracle.random_edit(edited, rng, n)
        result = reverify(ws, edited)
        assert oracle.fingerprint(result.report) == _scratch(edited, prop)


def test_conflict_budget_is_threaded_to_run_checks(monkeypatch):
    import repro.core.exec.scheduler as mod

    captured = []
    real = mod.run_in_sessions

    def spy(checks, config, universe, ghosts, conflict_budget, *rest):
        captured.append(conflict_budget)
        return real(checks, config, universe, ghosts, conflict_budget, *rest)

    monkeypatch.setattr(mod, "run_in_sessions", spy)
    ws, __ = _verified(
        build_figure1(), customer_liveness_property(), conflict_budget=7777
    )
    reverify(ws, build_figure1(buggy_r3_strip=True))
    assert captured and all(budget == 7777 for budget in captured)


def test_topology_change_triggers_full_rerun():
    n = 4
    prop = full_mesh_liveness_property(n)
    ws, __ = _verified(build_full_mesh(n), prop)
    initial = last_result(ws)

    grown = build_full_mesh(n + 1)  # same path, one more router and external
    result = reverify(ws, grown)
    assert result.report.passed
    assert result.cached_checks == 0
    assert result.rerun_checks > initial.rerun_checks
    assert oracle.fingerprint(result.report) == _scratch(grown, prop)
