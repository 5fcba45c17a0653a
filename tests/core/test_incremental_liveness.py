"""Tests for incremental liveness re-verification (§5 through the tracker).

Driven through ``Workspace.verify/apply/reverify``.  The pinned claims
mirror the safety-side suite in ``test_incremental.py``:

* a single-router edit consults only that owner's check groups — its
  propagation checks (if it sits on the witness path) and its owner group
  inside every no-interference sub-proof — and **never** the final
  implication;
* outcomes are identical to a fresh ``verify_liveness`` on the edited
  configuration (pass, fail, and external-ASN-edit cases, plus randomized
  edit sequences);
* a network-level edit (``set_external_asn``) invalidates everything;
* unchanged owners are never re-encoded (the session pool's per-owner
  encoding sizes are the witness);
* ``conflict_budget`` is threaded through to the scheduler.
"""

from __future__ import annotations

import random

import pytest

from repro.bgp.policy import (
    DeleteCommunity,
    Disposition,
    MatchPrefix,
    RouteMap,
    RouteMapClause,
)
from repro.bgp.prefix import Prefix, PrefixRange
from repro.core.liveness import IMPLICATION_KEY, PROPAGATION_KEY, verify_liveness
from repro.core.workspace import Workspace
from repro.workloads.figure1 import build_figure1
from repro.workloads.fullmesh import (
    TRANSIT_COMMUNITY,
    build_full_mesh,
    full_mesh_external_asn_edit,
    full_mesh_liveness_property,
    full_mesh_single_router_edit,
)

from tests.core.conftest import (
    customer_liveness_property,
    last_result,
    owner_check_count,
    reverify,
)


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


def _liveness_fp(report):
    """Order-insensitive per-section fingerprint.

    The tracker assembles each section from its owner groups, so within a
    section the outcome *order* differs from a fresh pipeline; the *set*
    of (check, outcome) pairs must not.
    """
    return (
        sorted(_outcome_fp(o) for o in report.propagation_outcomes),
        _outcome_fp(report.implication_outcome),
        {
            router: sorted(_outcome_fp(o) for o in rep.outcomes)
            for router, rep in report.interference_reports.items()
        },
    )


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
    fresh = verify_liveness(config, prop)
    assert result.report.passed
    assert result.report.num_checks == fresh.num_checks
    assert _liveness_fp(result.report) == _liveness_fp(fresh)
    assert result.cached_checks == 0
    assert result.rerun_checks == fresh.num_checks
    assert result.checks_consulted == fresh.num_checks


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
    assert _liveness_fp(result.report) == _liveness_fp(initial.report)


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
    assert _liveness_fp(result.report) == _liveness_fp(verify_liveness(edited, prop))


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
    fresh = verify_liveness(edited, prop)
    assert not fresh.passed
    assert not result.report.passed
    expected = owner_check_count(tracker, "R2")
    assert len(tracker._groups[(*PROPAGATION_KEY, "R2")].stats) > 0  # import from E2, export to R3
    assert result.checks_consulted == expected
    assert _implication_outcome(tracker) is implication_before
    assert _liveness_fp(result.report) == _liveness_fp(fresh)


def test_breaking_edit_detected_incrementally_and_revertible():
    prop = customer_liveness_property()
    ws, tracker = _verified(build_figure1(), prop)
    assert last_result(ws).report.passed

    broken = build_figure1(buggy_r3_strip=True)
    result = reverify(ws, broken)
    assert not result.report.passed
    assert result.rerun_checks == owner_check_count(tracker, "R3")
    assert _liveness_fp(result.report) == _liveness_fp(verify_liveness(broken, prop))

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
    assert _liveness_fp(result.report) == _liveness_fp(verify_liveness(edited, prop))
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


def _random_edit(config, rng, n):
    """Apply one random edit; returns the kind applied.

    Mix of benign (extra bogon deny on an external import), breaking (a
    short-prefix deny on the witness path's R2->R3 export, or a transit-tag
    strip on an internal import), and network-level (external ASN) edits.
    """
    kind = rng.choice(("benign", "break-propagation", "strip", "asn"))
    if kind == "benign":
        router = f"R{rng.randrange(1, n + 1)}"
        external = "E" + router[1:]
        neighbor = config.routers[router].neighbors[external]
        deny = RouteMapClause(
            min(c.seq for c in neighbor.import_map.clauses) - 1,
            Disposition.DENY,
            matches=(MatchPrefix((PrefixRange.parse("192.168.0.0/16 le 32"),)),),
        )
        neighbor.import_map = RouteMap(
            f"{neighbor.import_map.name}-R{rng.randrange(1000)}",
            (deny,) + neighbor.import_map.clauses,
        )
    elif kind == "break-propagation":
        deny_short = RouteMapClause(
            10,
            Disposition.DENY,
            matches=(MatchPrefix((PrefixRange(Prefix.parse("0.0.0.0/0"), 0, 24),)),),
        )
        config.routers["R2"].neighbors["R3"].export_map = RouteMap(
            "BREAK-PROP", (deny_short, RouteMapClause(20))
        )
    elif kind == "strip":
        src = f"R{rng.randrange(1, n + 1)}"
        dst = rng.choice([r for r in config.routers if r != src])
        config.routers[dst].neighbors[src].import_map = RouteMap(
            "STRIP", (RouteMapClause(10, actions=(DeleteCommunity(TRANSIT_COMMUNITY),)),)
        )
    else:
        config.set_external_asn(f"E{rng.randrange(1, n + 1)}", 60000 + rng.randrange(100))
    return kind


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
            _random_edit(edited, rng, n)
        result = reverify(ws, edited)
        fresh = verify_liveness(edited, prop)
        assert result.report.passed == fresh.passed
        assert _liveness_fp(result.report) == _liveness_fp(fresh)


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
    assert _liveness_fp(result.report) == _liveness_fp(verify_liveness(grown, prop))
