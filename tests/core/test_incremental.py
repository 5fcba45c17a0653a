"""Tests for incremental re-verification after per-router config edits.

Driven through ``Workspace.verify/apply/reverify``; the cache accounting
is read off the single entry's ``last_result`` and, where a test pins what
the tracker kept alive, off ``entry.tracker``.
"""

from __future__ import annotations

import copy

from repro.bgp.policy import (
    AddCommunity,
    Disposition,
    MatchCommunity,
    MatchPrefix,
    RouteMap,
    RouteMapClause,
)
from repro.bgp.prefix import Prefix, PrefixRange
from repro.core.workspace import Workspace
from repro.workloads.figure1 import TRANSIT_COMMUNITY, build_figure1

from tests.core.conftest import (
    last_result,
    no_transit_invariants,
    no_transit_property,
    reverify,
)


def _workspace(config, from_isp1, **kwargs):
    return Workspace(config, ghosts=(from_isp1,), **kwargs)


def _verify(ws):
    """First (full) verification of the no-transit problem."""
    ws.verify(no_transit_property(), no_transit_invariants(ws.config))
    return last_result(ws)


def test_initial_run_executes_all_checks(fig1_config, from_isp1):
    ws = _workspace(fig1_config, from_isp1)
    result = _verify(ws)
    assert result.report.passed
    assert result.rerun_checks == 19
    assert result.cached_checks == 0


def test_noop_reverify_reuses_everything(fig1_config, from_isp1):
    ws = _workspace(fig1_config, from_isp1)
    _verify(ws)
    result = reverify(ws, build_figure1())  # identical configuration
    assert result.report.passed
    assert result.rerun_checks == 0
    assert result.cached_checks == 19
    assert result.reuse_fraction == 1.0


def test_single_router_edit_reruns_only_its_checks(fig1_config, from_isp1):
    ws = _workspace(fig1_config, from_isp1)
    _verify(ws)

    # Edit R3's customer import (a benign tweak: extra deny of a bogon).
    updated = build_figure1()
    old_map = updated.routers["R3"].neighbors["Customer"].import_map
    new_clauses = (
        RouteMapClause(
            1,
            Disposition.DENY,
            matches=(MatchPrefix((PrefixRange.parse("192.168.0.0/16 le 32"),)),),
        ),
    ) + old_map.clauses
    updated.routers["R3"].neighbors["Customer"].import_map = RouteMap(
        "CUST-IN", new_clauses
    )

    result = reverify(ws, updated)
    assert result.report.passed
    # R3 owns: imports on Customer->R3, R1->R3, R2->R3 and exports on
    # R3->Customer, R3->R1, R3->R2 = 6 checks.
    assert result.rerun_checks == 6
    assert result.cached_checks == 13


def test_breaking_edit_detected_incrementally(fig1_config, from_isp1):
    ws = _workspace(fig1_config, from_isp1)
    assert _verify(ws).report.passed

    # R2 starts re-tagging... er, stripping the transit community on the
    # iBGP import from R1 — breaking the "no filter strips 100:1" invariant.
    updated = build_figure1()
    from repro.bgp.policy import DeleteCommunity

    updated.routers["R2"].neighbors["R1"].import_map = RouteMap(
        "STRIP",
        (RouteMapClause(10, actions=(DeleteCommunity(TRANSIT_COMMUNITY),)),),
    )
    result = reverify(ws, updated)
    assert not result.report.passed
    assert result.rerun_checks == 6
    blamed = {f.blamed_router for f in result.report.failures}
    assert blamed == {"R2"}

    # Reverting the edit re-runs R2's checks again and passes.
    result2 = reverify(ws, build_figure1())
    assert result2.report.passed
    assert result2.rerun_checks == 6


def test_universe_not_rebuilt_when_nothing_changed(fig1_config, from_isp1):
    """Regression: reverify used to rebuild the universe (and the check
    list) unconditionally; with unchanged digests nothing is rebuilt."""
    ws = _workspace(fig1_config, from_isp1)
    _verify(ws)
    tracker = ws.entries[0].tracker
    assert tracker.universe_builds == 1
    universe = tracker._universe
    groups = {key: id(group) for key, group in tracker._groups.items()}

    reverify(ws, build_figure1())
    assert tracker.universe_builds == 1
    assert tracker._universe is universe  # same object, not an equal rebuild
    # Every owner group object survives untouched — nothing regenerated.
    assert {key: id(group) for key, group in tracker._groups.items()} == groups


def test_universe_object_kept_across_content_preserving_edits(fig1_config, from_isp1):
    """A policy edit that mentions no new communities/ASNs rescans but
    keeps the same universe object, so value-keyed caches stay warm."""
    ws = _workspace(fig1_config, from_isp1)
    _verify(ws)
    tracker = ws.entries[0].tracker
    universe = tracker._universe

    updated = build_figure1()
    old_map = updated.routers["R3"].neighbors["Customer"].import_map
    updated.routers["R3"].neighbors["Customer"].import_map = RouteMap(
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
    result = reverify(ws, updated)
    assert result.rerun_checks == 6
    assert tracker.universe_builds == 1
    assert tracker._universe is universe


def test_universe_rebuilt_when_edit_mentions_new_community(fig1_config, from_isp1):
    ws = _workspace(fig1_config, from_isp1)
    _verify(ws)

    updated = build_figure1()
    from repro.bgp.route import Community

    old_map = updated.routers["R3"].neighbors["Customer"].import_map
    updated.routers["R3"].neighbors["Customer"].import_map = RouteMap(
        "CUST-IN",
        old_map.clauses[:-1]
        + (
            RouteMapClause(
                old_map.clauses[-1].seq,
                old_map.clauses[-1].disposition,
                old_map.clauses[-1].matches,
                old_map.clauses[-1].actions + (AddCommunity(Community(999, 9)),),
            ),
        ),
    )
    result = reverify(ws, updated)
    tracker = ws.entries[0].tracker
    assert tracker.universe_builds == 2  # the universe content genuinely changed
    assert Community(999, 9) in tracker._universe.communities
    assert result.rerun_checks == 6
    assert result.report.passed


def test_reverify_consults_only_the_edited_owners_checks(fig1_config, from_isp1):
    """The owner index makes reverify O(changed owner): a single-router
    edit examines exactly that router's check group, never the full cache."""
    ws = _workspace(fig1_config, from_isp1)
    initial = _verify(ws)
    assert initial.checks_consulted == 19  # a full verify consults everything

    updated = build_figure1()
    old_map = updated.routers["R3"].neighbors["Customer"].import_map
    updated.routers["R3"].neighbors["Customer"].import_map = RouteMap(
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
    result = reverify(ws, updated)
    assert result.checks_consulted == 6  # R3's owner group, nothing else
    assert result.rerun_checks == 6
    assert result.cached_checks == 13


def test_noop_reverify_consults_no_checks(fig1_config, from_isp1):
    ws = _workspace(fig1_config, from_isp1)
    _verify(ws)
    result = reverify(ws, build_figure1())
    assert result.checks_consulted == 0


def test_external_asn_edit_invalidates_all_outcomes():
    """Regression: ``set_external_asn`` on an unchanged topology alters no
    router policy digest, yet changes the universe and AS-path semantics —
    the verifier used to reuse a stale universe and stale outcomes (and
    would have returned the pre-edit PASS here)."""
    from repro.bgp.topology import Edge
    from repro.core.properties import InvariantMap, SafetyProperty
    from repro.core.safety import verify_safety
    from repro.lang.predicates import AsPathHas
    from repro.workloads.fullmesh import (
        INTERNAL_AS,
        build_full_mesh,
        full_mesh_external_asn_edit,
    )

    n = 4
    config = build_full_mesh(n)
    # Exported routes on the eBGP edge R4->E4 carry our ASN (the eBGP
    # prepend) — an invariant sensitive to whether the edge *is* eBGP,
    # which is decided by E4's entry in ``external_asns``.
    prop = SafetyProperty(
        location=Edge("R4", "E4"),
        predicate=AsPathHas(INTERNAL_AS),
        name="exported-has-our-as",
    )
    invariants = InvariantMap(config.topology)
    invariants.set_edge("R4", "E4", AsPathHas(INTERNAL_AS))
    ws = Workspace(config)
    assert ws.verify(prop, invariants).passed

    # E4 joins our AS: the session becomes iBGP, no prepend happens, and
    # the export check must now fail.  Only external_asns changed.
    edited = full_mesh_external_asn_edit(n, asn=INTERNAL_AS)
    assert edited.policy_digests() == config.policy_digests()
    result = reverify(ws, edited)
    assert not result.report.passed
    assert result.cached_checks == 0  # every outcome recomputed
    fresh = verify_safety(edited, prop, invariants)
    assert result.report.passed == fresh.passed
    assert {str(f.check) for f in result.report.failures} == {
        str(f.check) for f in fresh.failures
    }

    # Reverting the ASN restores the pass — again via a full recompute.
    reverted = reverify(ws, build_full_mesh(n))
    assert reverted.report.passed
    assert reverted.cached_checks == 0


def test_external_asn_edit_rescans_universe(fig1_config, from_isp1):
    """The universe is rebuilt on a network-level edit (external ASNs feed
    ``AttributeUniverse.from_config``), even with all router digests
    unchanged."""
    ws = _workspace(fig1_config, from_isp1)
    _verify(ws)
    tracker = ws.entries[0].tracker
    assert tracker.universe_builds == 1

    updated = build_figure1()
    updated.set_external_asn("ISP2", 999)
    result = reverify(ws, updated)
    assert tracker.universe_builds == 2
    assert 999 in tracker._universe.asns
    assert result.cached_checks == 0


def test_conflict_budget_is_threaded_to_run_checks(
    monkeypatch, fig1_config, from_isp1
):
    """Regression: the CLI's --budget used to be dropped on the floor by
    the incremental path — the per-check loop never saw it."""
    import repro.core.exec.scheduler as mod

    captured = []
    real = mod.run_in_sessions

    def spy(checks, config, universe, ghosts, conflict_budget, *rest):
        captured.append(conflict_budget)
        return real(checks, config, universe, ghosts, conflict_budget, *rest)

    monkeypatch.setattr(mod, "run_in_sessions", spy)
    ws = _workspace(fig1_config, from_isp1, conflict_budget=4242)
    _verify(ws)
    reverify(ws, build_figure1())
    assert captured and all(budget == 4242 for budget in captured)


def test_network_digest_key_cannot_collide_with_router_names():
    """The network-level digest entry is a non-string sentinel, so even a
    router literally named "__network__" keeps its own digest slot."""
    from repro.bgp.config import NetworkConfig, RouterConfig
    from repro.bgp.topology import Topology
    from repro.core.incremental import NETWORK_DIGEST_KEY, config_digests

    topo = Topology()
    topo.add_router("__network__")
    topo.add_router("R1")
    topo.add_peering("__network__", "R1")
    config = NetworkConfig(topo)
    config.add_router_config(RouterConfig("__network__", 65000))
    config.add_router_config(RouterConfig("R1", 65000))

    digests = config_digests(config)
    assert NETWORK_DIGEST_KEY in digests
    assert "__network__" in digests
    assert digests[NETWORK_DIGEST_KEY] != digests["__network__"]


def test_topology_change_triggers_full_rerun(fig1_config, from_isp1):
    ws = _workspace(fig1_config, from_isp1)
    _verify(ws)
    pool = ws.sessions

    updated = build_figure1()
    updated.topology.add_external("ISP3")
    updated.set_external_asn("ISP3", 400)
    updated.topology.add_peering("R1", "ISP3")
    from repro.bgp.config import NeighborConfig

    updated.routers["R1"].add_neighbor(NeighborConfig("ISP3", 400))

    result = reverify(ws, updated)
    assert result.cached_checks == 0
    assert result.rerun_checks == 21  # two more edges -> two more checks
    # The reset cleared the workspace's pool in place and the rerun
    # repopulated it: same object, encodings for the new check set.
    assert ws.sessions is pool
    assert len(pool) > 0
