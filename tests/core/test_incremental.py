"""Tests for incremental re-verification after per-router config edits."""

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
from repro.core.incremental import IncrementalVerifier
from repro.workloads.figure1 import TRANSIT_COMMUNITY, build_figure1

from tests.core.conftest import no_transit_invariants, no_transit_property


def _verifier(config, from_isp1):
    return IncrementalVerifier(
        config,
        no_transit_property(),
        no_transit_invariants(config),
        ghosts=(from_isp1,),
    )


def test_initial_run_executes_all_checks(fig1_config, from_isp1):
    v = _verifier(fig1_config, from_isp1)
    result = v.verify()
    assert result.report.passed
    assert result.rerun_checks == 19
    assert result.cached_checks == 0


def test_noop_reverify_reuses_everything(fig1_config, from_isp1):
    v = _verifier(fig1_config, from_isp1)
    v.verify()
    result = v.reverify(build_figure1())  # identical configuration
    assert result.report.passed
    assert result.rerun_checks == 0
    assert result.cached_checks == 19
    assert result.reuse_fraction == 1.0


def test_single_router_edit_reruns_only_its_checks(fig1_config, from_isp1):
    v = _verifier(fig1_config, from_isp1)
    v.verify()

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

    result = v.reverify(updated)
    assert result.report.passed
    # R3 owns: imports on Customer->R3, R1->R3, R2->R3 and exports on
    # R3->Customer, R3->R1, R3->R2 = 6 checks.
    assert result.rerun_checks == 6
    assert result.cached_checks == 13


def test_breaking_edit_detected_incrementally(fig1_config, from_isp1):
    v = _verifier(fig1_config, from_isp1)
    assert v.verify().report.passed

    # R2 starts re-tagging... er, stripping the transit community on the
    # iBGP import from R1 — breaking the "no filter strips 100:1" invariant.
    updated = build_figure1()
    from repro.bgp.policy import DeleteCommunity

    updated.routers["R2"].neighbors["R1"].import_map = RouteMap(
        "STRIP",
        (RouteMapClause(10, actions=(DeleteCommunity(TRANSIT_COMMUNITY),)),),
    )
    result = v.reverify(updated)
    assert not result.report.passed
    assert result.rerun_checks == 6
    blamed = {f.blamed_router for f in result.report.failures}
    assert blamed == {"R2"}

    # Reverting the edit re-runs R2's checks again and passes.
    result2 = v.reverify(build_figure1())
    assert result2.report.passed
    assert result2.rerun_checks == 6


def test_universe_not_rebuilt_when_nothing_changed(fig1_config, from_isp1):
    """Regression: reverify used to rebuild the universe (and the check
    list) unconditionally; with unchanged digests both must be reused."""
    v = _verifier(fig1_config, from_isp1)
    v.verify()
    assert v.universe_builds == 1
    universe = v._universe
    groups = {owner: id(group) for owner, group in v._checks_by_owner.items()}

    v.reverify(build_figure1())
    assert v.universe_builds == 1
    assert v._universe is universe  # same object, not an equal rebuild
    # Every owner group object survives untouched — nothing regenerated.
    assert {o: id(g) for o, g in v._checks_by_owner.items()} == groups


def test_universe_object_kept_across_content_preserving_edits(fig1_config, from_isp1):
    """A policy edit that mentions no new communities/ASNs rescans but
    keeps the same universe object, so value-keyed caches stay warm."""
    v = _verifier(fig1_config, from_isp1)
    v.verify()
    universe = v._universe

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
    result = v.reverify(updated)
    assert result.rerun_checks == 6
    assert v.universe_builds == 1
    assert v._universe is universe


def test_universe_rebuilt_when_edit_mentions_new_community(fig1_config, from_isp1):
    v = _verifier(fig1_config, from_isp1)
    v.verify()

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
    result = v.reverify(updated)
    assert v.universe_builds == 2  # the universe content genuinely changed
    assert Community(999, 9) in v._universe.communities
    assert result.rerun_checks == 6
    assert result.report.passed


def test_reverify_consults_only_the_edited_owners_checks(fig1_config, from_isp1):
    """The owner index makes reverify O(changed owner): a single-router
    edit examines exactly that router's check group, never the full cache."""
    v = _verifier(fig1_config, from_isp1)
    initial = v.verify()
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
    result = v.reverify(updated)
    assert result.checks_consulted == 6  # R3's owner group, nothing else
    assert result.rerun_checks == 6
    assert result.cached_checks == 13


def test_noop_reverify_consults_no_checks(fig1_config, from_isp1):
    v = _verifier(fig1_config, from_isp1)
    v.verify()
    result = v.reverify(build_figure1())
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
    v = IncrementalVerifier(config, prop, invariants)
    initial = v.verify()
    assert initial.report.passed

    # E4 joins our AS: the session becomes iBGP, no prepend happens, and
    # the export check must now fail.  Only external_asns changed.
    edited = full_mesh_external_asn_edit(n, asn=INTERNAL_AS)
    assert edited.policy_digests() == config.policy_digests()
    result = v.reverify(edited)
    assert not result.report.passed
    assert result.cached_checks == 0  # every outcome recomputed
    fresh = verify_safety(edited, prop, invariants)
    assert result.report.passed == fresh.passed
    assert {str(f.check) for f in result.report.failures} == {
        str(f.check) for f in fresh.failures
    }

    # Reverting the ASN restores the pass — again via a full recompute.
    reverted = v.reverify(build_full_mesh(n))
    assert reverted.report.passed
    assert reverted.cached_checks == 0


def test_external_asn_edit_rescans_universe(fig1_config, from_isp1):
    """The universe is rebuilt on a network-level edit (external ASNs feed
    ``AttributeUniverse.from_config``), even with all router digests
    unchanged."""
    v = _verifier(fig1_config, from_isp1)
    v.verify()
    assert v.universe_builds == 1

    updated = build_figure1()
    updated.set_external_asn("ISP2", 999)
    result = v.reverify(updated)
    assert v.universe_builds == 2
    assert 999 in v._universe.asns
    assert result.cached_checks == 0


def test_conflict_budget_is_threaded_to_run_checks(
    monkeypatch, fig1_config, from_isp1
):
    """Regression: the CLI's --budget used to be dropped on the floor by
    the incremental path — ``run_checks`` never saw it."""
    import repro.core.incremental as mod

    captured = []
    real = mod.Scheduler.run

    def spy(self, *args, **kwargs):
        captured.append(kwargs.get("conflict_budget"))
        return real(self, *args, **kwargs)

    monkeypatch.setattr(mod.Scheduler, "run", spy)
    v = IncrementalVerifier(
        fig1_config,
        no_transit_property(),
        no_transit_invariants(fig1_config),
        ghosts=(from_isp1,),
        conflict_budget=4242,
    )
    v.verify()
    v.reverify(build_figure1())
    assert captured and all(budget == 4242 for budget in captured)


def test_engine_factory_borrows_engine_pools(fig1_config, from_isp1):
    from repro.core.engine import Lightyear

    with Lightyear(fig1_config, ghosts=(from_isp1,)) as engine:
        v = engine.incremental_safety(
            no_transit_property(), no_transit_invariants(fig1_config)
        )
        assert v.sessions is engine.sessions
        assert v.verify().report.passed
        assert len(engine.sessions) > 0
        v.close()
        assert v.sessions is engine.sessions  # still borrowed, still populated
        assert len(engine.sessions) > 0


def test_topology_reset_spares_borrowed_session_pool(fig1_config, from_isp1):
    """A topology change must not clear a *borrowed* session pool: other
    verifiers sharing the engine's pool still want their encodings.  (An
    owned pool is still cleared — that path is memory hygiene only.)"""
    from repro.bgp.config import NeighborConfig
    from repro.core.engine import Lightyear

    with Lightyear(fig1_config, ghosts=(from_isp1,)) as engine:
        v = engine.incremental_safety(
            no_transit_property(), no_transit_invariants(fig1_config)
        )
        v.verify()
        encoded = engine.sessions.total_encoding()
        assert len(engine.sessions) > 0

        grown = build_figure1()
        grown.topology.add_external("ISP3")
        grown.set_external_asn("ISP3", 400)
        grown.topology.add_peering("R1", "ISP3")
        grown.routers["R1"].add_neighbor(NeighborConfig("ISP3", 400))
        result = v.reverify(grown)
        assert result.report.passed
        # The shared pool survived the reset (and only ever grew).
        assert len(engine.sessions) > 0
        assert engine.sessions.total_encoding() >= encoded

    # An owned pool, by contrast, is cleared and repopulated.
    owned = IncrementalVerifier(
        build_figure1(),
        no_transit_property(),
        no_transit_invariants(fig1_config),
        ghosts=(from_isp1,),
    )
    owned.verify()
    pool = owned.sessions
    owned.reverify(grown)
    assert owned.sessions is pool  # same pool object, repopulated


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
    v = _verifier(fig1_config, from_isp1)
    v.verify()

    updated = build_figure1()
    updated.topology.add_external("ISP3")
    updated.set_external_asn("ISP3", 400)
    updated.topology.add_peering("R1", "ISP3")
    from repro.bgp.config import NeighborConfig

    updated.routers["R1"].add_neighbor(NeighborConfig("ISP3", 400))

    result = v.reverify(updated)
    assert result.cached_checks == 0
    assert result.rerun_checks == 21  # two more edges -> two more checks
