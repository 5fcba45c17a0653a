"""What a reverify consults, re-encodes and rebuilds — the counters no
oracle cell sees.

That a tracker's report after an edit is the hermetic one on the edited
configuration is the oracle's ``tracker``/``reloaded`` cells
(``tests/oracle.py``: one-router edits, a grown topology, an external-ASN
edit, every problem kind).  Pinned here, driven through
``Workspace.verify/apply/reverify``:

* a one-router edit consults exactly that owner's groups — for liveness
  its propagation checks (if on the witness path) and its group in every
  sub-proof, never the implication;
* the universe object survives edits that add no atom, and is rebuilt
  on one that does, or on an external-ASN edit (which reuses nothing);
* a session is built per owner and only the edited owner's grows;
* a chain of random edits through one workspace stays equal to the
  hermetic reference at every step;
* ``conflict_budget`` reaches the scheduler on every run.
"""

from __future__ import annotations

import random

import pytest

from repro.bgp.config import NeighborConfig, NetworkConfig, RouterConfig
from repro.bgp.policy import AddCommunity, RouteMap, RouteMapClause
from repro.bgp.route import Community
from repro.bgp.topology import Topology
from repro.core.incremental import NETWORK_DIGEST_KEY, config_digests
from repro.core.report import IMPLICATION_KEY, PROPAGATION_KEY
from repro.core.workspace import Workspace
from repro.workloads.figure1 import build_figure1
from repro.workloads.fullmesh import build_full_mesh, full_mesh_single_router_edit

from tests import oracle
from tests.core.conftest import owner_check_count, reverify


def _verified(case: str, **kwargs):
    """A workspace that has run ``case``'s problem once, on its network."""
    case = oracle.CASES[case]
    config = case.network()
    ghosts, problem = case.problem(config)
    workspace = Workspace(config, ghosts=ghosts, **kwargs)
    workspace.verify(problem.prop, problem.invariants)
    return workspace, workspace.entries[0].tracker


def _r3_edit():
    return oracle.bogon_edit(build_figure1(), "R3", "Customer")


def test_a_one_router_edit_consults_only_its_owner_group():
    ws, __ = _verified("figure1-safety")
    first = ws.entries[0].report
    assert (first.rerun_checks, first.reused_checks) == (19, 0)
    noop = reverify(ws, build_figure1())
    assert (noop.rerun_checks, noop.reused_checks) == (0, 19)
    # R3 owns imports on Customer->R3, R1->R3, R2->R3 and exports on
    # R3->Customer, R3->R1, R3->R2.
    edited = reverify(ws, _r3_edit())
    assert (edited.rerun_checks, edited.reused_checks) == (6, 13)
    broken = reverify(ws, oracle.CASES["figure1-safety-planted"].config())
    assert broken.rerun_checks == 6 + 6  # R3 back, R2 strips
    assert {f.blamed_router for f in broken.failures} == {"R2"}
    assert reverify(ws, build_figure1()).rerun_checks == 6  # R2 back


def test_a_liveness_edit_never_consults_the_implication():
    ws, tracker = _verified("fullmesh5-liveness")
    implication = tracker._groups[(*IMPLICATION_KEY, None)].kept
    # R5 is off the witness path E2 -> R2 -> R3: its sub-proof groups only.
    off_path = reverify(ws, full_mesh_single_router_edit(5))
    assert (*PROPAGATION_KEY, "R5") not in tracker._groups
    assert off_path.rerun_checks == owner_check_count(tracker, "R5")
    # R2 is on it: its propagation checks too (the bogon deny overlaps the
    # short-prefix constraint, so one now fails, found from R2's groups).
    on_path = reverify(ws, full_mesh_single_router_edit(5, router="R2"))
    assert len(tracker._groups[(*PROPAGATION_KEY, "R2")].stats) > 0
    assert on_path.rerun_checks == owner_check_count(tracker, "R2") + owner_check_count(tracker, "R5")
    assert not on_path.passed
    assert tracker._groups[(*IMPLICATION_KEY, None)].kept is implication  # reused wholesale


@pytest.mark.parametrize("case", ["figure1-safety", "figure1-liveness"])
def test_the_universe_is_rebuilt_only_when_its_atoms_change(case):
    ws, tracker = _verified(case)
    universe = tracker._universe
    groups = {key: id(group) for key, group in tracker._groups.items()}
    reverify(ws, build_figure1())
    # Nothing changed: no universe, no group regenerated.
    assert {key: id(group) for key, group in tracker._groups.items()} == groups
    # A benign edit rescans to the same content: the same object survives.
    assert reverify(ws, _r3_edit()).rerun_checks == owner_check_count(tracker, "R3")
    assert tracker.universe_builds == 1 and tracker._universe is universe

    tagged = build_figure1()
    session = tagged.routers["R3"].neighbors["Customer"]
    *head, last = session.import_map.clauses
    extra = RouteMapClause(last.seq, last.disposition, last.matches, (*last.actions, AddCommunity(Community(999, 9))))
    session.import_map = RouteMap("CUST-IN", (*head, extra))
    result = reverify(ws, tagged)
    assert result.passed and result.rerun_checks == owner_check_count(tracker, "R3")
    assert tracker.universe_builds == 2 and Community(999, 9) in tracker._universe.communities

    # An external ASN is in no router's digest, yet in the universe and
    # in AS-path semantics: nothing is reused.
    asn = build_figure1()
    asn.set_external_asn("ISP2", 999)
    assert reverify(ws, asn).reused_checks == 0
    assert tracker.universe_builds == 3 and 999 in tracker._universe.asns


@pytest.mark.parametrize("case", ["figure1-safety", "fullmesh5-liveness"])
def test_sessions_are_per_owner_and_only_the_edited_owner_grows(case):
    ws, tracker = _verified(case)
    pool = ws.sessions
    routers = set(ws.config.routers)
    assert set(pool.keys()) == routers | {None}  # the implication owns None
    assert pool.created == len(routers) + 1
    before, discharged = pool.encoding_sizes(), pool.checks_discharged

    noop = reverify(ws, oracle.CASES[case].network())
    assert (noop.rerun_checks, noop.reused_checks) == (0, noop.num_checks)
    assert (pool.encoding_sizes(), pool.checks_discharged) == (before, discharged)

    edited = (lambda: _r3_edit()) if case.startswith("figure1") else (
        lambda: full_mesh_single_router_edit(5, router="R3")
    )
    reverify(ws, edited())
    after = pool.encoding_sizes()
    assert pool.created == len(routers) + 1  # kept, none rebuilt
    assert {key for key in after if after[key] != before[key]} == {"R3"}
    assert after["R3"][0] > before["R3"][0]  # the deny needs new terms

    # Flip-flopping re-solves but encodes nothing new: both policies of
    # R3 are in its session already.
    reverify(ws, oracle.CASES[case].network())
    reverify(ws, edited())
    assert pool.encoding_sizes() == after


def test_a_topology_change_reruns_everything_on_the_same_pool():
    ws, __ = _verified("figure1-safety")
    pool = ws.sessions
    grown = build_figure1()
    grown.topology.add_external("ISP3")
    grown.set_external_asn("ISP3", 400)
    grown.topology.add_peering("R1", "ISP3")
    grown.routers["R1"].add_neighbor(NeighborConfig("ISP3", 400))
    result = reverify(ws, grown)
    assert (result.reused_checks, result.rerun_checks) == (0, 21)  # two more edges
    assert ws.sessions is pool and len(pool) > 0  # cleared in place, refilled


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("kind", ["safety", "liveness"])
def test_a_chain_of_random_edits_stays_hermetic(kind, seed):
    # One workspace through four reverifies: router edits (benign and
    # breaking), an external ASN and a topology change between the 4- and
    # 5-router mesh; the problem is stated over the larger.
    rng = random.Random(seed)
    ghosts, problem = oracle.mesh_problem(kind, 5)
    ws = Workspace(build_full_mesh(4), ghosts=ghosts)
    ws.verify(problem.prop, problem.invariants)
    size, steps = 4, ["router", "router", "asn", "topology"]
    rng.shuffle(steps)
    for step in steps:
        if step == "topology":
            size = 9 - size
        edited = build_full_mesh(size)
        if step == "asn":
            edited.set_external_asn(f"E{rng.randrange(1, size + 1)}", 64000 + seed)
        else:
            for __ in range(rng.randrange(1, 3)):
                oracle.random_edit(edited, rng, size)
        report = reverify(ws, edited)
        assert oracle.fingerprint(report) == oracle.reference(edited, ghosts, problem), step
        if step in ("asn", "topology"):
            assert report.reused_checks == 0, step


@pytest.mark.parametrize("case", ["figure1-safety", "figure1-liveness"])
def test_the_conflict_budget_reaches_every_run(case, monkeypatch):
    import repro.core.exec.scheduler as mod

    captured, real = [], mod.run_in_sessions

    def spy(checks, config, universe, ghosts, conflict_budget, *rest):
        captured.append(conflict_budget)
        return real(checks, config, universe, ghosts, conflict_budget, *rest)

    monkeypatch.setattr(mod, "run_in_sessions", spy)
    ws, __ = _verified(case, conflict_budget=4242)
    reverify(ws, oracle.CASES[f"{case}-planted"].config())
    assert captured and set(captured) == {4242}


def test_the_network_digest_key_cannot_collide_with_a_router_name():
    topology = Topology()
    for name in ("__network__", "R1"):
        topology.add_router(name)
    topology.add_peering("__network__", "R1")
    config = NetworkConfig(topology)
    for name in ("__network__", "R1"):
        config.add_router_config(RouterConfig(name, 65000))
    digests = config_digests(config)
    assert digests[NETWORK_DIGEST_KEY] != digests["__network__"]
