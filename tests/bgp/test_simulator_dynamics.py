"""Simulator dynamics: selection churn, multiple prefixes, preferences."""

from __future__ import annotations

import pytest

from repro.bgp.prefix import Prefix
from repro.bgp.route import Route
from repro.bgp.simulator import ConvergenceError, EventKind, Simulator
from repro.bgp.topology import Edge
from repro.workloads.figure1 import build_figure1
from repro.workloads.fullmesh import build_full_mesh
from repro.workloads.randomnet import build_random_network


def test_higher_local_pref_wins_across_neighbors():
    # R2 hears 99/8 from ISP2 (eBGP) and from R1 via iBGP (ISP1-learned,
    # default LP).  Give ISP2's copy a higher LP via a longer AS path on
    # ISP1's: tie-break by AS-path length (ISP2 path shorter).
    config = build_figure1()
    prefix = Prefix.parse("99.0.0.0/8")
    result = Simulator(config).run(
        {
            "ISP1": [Route(prefix=prefix, as_path=(100, 7, 8))],
            "ISP2": [Route(prefix=prefix)],
        }
    )
    selected = result.selected("R2", prefix)
    assert selected is not None
    assert selected.as_path == (200,)  # ISP2's shorter path wins


def test_selection_replaced_when_better_route_arrives():
    # In the mesh, R3 first learns E1's route via R1 (iBGP).  E3 announces
    # the same prefix directly (shorter path after import at R3): the
    # selection must switch — visible as two slct events for the prefix.
    config = build_full_mesh(3)
    prefix = Prefix.parse("99.0.0.0/8")
    result = Simulator(config).run(
        {
            "E1": [Route(prefix=prefix)],
            "E3": [Route(prefix=prefix)],
        }
    )
    selected = result.selected("R3", prefix)
    assert selected is not None
    # Direct eBGP route from E3: path [1003].
    assert selected.as_path == (1003,)


def test_multiple_prefixes_tracked_independently():
    config = build_figure1()
    p1, p2 = Prefix.parse("99.0.0.0/8"), Prefix.parse("98.0.0.0/8")
    result = Simulator(config).run(
        {"ISP1": [Route(prefix=p1)], "ISP2": [Route(prefix=p2)]}
    )
    assert result.selected("R1", p1) is not None
    assert result.selected("R2", p2) is not None
    # Each propagates to the other router over iBGP.
    assert result.selected("R2", p1) is not None
    assert result.selected("R1", p2) is not None


def test_duplicate_announcements_produce_no_duplicate_forwards():
    config = build_figure1()
    route = Route(prefix=Prefix.parse("20.1.0.0/16"))
    result = Simulator(config).run({"Customer": [route, route]})
    frwd = result.events_at(Edge("R3", "R2"), EventKind.FRWD)
    assert len(frwd) == 1


def test_rounds_bounded_on_larger_networks():
    config = build_full_mesh(8)
    routes = [Route(prefix=p) for p in Prefix.parse("99.0.0.0/8").subprefixes(10)]
    result = Simulator(config).run({"E1": routes[:4], "E5": routes[4:8]})
    assert result.rounds < 20


def test_convergence_error_on_zero_budget():
    config = build_figure1()
    with pytest.raises(ConvergenceError):
        Simulator(config).run(
            {"Customer": [Route(prefix=Prefix.parse("20.1.0.0/16"))]}, max_rounds=0
        )


@pytest.mark.parametrize("model", ["gnp", "ba", "ring"])
@pytest.mark.parametrize("seed", range(6))
def test_simulation_is_deterministic(seed, model):
    config = build_random_network(6, model=model, seed=seed)
    announcements = {
        "E1": [Route(prefix=Prefix.parse("50.0.0.0/8"))],
        "E3": [Route(prefix=Prefix.parse("50.0.0.0/8"), med=5)],
    }
    a = Simulator(config).run(announcements)
    b = Simulator(config).run(announcements)
    assert a.events == b.events
    assert a.best == b.best


@pytest.mark.parametrize("seed", range(4))
def test_failed_both_directions_isolates_segment(seed):
    # Failing both directions of every edge incident to R1 (except its own
    # external) must keep E1's routes from appearing anywhere else.
    config = build_random_network(6, model="gnp", seed=seed)
    failed = set()
    for edge in config.topology.edges:
        if "R1" in (edge.src, edge.dst) and edge != Edge("E1", "R1") and edge != Edge("R1", "E1"):
            failed.add(edge)
    result = Simulator(config, failed_edges=failed).run(
        {"E1": [Route(prefix=Prefix.parse("50.0.0.0/8"))]}
    )
    for router in config.topology.routers - {"R1"}:
        assert result.selected(router, Prefix.parse("50.0.0.0/8")) is None
