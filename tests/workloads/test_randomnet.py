"""Tests for the random-topology generator and verification on it."""

from __future__ import annotations

import pytest

from repro.core.safety import verify_safety
from repro.workloads.randomnet import build_random_network

from tests.core.conftest import mesh_no_transit


@pytest.mark.parametrize("model", ["gnp", "ba", "ring"])
def test_generator_produces_valid_connected_config(model):
    config = build_random_network(12, model=model, seed=7)
    assert len(config.topology.routers) == 12
    assert not config.validate()
    # Connectivity: every router reaches R1 over internal edges.
    internal = {(e.src, e.dst) for e in config.topology.internal_edges()}
    adjacency: dict[str, set[str]] = {}
    for src, dst in internal:
        adjacency.setdefault(src, set()).add(dst)
    seen = {"R1"}
    frontier = ["R1"]
    while frontier:
        node = frontier.pop()
        for nxt in adjacency.get(node, ()):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    assert seen == config.topology.routers


def test_generator_is_deterministic_per_seed():
    a = build_random_network(10, model="gnp", seed=3)
    b = build_random_network(10, model="gnp", seed=3)
    assert a.topology.edges == b.topology.edges
    c = build_random_network(10, model="gnp", seed=4)
    assert a.topology.edges != c.topology.edges


def test_generator_rejects_bad_inputs():
    with pytest.raises(ValueError):
        build_random_network(1)
    with pytest.raises(ValueError):
        build_random_network(5, model="mystery")


@pytest.mark.parametrize("model", ["gnp", "ba", "ring"])
def test_no_transit_verifies_on_random_topologies(model):
    config = build_random_network(10, model=model, seed=11)
    ghost, prop, invariants = mesh_no_transit(config)
    report = verify_safety(config, prop, invariants, ghosts=(ghost,))
    assert report.passed, "\n".join(f.explain() for f in report.failures)


def test_check_count_tracks_edge_count_not_topology():
    # Same router count, different shapes: checks == edges-into-routers +
    # edges-out-of-routers + 1, regardless of structure.
    for model in ("gnp", "ba", "ring"):
        config = build_random_network(14, model=model, seed=2)
        ghost, prop, invariants = mesh_no_transit(config)
        report = verify_safety(config, prop, invariants, ghosts=(ghost,))
        edges = config.topology.edges
        into = sum(1 for e in edges if config.topology.is_router(e.dst))
        out = sum(1 for e in edges if config.topology.is_router(e.src))
        assert report.num_checks == into + out + 1
        assert report.max_vars <= 30  # per-check size stays topology-free
