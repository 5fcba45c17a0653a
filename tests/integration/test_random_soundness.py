"""Soundness cross-validation on random topologies.

Generalises the Figure 1 soundness test: for several random internal
graphs, verify the no-transit property once, then simulate randomized
announcements and failures and assert no trace violates it.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.prefix import Prefix
from repro.bgp.route import Route
from repro.bgp.simulator import EventKind, Simulator
from repro.bgp.topology import Edge
from repro.core.safety import verify_safety
from repro.workloads.fullmesh import TRANSIT_COMMUNITY
from repro.workloads.randomnet import build_random_network

from tests.core.conftest import mesh_no_transit


_CONFIGS = {
    (model, seed): build_random_network(8, model=model, seed=seed)
    for model in ("gnp", "ba", "ring")
    for seed in (0, 1)
}
for _cfg in _CONFIGS.values():
    _ghost, _prop, _invariants = mesh_no_transit(_cfg)
    assert verify_safety(_cfg, _prop, _invariants, ghosts=(_ghost,)).passed


@st.composite
def scenario(draw):
    key = draw(st.sampled_from(sorted(_CONFIGS)))
    config = _CONFIGS[key]
    pools = {
        "E1": Prefix.parse("50.0.0.0/8"),
        "E3": Prefix.parse("60.0.0.0/8"),
        "E4": Prefix.parse("70.0.0.0/8"),
    }
    announcements = {}
    for ext, pool in pools.items():
        subs = list(pool.subprefixes(10))[:4]
        chosen = draw(st.lists(st.sampled_from(subs), max_size=2))
        announcements[ext] = [
            Route(prefix=p, med=draw(st.integers(0, 20))) for p in chosen
        ]
    edges = sorted(config.topology.edges)
    failures = set(draw(st.sets(st.sampled_from(edges), max_size=3)))
    return config, announcements, failures


@settings(max_examples=50, deadline=None)
@given(scenario())
def test_no_transit_holds_on_random_networks(case):
    config, announcements, failures = case
    result = Simulator(config, failed_edges=failures).run(announcements)
    e1_prefixes = {r.prefix for r in announcements["E1"]}
    for event in result.events:
        if event.location == Edge("R2", "E2") and event.kind is EventKind.FRWD:
            assert event.route.prefix not in e1_prefixes


@pytest.mark.parametrize("model", ["gnp", "ba", "ring"])
def test_e1_route_blocked_even_on_shortest_path(model):
    config = _CONFIGS[(model, 0)]
    route = Route(prefix=Prefix.parse("50.1.0.0/16"))
    result = Simulator(config).run({"E1": [route]})
    assert result.routes_forwarded_on(Edge("R2", "E2")) == []
    # The route does propagate inside the network (tagged).
    selected = result.selected("R1", route.prefix)
    assert selected is not None
    assert TRANSIT_COMMUNITY in selected.communities
