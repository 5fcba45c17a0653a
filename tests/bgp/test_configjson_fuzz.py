"""Seeded round-trip tests for the JSON configuration codec: every match
and action kind, nested combinators and originated routes
(``tests/draws.py``)."""

from __future__ import annotations

import random

import pytest

from repro.bgp.config import NeighborConfig, NetworkConfig, RouterConfig
from repro.bgp.configjson import config_from_json, config_to_json
from repro.bgp.topology import Topology

from tests import draws


def _maybe_route_map(rng: random.Random, name: str):
    return draws.route_map(rng, name) if rng.random() < 0.8 else None


def _config(seed: int) -> NetworkConfig:
    """R1 (peering with E1 and R2) and R2, with drawn route maps on three
    sessions and 0–2 originated routes toward E1."""
    rng = random.Random(seed)
    topo = Topology()
    topo.add_router("R1")
    topo.add_router("R2")
    topo.add_external("E1")
    topo.add_peering("R1", "E1")
    topo.add_peering("R1", "R2")
    config = NetworkConfig(topo)
    config.external_asns["E1"] = 100
    r1 = RouterConfig("R1", 65000)
    r1.add_neighbor(
        NeighborConfig(
            "E1",
            100,
            import_map=_maybe_route_map(rng, "E1-IN"),
            export_map=_maybe_route_map(rng, "E1-OUT"),
            originated=tuple(draws.route(rng, ghosts=()) for __ in range(rng.randint(0, 2))),
        )
    )
    r1.add_neighbor(NeighborConfig("R2", 65000))
    r2 = RouterConfig("R2", 65000)
    r2.add_neighbor(NeighborConfig("R1", 65000, import_map=_maybe_route_map(rng, "R1-IN")))
    config.add_router_config(r1)
    config.add_router_config(r2)
    return config


@pytest.mark.parametrize("seed", range(100))
def test_random_configs_roundtrip_through_json(seed):
    config = _config(seed)
    text = config_to_json(config)
    back = config_from_json(text)
    assert back.topology.edges == config.topology.edges
    for name, rc in config.routers.items():
        rc2 = back.routers[name]
        for peer, ncfg in rc.neighbors.items():
            ncfg2 = rc2.neighbors[peer]
            assert ncfg2.import_map == ncfg.import_map
            assert ncfg2.export_map == ncfg.export_map
            assert ncfg2.originated == ncfg.originated
    # Idempotence: a second round trip produces identical text.
    assert config_to_json(back) == text
