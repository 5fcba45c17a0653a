"""A parsed network is adjacency sets, not per-edge objects.

Parsing, validating, digesting and diffing a configuration construct no
:class:`Edge`; incremental check generation and invariant overrides touch
only the edges they name, never the whole edge set; and nothing derived
from the adjacency is stored, so a config pickles the same whatever was
asked of it.
"""

from __future__ import annotations

import pickle

import pytest

from repro.bgp.configdiff import diff_configs
from repro.bgp.configjson import config_from_json, config_to_json
from repro.bgp.topology import Edge, Topology
from repro.core.checks import check_owner, generate_safety_checks
from repro.core.incremental import config_digests
from repro.core.properties import InvariantMap
from repro.lang.predicates import TruePred
from repro.workloads.fullmesh import build_full_mesh
from repro.workloads.wan import build_wan
from repro.workloads.wan_properties import ip_reuse_safety_problem

from tests.core.conftest import mesh_no_transit


@pytest.fixture
def edge_count(monkeypatch):
    """A one-element list counting every ``Edge`` constructed from now on."""
    count = [0]
    original = Edge.__new__

    def counting_new(cls, *args, **kwargs):
        count[0] += 1
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Edge, "__new__", counting_new)
    return count


def _refuse(topology):
    raise AssertionError("Topology.edges was read")


def test_edge_is_a_tuple():
    edge = Edge("R1", "R2")
    assert edge == ("R1", "R2") and hash(edge) == hash(("R1", "R2"))
    assert repr(edge) == "Edge(src='R1', dst='R2')" and str(edge) == "R1->R2"
    assert edge.reversed() == Edge("R2", "R1")
    assert sorted([Edge("R2", "A"), Edge("R1", "Z")]) == [Edge("R1", "Z"), Edge("R2", "A")]
    assert pickle.loads(pickle.dumps(edge)) == edge
    assert type(pickle.loads(pickle.dumps(edge))) is Edge


def test_parse_validate_digest_diff_construct_no_edge(edge_count):
    text = config_to_json(build_full_mesh(20))
    edge_count[0] = 0
    config = config_from_json(text)
    assert config.validate() == []
    config_digests(config)
    assert diff_configs(config, config).is_empty
    assert edge_count[0] == 0


def test_diff_still_sees_a_topology_change():
    base = build_full_mesh(4)
    edited = config_from_json(config_to_json(base))
    edited.topology.add_router("R9")
    assert diff_configs(base, edited).topology_changed
    assert not diff_configs(base, config_from_json(config_to_json(base))).topology_changed


def test_set_edge_does_not_read_the_edge_set(monkeypatch):
    config = build_full_mesh(6)
    monkeypatch.setattr(Topology, "edges", property(_refuse))
    invariants = InvariantMap(config.topology, default=TruePred())
    for dst in ("R2", "R3", "E1"):
        invariants.set_edge("R1", dst, TruePred())
    assert len(invariants.overridden_locations()) == 3
    with pytest.raises(KeyError, match="not in the topology"):
        invariants.set_edge("R1", "E2", TruePred())


def _problems():
    """(config, invariants, property) of a mesh and a WAN problem."""
    mesh = build_full_mesh(12)
    __, prop, invariants = mesh_no_transit(mesh)
    wan = build_wan(2, 3)
    problem = ip_reuse_safety_problem(wan, 0)
    return [
        pytest.param(mesh, invariants, prop, id="fullmesh-12"),
        pytest.param(wan.config, problem.invariants, problem.properties[0], id="wan-2-3"),
    ]


@pytest.mark.parametrize("config, invariants, prop", _problems())
def test_owner_checks_are_the_full_list_filtered(config, invariants, prop, monkeypatch):
    full = generate_safety_checks(config, invariants, prop.location, prop.predicate)
    routers = sorted(config.topology.routers)
    monkeypatch.setattr(Topology, "edges", property(_refuse))
    owner_sets = [{router} for router in routers] + [set(routers[:2]), {"NOT-A-ROUTER"}]
    for owners in owner_sets:
        generated = generate_safety_checks(
            config, invariants, prop.location, prop.predicate, owners=owners
        )
        assert generated == [check for check in full if check_owner(check) in owners]


def test_reading_edges_leaves_no_trace_in_the_pickle():
    config = build_full_mesh(8)
    before = pickle.dumps(config, protocol=5)
    topo = config.topology
    assert len(topo.edges) == 8 * 7 + 2 * 8
    list(topo.internal_edges())
    list(topo.external_edges())
    list(topo.edges_from("R1"))
    topo.canonical()
    assert pickle.dumps(config, protocol=5) == before
    assert set(vars(topo)) == {"_routers", "_externals", "_out", "_in"}
