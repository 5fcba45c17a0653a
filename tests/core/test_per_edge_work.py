"""A parsed network is adjacency sets, not per-edge objects.

Parsing, validating, digesting and diffing a configuration construct no
:class:`Edge`; incremental check generation and invariant overrides touch
only the edges they name, never the whole edge set; and nothing derived
from the adjacency is stored, so a config pickles the same whatever was
asked of it.  Full check generation walks the sorted adjacency, making
one :class:`Edge` per directed edge and reading each side's session once,
and emits the per-edge checks grouped by owner and class key; the session
loop builds a filter check's transfer policy only when the check runs.
"""

from __future__ import annotations

import pickle

import pytest

from repro.bgp.config import NetworkConfig
from repro.bgp.configdiff import diff_configs
from repro.bgp.configjson import config_from_json, config_to_json
from repro.bgp.prefix import Prefix
from repro.bgp.route import Route
from repro.bgp.topology import Edge, Topology
from repro.core.checks import (
    CheckKind,
    LocalCheck,
    check_owner,
    generate_safety_checks,
    implication_check,
)
from repro.core.exec.pool import run_in_sessions
from repro.core.incremental import config_digests
from repro.core.properties import InvariantMap
from repro.lang import transfer
from repro.lang.predicates import TruePred
from repro.smt.solver import SessionPool
from repro.workloads.fullmesh import build_full_mesh
from repro.workloads.wan import build_wan
from repro.workloads.wan_properties import ip_reuse_safety_problem

from tests import oracle
from tests.core.conftest import class_key, mesh_no_transit, safety_pieces


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
    """(config, ghosts, invariants, property) of a mesh and a WAN problem."""
    mesh = build_full_mesh(12)
    ghost, prop, invariants = mesh_no_transit(mesh)
    wan = build_wan(2, 3)
    problem = ip_reuse_safety_problem(wan, 0)
    return [
        pytest.param(mesh, (ghost,), invariants, prop, id="fullmesh-12"),
        pytest.param(
            wan.config, (problem.ghost,), problem.invariants, problem.properties[0],
            id="wan-2-3",
        ),
    ]


@pytest.mark.parametrize("config, ghosts, invariants, prop", _problems())
def test_owner_checks_are_the_full_list_filtered(config, ghosts, invariants, prop, monkeypatch):
    full = generate_safety_checks(config, invariants, prop.location, prop.predicate, ghosts)
    routers = sorted(config.topology.routers)
    monkeypatch.setattr(Topology, "edges", property(_refuse))
    owner_sets = [{router} for router in routers] + [set(routers[:2]), {"NOT-A-ROUTER"}]
    for owners in owner_sets:
        generated = generate_safety_checks(
            config, invariants, prop.location, prop.predicate, ghosts, owners=owners
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


def _generation_problems():
    """(config, ghost, invariants, property) of a 20-router mesh whose R1
    originates towards E1 and R3 towards R4, and whose R3->R5 invariant
    alone is True (one export goal and one import assumption set apart),
    and of a WAN region's problem."""
    mesh = build_full_mesh(20)
    for router, peer in (("R1", "E1"), ("R3", "R4")):
        mesh.routers[router].neighbors[peer].originated = (
            Route(prefix=Prefix.parse("8.8.0.0/16")),
        )
    ghost, prop, invariants = mesh_no_transit(mesh)
    invariants.set_edge("R3", "R5", TruePred())
    wan = build_wan(3, 3)
    problem = ip_reuse_safety_problem(wan, 0)
    return [
        pytest.param(mesh, ghost, invariants, prop, id="fullmesh-20"),
        pytest.param(
            wan.config, problem.ghost, problem.invariants, problem.properties[0], id="wan-3-3"
        ),
    ]


def _reference_checks(config, invariants, prop):
    """The full check list as the per-edge accessors define it
    (:func:`tests.oracle.per_edge_checks`), then the implication."""
    location = prop.location
    return [
        *oracle.per_edge_checks(config, invariants),
        implication_check(
            location, invariants.get(location), prop.predicate,
            f"I[{location}] implies the property",
        ),
    ]


@pytest.mark.parametrize("config, ghost, invariants, prop", _generation_problems())
def test_full_generation_reads_each_edge_side_once(
    config, ghost, invariants, prop, edge_count, monkeypatch
):
    reference = _reference_checks(config, invariants, prop)
    directed = len(config.topology.edges)

    def refuse(name):
        def refused(*args):
            raise AssertionError(f"NetworkConfig.{name} was called")
        return refused

    for name in ("neighbor_config", "import_map", "export_map", "originate"):
        monkeypatch.setattr(NetworkConfig, name, refuse(name))
    monkeypatch.setattr(Topology, "edges", property(_refuse))
    edge_count[0] = 0
    generated = generate_safety_checks(config, invariants, prop.location, prop.predicate, (ghost,))
    assert edge_count[0] == directed
    # Member by member, the generated checks are the reference's, and each
    # check's members follow the reference order, as the checks' first
    # members do.
    position = {(c.kind, c.edge): i for i, c in enumerate(reference)}
    members = [member for check in generated for member in check.expand()]
    assert sorted(members, key=lambda c: position[c.kind, c.edge]) == reference
    firsts = [position[c.kind, c.edge] for c in generated]
    assert firsts == sorted(firsts)
    for check in generated:
        assert [position[check.kind, e] for e in check.members or ()] == sorted(
            position[check.kind, e] for e in check.members or ()
        )
    originating = [s for r in config.routers.values() for s in r.neighbors.values() if s.originated]
    assert sum(check.kind is CheckKind.ORIGINATE for check in generated) == len(originating)
    monkeypatch.undo()
    # One check per owner and class key, each member of it keyed alike.
    keys = [(check_owner(c), c.key) for c in generated if c.key is not None]
    assert len(keys) == len(set(keys)) < len(members)
    for check in generated:
        for edge in check.members or ():
            assert check.key == class_key(
                config, check.kind, edge, check.assumption, check.goal, (ghost,)
            )


@pytest.mark.parametrize("config, ghost, invariants, prop", _generation_problems())
def test_the_session_loop_builds_a_filter_policy_only_per_run(
    config, ghost, invariants, prop, monkeypatch
):
    universe, checks = safety_pieces(config, ghost, prop, invariants)
    built = []
    original = transfer.transfer_policy

    def counting(config, edge, ghosts, direction):
        built.append((edge, direction))
        return original(config, edge, ghosts, direction)

    ran = []
    original_run = LocalCheck.run

    def counting_run(self, *args, **kwargs):
        ran.append(self)
        return original_run(self, *args, **kwargs)

    monkeypatch.setattr(transfer, "transfer_policy", counting)
    monkeypatch.setattr(LocalCheck, "run", counting_run)
    outcomes = run_in_sessions(checks, config, universe, (ghost,), None, None, None, SessionPool())
    assert len(outcomes) == len(checks)
    filters = [c for c in checks if c.kind in (CheckKind.IMPORT, CheckKind.EXPORT)]
    run_filters = [c for c in ran if c.kind in (CheckKind.IMPORT, CheckKind.EXPORT)]
    # A check answered by its class, or a member by its check's pass,
    # builds no policy: the generated key already holds it.
    assert len(run_filters) < len(filters)
    assert sorted(built) == sorted((c.edge, c.kind.value) for c in run_filters)
