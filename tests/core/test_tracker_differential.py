"""Incremental ≡ full ≡ cache-loaded, for both property kinds.

One :class:`repro.core.incremental.PropertyTracker` serves safety and
liveness, so one differential test covers both: after every step of a
randomised edit sequence — single-router edits (benign and breaking),
external-ASN edits, topology changes — the tracker's report must equal a
from-scratch ``verify_safety``/``verify_liveness`` on the edited
configuration, and its accounting must add up.  A second test pins that a
tracker restored by ``Workspace.load`` behaves exactly like the one that
was saved.  A third pins the reference itself: on a first run, for every
problem kind (a property family included), ``run_problem`` ≡ the tracker ≡
the tracker restored from its pickled state.
"""

from __future__ import annotations

import pickle
import random

import pytest

from repro.bgp.policy import DeleteCommunity, RouteMap, RouteMapClause
from repro.bgp.topology import Edge
from repro.core.exec import ExecutionContext
from repro.core.incremental import PropertyTracker
from repro.core.liveness import LivenessProblem, verify_liveness
from repro.core.properties import InvariantMap, SafetyProperty
from repro.core.safety import SafetyProblem, run_problem, verify_safety
from repro.core.workspace import Workspace
from repro.lang.ghost import GhostAttribute
from repro.lang.predicates import GhostIs, HasCommunity, Implies, Not
from repro.workloads.fullmesh import (
    TRANSIT_COMMUNITY,
    build_full_mesh,
    full_mesh_liveness_property,
    full_mesh_single_router_edit,
)

from repro.workloads.figure1 import build_figure1
from repro.workloads.wan import build_wan
from repro.workloads.wan_properties import (
    ip_reuse_liveness_problem,
    ip_reuse_safety_problem,
)

from tests.core.conftest import (
    customer_liveness_property,
    last_result,
    no_transit_invariants,
    no_transit_property,
    reverify,
)
from tests.core.test_incremental_liveness import _outcome_fp, _random_edit

#: Topology edits switch between the N- and (N+1)-router mesh.
N = 4


def _problem(kind):
    """(ghosts, ``Workspace.verify`` arguments, one-shot reference)."""
    if kind == "liveness":
        prop = full_mesh_liveness_property(N)
        return (), (prop,), lambda config: verify_liveness(config, prop)
    # Ghost and invariants are built over the larger mesh, so they are
    # right for both sizes (they are only ever *read* per edge).
    topology = build_full_mesh(N + 1).topology
    ghost = GhostAttribute.source_tracker("FromE1", topology, [Edge("E1", "R1")])
    prop = SafetyProperty(
        location=Edge("R2", "E2"), predicate=Not(GhostIs("FromE1")), name="no-transit"
    )
    invariants = InvariantMap(
        topology, default=Implies(GhostIs("FromE1"), HasCommunity(TRANSIT_COMMUNITY))
    )
    invariants.set_edge("R2", "E2", Not(GhostIs("FromE1")))
    return (
        (ghost,),
        (prop, invariants),
        lambda config: verify_safety(config, prop, invariants, ghosts=(ghost,)),
    )


def _fp(outcome):
    failure = outcome.failure
    return (
        *_outcome_fp(outcome),
        outcome.unknown_reason,
        failure and (failure.check.edge, failure.blamed_router),
    )


def _report_fp(report):
    """Per-section outcome multisets (the tracker lists a section owner
    group by owner group, a one-shot run edge by edge): checks, verdicts,
    witness routes, UNKNOWN reasons and blamed edges."""
    if hasattr(report, "interference_reports"):
        sections = [
            report.propagation_outcomes,
            [report.implication_outcome],
            *(sub.outcomes for sub in report.interference_reports.values()),
        ]
    else:
        sections = [report.outcomes]
    return [sorted(map(_fp, section), key=repr) for section in sections]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("kind", ["safety", "liveness"])
def test_tracker_matches_from_scratch_over_random_edit_sequences(kind, seed):
    rng = random.Random(seed)
    ghosts, problem, from_scratch = _problem(kind)
    ws = Workspace(build_full_mesh(N), ghosts=ghosts)
    ws.verify(*problem)

    size = N
    steps = ["router", "router", "asn", "topology"]
    rng.shuffle(steps)
    for step in steps:
        if step == "topology":
            size = 2 * N + 1 - size  # N <-> N + 1
        edited = build_full_mesh(size)
        if step == "asn":
            edited.set_external_asn(f"E{rng.randrange(1, size + 1)}", 64000 + seed)
        else:
            for __ in range(rng.randrange(1, 3)):
                _random_edit(edited, rng, size)

        result = reverify(ws, edited)
        scratch = from_scratch(edited)
        assert result.report.passed == scratch.passed, (kind, seed, step)
        assert _report_fp(result.report) == _report_fp(scratch), (kind, seed, step)
        assert result.rerun_checks + result.cached_checks == scratch.num_checks
        assert result.checks_consulted == result.rerun_checks
        if step in ("asn", "topology"):
            assert result.cached_checks == 0, step  # nothing survives these


@pytest.mark.parametrize("kind", ["safety", "liveness"])
def test_loaded_tracker_reverifies_like_the_saved_one(kind, tmp_path):
    ghosts, problem, from_scratch = _problem(kind)
    ws = Workspace(build_full_mesh(N), ghosts=ghosts)
    ws.verify(*problem)
    path = tmp_path / "workspace.lyc"
    ws.save(path)
    loaded = Workspace.load(path, config=build_full_mesh(N), ghosts=ghosts)
    with pytest.raises(TypeError):
        Workspace.load(path, sessions=None)  # a workspace owns its pool

    # R2 sits on the liveness witness path and owns safety checks too; the
    # bogon deny makes the liveness propagation check fail, so the pair
    # covers a passing and a failing reverify.
    edited = full_mesh_single_router_edit(N, router="R2")
    in_process = reverify(ws, edited)
    from_disk = reverify(loaded, edited)
    assert _report_fp(from_disk.report) == _report_fp(in_process.report)
    assert _report_fp(from_disk.report) == _report_fp(from_scratch(edited))
    for counter in ("rerun_checks", "cached_checks", "checks_consulted"):
        assert getattr(from_disk, counter) == getattr(in_process, counter), counter
    assert 0 < from_disk.rerun_checks < last_result(ws).report.num_checks


# -- the reference stays a reference -----------------------------------


def _figure1():
    config = build_figure1()
    ghost = GhostAttribute.source_tracker("FromISP1", config.topology, [Edge("ISP1", "R1")])
    prop, invariants = no_transit_property(), no_transit_invariants(config)
    return config, (ghost,), {
        "safety": SafetyProblem(prop, invariants),
        "family": SafetyProblem([prop], invariants),
        "liveness": LivenessProblem(customer_liveness_property()),
    }


def _fullmesh():
    # R3 strips the transit tag on its import from R1 (a blamed edge), and
    # the family's second property fails its implication (no edge at all).
    config = build_full_mesh(N + 1)
    strip = RouteMapClause(10, actions=(DeleteCommunity(TRANSIT_COMMUNITY),))
    config.routers["R3"].neighbors["R1"].import_map = RouteMap("STRIP", (strip,))
    ghosts, (prop, invariants), __ = _problem("safety")
    elsewhere = SafetyProperty(Edge("R3", "E3"), prop.predicate, name="no-transit")
    return config, ghosts, {
        "safety": SafetyProblem(prop, invariants),
        "family": SafetyProblem([prop, elsewhere], invariants),
        "liveness": LivenessProblem(full_mesh_liveness_property(N + 1)),
    }


def _wan():
    wan = build_wan(2, 3)
    safety, liveness = ip_reuse_safety_problem(wan, 0), ip_reuse_liveness_problem(wan, 0)
    return wan.config, (safety.ghost,), {
        "safety": SafetyProblem(safety.properties[0], safety.invariants),
        "family": safety.problem(),
        "liveness": liveness.problem(),
    }


@pytest.mark.parametrize("kind", ["safety", "family", "liveness"])
@pytest.mark.parametrize("network", [_figure1, _fullmesh, _wan], ids=lambda f: f.__name__[1:])
def test_run_problem_is_the_reference(network, kind):
    config, ghosts, problems = network()
    problem = problems[kind]
    reference = run_problem(ExecutionContext(), problem, config, ghosts)
    tracker = PropertyTracker(ExecutionContext(), problem, ghosts)
    first = tracker.run(config)
    assert first.rerun_checks == reference.num_checks and first.cached_checks == 0

    # What Workspace.save/load does to a tracker: pickle its state, rebuild
    # the problem from the persisted (prop, invariants), restore.
    state = pickle.loads(pickle.dumps(tracker.state_dict()))
    rebuilt = type(problem)(state["prop"], state["invariants"])
    restored = PropertyTracker.from_state(ExecutionContext(), rebuilt, state, ghosts)
    again = restored.run(config)
    assert again.rerun_checks == 0 and again.cached_checks == reference.num_checks

    # The restored tracker lays its report out exactly like the saved one...
    assert list(map(_fp, again.report.iter_outcomes())) == list(
        map(_fp, first.report.iter_outcomes())
    )
    # ...and both agree with the reference section by section (a tracker
    # lists a section owner group by owner group, the reference edge by
    # edge): same verdicts, blamed edges and UNKNOWN reasons.
    for report in (first.report, again.report):
        assert str(report.property) == str(reference.property)
        assert report.passed == reference.passed
        assert _report_fp(report) == _report_fp(reference)
