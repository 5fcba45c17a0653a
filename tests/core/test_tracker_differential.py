"""Incremental ≡ full ≡ cache-loaded, for both property kinds.

One :class:`repro.core.incremental.PropertyTracker` serves safety and
liveness, so one differential test covers both: after every step of a
randomised edit sequence — single-router edits (benign and breaking),
external-ASN edits, topology changes — the tracker's report must
fingerprint as the hermetic reference does on the edited configuration
(``tests/oracle.py``), and its accounting must add up.  A second test pins that a
tracker restored by ``Workspace.load`` behaves exactly like the one that
was saved.  A third pins the reference itself: on a first run, for every
problem kind (a property family included), ``run_problem`` ≡ the tracker ≡
the tracker restored from its pickled state.
"""

from __future__ import annotations

import pickle
import random

import pytest

from repro.core.exec import ExecutionContext
from repro.core.incremental import PropertyTracker
from repro.core.liveness import LivenessProblem
from repro.core.safety import SafetyProblem, run_problem
from repro.core.workspace import Workspace
from repro.workloads.figure1 import build_figure1
from repro.workloads.fullmesh import build_full_mesh, full_mesh_single_router_edit
from repro.workloads.wan import build_wan
from repro.workloads.wan_properties import (
    ip_reuse_liveness_problem,
    ip_reuse_safety_problem,
)

from tests import oracle
from tests.core.conftest import (
    customer_liveness_property,
    isp1_ghost,
    last_result,
    no_transit_invariants,
    no_transit_property,
    reverify,
)

#: Topology edits switch between the N- and (N+1)-router mesh; the
#: problems are stated over the larger one, so they fit both.
N = 4


def _verified(kind):
    ghosts, problem = oracle.mesh_problem(kind, N + 1)
    ws = Workspace(build_full_mesh(N), ghosts=ghosts)
    ws.verify(problem.prop, problem.invariants)
    return ws, lambda config: oracle.reference(config, ghosts, problem)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("kind", ["safety", "liveness"])
def test_tracker_matches_from_scratch_over_random_edit_sequences(kind, seed):
    rng = random.Random(seed)
    ws, from_scratch = _verified(kind)
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
                oracle.random_edit(edited, rng, size)

        result = reverify(ws, edited)
        assert oracle.fingerprint(result.report) == from_scratch(edited), (kind, seed, step)
        assert result.rerun_checks + result.cached_checks == result.report.num_checks
        assert result.checks_consulted == result.rerun_checks
        if step in ("asn", "topology"):
            assert result.cached_checks == 0, step  # nothing survives these


@pytest.mark.parametrize("kind", ["safety", "liveness"])
def test_loaded_tracker_reverifies_like_the_saved_one(kind, tmp_path):
    ws, from_scratch = _verified(kind)
    path = tmp_path / "workspace.lyc"
    ws.save(path)
    loaded = Workspace.load(path, config=build_full_mesh(N), ghosts=ws.ghosts)
    with pytest.raises(TypeError):
        Workspace.load(path, sessions=None)  # a workspace owns its pool

    # R2 sits on the liveness witness path and owns safety checks too; the
    # bogon deny makes the liveness propagation check fail, so the pair
    # covers a passing and a failing reverify.
    edited = full_mesh_single_router_edit(N, router="R2")
    in_process = reverify(ws, edited)
    from_disk = reverify(loaded, edited)
    assert oracle.fingerprint(from_disk.report) == oracle.fingerprint(in_process.report)
    assert oracle.fingerprint(from_disk.report) == from_scratch(edited)
    for counter in ("rerun_checks", "cached_checks", "checks_consulted"):
        assert getattr(from_disk, counter) == getattr(in_process, counter), counter
    assert 0 < from_disk.rerun_checks < last_result(ws).report.num_checks


# -- the reference stays a reference -----------------------------------


def _figure1():
    config = build_figure1()
    ghost = isp1_ghost(config)
    prop, invariants = no_transit_property(), no_transit_invariants(config)
    return config, (ghost,), {
        "safety": SafetyProblem(prop, invariants),
        "family": SafetyProblem([prop], invariants),
        "liveness": LivenessProblem(customer_liveness_property()),
    }


def _fullmesh():
    # R2 strips the transit tag on its import from R1 (a blamed edge), and
    # the family's second property fails its implication (no edge at all).
    config = oracle.fullmesh_case(N + 1, "safety", planted=True).config()
    problems = {kind: oracle.mesh_problem(kind, N + 1) for kind in ("safety", "family", "liveness")}
    ghosts = problems["safety"][0]
    return config, ghosts, {kind: problem for kind, (__, problem) in problems.items()}


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
    assert oracle.listing(again.report, witness=True) == oracle.listing(
        first.report, witness=True
    )
    # ...and both agree with the reference section by section (a tracker
    # lists a section owner group by owner group, the reference edge by
    # edge): same verdicts, blamed edges and UNKNOWN reasons.
    for report in (first.report, again.report):
        assert str(report.property) == str(reference.property)
        assert report.passed == reference.passed
        assert oracle.fingerprint(report) == oracle.fingerprint(reference)
