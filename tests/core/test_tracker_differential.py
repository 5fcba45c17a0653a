"""Incremental ≡ full ≡ cache-loaded, for both property kinds.

One :class:`repro.core.incremental.PropertyTracker` serves safety and
liveness, so one differential test covers both: after every step of a
randomised edit sequence — single-router edits (benign and breaking),
external-ASN edits, topology changes — the tracker's report must equal a
from-scratch ``verify_safety``/``verify_liveness`` on the edited
configuration, and its accounting must add up.  A second test pins that a
tracker restored by ``Workspace.load`` behaves exactly like the one that
was saved.
"""

from __future__ import annotations

import random

import pytest

from repro.bgp.topology import Edge
from repro.core.liveness import verify_liveness
from repro.core.properties import InvariantMap, SafetyProperty
from repro.core.safety import verify_safety
from repro.core.workspace import Workspace
from repro.lang.ghost import GhostAttribute
from repro.lang.predicates import GhostIs, HasCommunity, Implies, Not
from repro.workloads.fullmesh import (
    TRANSIT_COMMUNITY,
    build_full_mesh,
    full_mesh_liveness_property,
    full_mesh_single_router_edit,
)

from tests.core.conftest import last_result, reverify
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


def _report_fp(report):
    """Per-section outcome multisets (the tracker lists a section owner
    group by owner group, a one-shot run edge by edge)."""
    if hasattr(report, "interference_reports"):
        sections = [
            report.propagation_outcomes,
            [report.implication_outcome],
            *(sub.outcomes for sub in report.interference_reports.values()),
        ]
    else:
        sections = [report.outcomes]
    return [sorted(_outcome_fp(o) for o in section) for section in sections]


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
