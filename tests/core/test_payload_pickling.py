"""The pickling invariant, owned by the runtime.

Everything the process map ships to and from its workers (the problem
context, the chunked checks, the outcomes) and everything
``Workspace.save`` persists must pickle.  Two halves:

* a real instance of every payload type, taken from real runs, survives a
  ``pickle`` round trip — and every concrete predicate type has an
  instance in that corpus, so a new predicate cannot skip the test;
* a payload that does *not* pickle (a function-local class, as the
  ``_FrozenGhost`` ghost once was) degrades the process map to the
  recorded, warned-once serial fallback, while an exception a check raises
  inside a worker still propagates.
"""

from __future__ import annotations

import dataclasses
import io
import multiprocessing
import pickle
from functools import partial

import pytest

from repro.bgp.config import NetworkConfig
from repro.bgp.prefix import Prefix
from repro.bgp.topology import Edge
from repro.core.checks import (
    CheckFailure,
    CheckOutcome,
    LocalCheck,
    check_owner,
    generate_safety_checks,
)
from repro.core.exec import ExecutionContext
from repro.core.properties import InvariantMap, LivenessProperty, SafetyProperty
from repro.core.report import DegradationReport, GroupOutcomes
from repro.core.safety import verify_safety
from repro.core.workspace import Workspace
from repro.lang import predicates
from repro.lang.ghost import GhostAttribute
from repro.lang.predicates import (
    AnyOf,
    AsPathHas,
    AsPathLenIn,
    FalsePred,
    LocalPrefIn,
    MedIn,
    NextHopIn,
    OriginIs,
    TruePred,
)
from repro.lang.universe import AttributeUniverse
from repro.smt.sat import SatStats
from repro.smt.solver import SolverStats
from repro.testing.faults import FaultPlan
from repro.workloads.figure1 import build_figure1
from repro.workloads.wan import build_wan
from repro.workloads.wan_properties import verify_ip_reuse_liveness_problems

from tests import oracle
from tests.core.conftest import (
    fullmesh_problem,
    isp1_ghost,
    no_transit_invariants,
    no_transit_property,
    run_batch,
    safety_pieces,
    saved_state,
)


def _assert_no_leaked_children():
    assert multiprocessing.active_children() == []


# ---------------------------------------------------------------------------
# An unpicklable payload degrades; an exception from a check propagates
# ---------------------------------------------------------------------------


def test_unpicklable_chunk_degrades_to_one_recorded_serial_fallback():
    config, ghost, prop, invariants = fullmesh_problem(4)
    universe, checks = safety_pieces(config, ghost, prop, invariants)

    class LocalDescription(str):
        """Defined in a function: pickle cannot name it, so cannot ship it."""

    victim = next(i for i, c in enumerate(checks) if check_owner(c) == "R2")
    checks[victim] = dataclasses.replace(
        checks[victim], text=LocalDescription(checks[victim].description)
    )
    serial = run_batch(checks, config, universe, (ghost,))
    degradation = DegradationReport()
    with pytest.warns(RuntimeWarning, match="degraded to the serial path"):
        parallel = run_batch(
            checks, config, universe, (ghost,),
            context=ExecutionContext(parallel=2), degradation=degradation,
        )
    # The fallback re-runs the batch serially: the same run, witnesses too.
    key = partial(oracle.outcome_key, witness=True)
    assert list(map(key, parallel)) == list(map(key, serial))
    assert degradation.serial_fallbacks == 1
    _assert_no_leaked_children()


class _RaisingCheck(LocalCheck):
    """Module-level, so it pickles by reference and reaches a worker."""

    def run(self, *args, **kwargs):
        raise AttributeError("raised by the check itself")


def test_attribute_error_raised_by_a_check_in_a_worker_propagates():
    config, ghost, prop, invariants = fullmesh_problem(4)
    universe, checks = safety_pieces(config, ghost, prop, invariants)
    victim = next(i for i, c in enumerate(checks) if check_owner(c) == "R2")
    checks[victim] = _RaisingCheck(
        **{f.name: getattr(checks[victim], f.name) for f in dataclasses.fields(LocalCheck)}
    )
    degradation = DegradationReport()
    with pytest.raises(AttributeError, match="raised by the check itself") as raised:
        run_batch(
            checks, config, universe, (ghost,),
            context=ExecutionContext(parallel=2), degradation=degradation,
        )
    # Raised in a worker and re-raised here, not degraded to serial (the
    # suite turns the fallback's RuntimeWarning into an error anyway).
    assert type(raised.value.__cause__).__name__ == "_RemoteTraceback"
    assert degradation.serial_fallbacks == 0
    _assert_no_leaked_children()


# ---------------------------------------------------------------------------
# Every payload type round-trips
# ---------------------------------------------------------------------------

#: A property whose predicate uses every leaf predicate the figure-1 and
#: WAN runs do not, under a vacuous invariant, so it fails with a
#: counterexample the saved workspace keeps.
EVERY_OTHER_LEAF = SafetyProperty(
    location=Edge("R2", "ISP2"),
    predicate=AnyOf(
        (
            FalsePred(),
            AsPathHas(64512),
            LocalPrefIn(300, 400),
            MedIn(7, 9),
            AsPathLenIn(40, 50),
            OriginIs(2),
            NextHopIn((Prefix.parse("192.0.2.0/24"),)),
        )
    ),
    name="every-other-leaf",
)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """Real instances from a figure-1 safety run, a ``build_wan(2, 3)``
    liveness run, a fault plan and a saved workspace's state."""
    config = build_figure1()
    ghost = isp1_ghost(config)
    prop, invariants = no_transit_property(), no_transit_invariants(config)
    universe, checks = safety_pieces(config, ghost, prop, invariants)
    report = verify_safety(config, prop, invariants, ghosts=(ghost,))
    assert report.passed

    ((wan_problem, wan_report),) = verify_ip_reuse_liveness_problems(
        build_wan(2, 3), regions=[0]
    )
    assert wan_report.passed

    workspace = Workspace(config, ghosts=(ghost,))
    assert not workspace.verify(
        EVERY_OTHER_LEAF, InvariantMap(config.topology, default=TruePred())
    ).passed
    path = tmp_path_factory.mktemp("ws") / "workspace.lyc"
    workspace.save(path)
    state = saved_state(path)
    (entry,) = state["entries"]
    group = next(g for g in entry["state"]["groups"].values() if g.kept)
    failure = next(o.failure for o in group.kept.values() if o.failure is not None)

    outcome = next(report.iter_outcomes())
    instances = {
        NetworkConfig: config,
        AttributeUniverse: universe,
        GhostAttribute: ghost,
        SafetyProperty: prop,
        InvariantMap: invariants,
        LocalCheck: outcome.check,
        CheckOutcome: outcome,
        SolverStats: outcome.stats,
        SatStats: outcome.stats.sat,
        LivenessProperty: wan_problem.property,
        FaultPlan: FaultPlan(kill_in_check_match="import check at R1", delay_check_s=0.5),
        GroupOutcomes: group,
        CheckFailure: failure,
    }
    everything = (instances, report, wan_problem, wan_report, state)
    return instances, checks, everything


def test_every_payload_type_round_trips(corpus):
    instances, checks, __ = corpus
    assert len(instances) == 13
    for cls, original in instances.items():
        assert type(original) is cls
        copy = pickle.loads(pickle.dumps(original, pickle.HIGHEST_PROTOCOL))
        assert type(copy) is cls
        if cls.__eq__ is not object.__eq__:
            assert copy == original, cls.__name__
    # The two types without ``==`` are compared by what they decide: the
    # figure-1 checks re-run on the copied configuration, and regenerated
    # from the copied invariants.
    config, universe, ghost = (
        instances[NetworkConfig], instances[AttributeUniverse], instances[GhostAttribute]
    )
    config_copy = pickle.loads(pickle.dumps(config))
    assert [c.run(config_copy, universe, (ghost,)).passed for c in checks] == [
        c.run(config, universe, (ghost,)).passed for c in checks
    ]
    prop = instances[SafetyProperty]
    invariants_copy = pickle.loads(pickle.dumps(instances[InvariantMap]))
    assert (
        generate_safety_checks(config, invariants_copy, prop.location, prop.predicate)
        == checks
    )


def _reachable_types(root) -> set[type]:
    """The type of every object pickle visits in ``root``."""
    seen: set[type] = set()

    class Collector(pickle.Pickler):
        def persistent_id(self, obj):
            seen.add(type(obj))
            return None

    Collector(io.BytesIO(), pickle.HIGHEST_PROTOCOL).dump(root)
    return seen


def test_the_corpus_holds_every_concrete_predicate_type(corpus):
    concrete: set[type] = set()
    stack = [predicates.Predicate]
    while stack:
        for sub in stack.pop().__subclasses__():
            stack.append(sub)
            if sub.__module__ == predicates.__name__:
                concrete.add(sub)
    missing = concrete - _reachable_types(corpus[2])
    assert not missing, sorted(cls.__name__ for cls in missing)
