"""Unit tests for the ``repro.core.exec`` runtime (PR 9).

Four clusters:

* ``resolve_jobs("auto")`` source preference — process CPU count, then
  the affinity mask, then ``os.cpu_count()`` — pinned per source by
  monkeypatching;
* :class:`CheckPlan` validation (duplicate keys/stages, undeclared
  stages, dependency cycles) and implicit stage derivation;
* :class:`Scheduler` round structure — pipelined stages batch together,
  barriered stages wait, and flat outcomes follow *plan* order no matter
  what order the rounds executed groups in;
* serial-fallback degradation — the :class:`RuntimeWarning` fires once
  per :class:`ExecutionContext` while the :class:`DegradationReport`
  carries the full per-batch event count.
"""

from __future__ import annotations

import os
import warnings

import pytest

from repro.bgp.topology import Edge
from repro.core.checks import generate_safety_checks
from repro.core.exec import (
    CheckGroup,
    CheckPlan,
    ExecutionContext,
    Scheduler,
    Stage,
    resolve_jobs,
)
from repro.core.properties import InvariantMap, SafetyProperty
from repro.core.report import DegradationReport
from repro.core.safety import build_universe, run_checks
from repro.lang.ghost import GhostAttribute
from repro.lang.predicates import GhostIs, HasCommunity, Implies, Not
from repro.workloads.fullmesh import TRANSIT_COMMUNITY, build_full_mesh


def _fullmesh_problem(n: int):
    config = build_full_mesh(n)
    ghost = GhostAttribute.source_tracker("FromE1", config.topology, [Edge("E1", "R1")])
    prop = SafetyProperty(
        location=Edge("R2", "E2"), predicate=Not(GhostIs("FromE1")), name="no-transit"
    )
    invariants = InvariantMap(
        config.topology,
        default=Implies(GhostIs("FromE1"), HasCommunity(TRANSIT_COMMUNITY)),
    )
    invariants.set_edge("R2", "E2", Not(GhostIs("FromE1")))
    universe = build_universe(config, invariants, [prop.predicate], (ghost,))
    checks = generate_safety_checks(config, invariants, prop.location, prop.predicate)
    return config, ghost, universe, checks


def _fingerprint(outcome):
    return (str(outcome.check), outcome.passed, outcome.unknown)


# -- resolve_jobs("auto") source preference ----------------------------


def test_auto_prefers_process_cpu_count(monkeypatch):
    monkeypatch.setattr(os, "process_cpu_count", lambda: 3, raising=False)
    assert resolve_jobs("auto") == 3


def test_auto_falls_back_to_affinity_mask(monkeypatch):
    monkeypatch.delattr(os, "process_cpu_count", raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert resolve_jobs("auto") == 2


def test_auto_falls_back_to_cpu_count(monkeypatch):
    monkeypatch.delattr(os, "process_cpu_count", raising=False)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 5)
    assert resolve_jobs("auto") == 5


def test_auto_skips_empty_or_failing_sources(monkeypatch):
    # A None process count (3.13 on exotic platforms) and an affinity
    # probe raising OSError both fall through; a None cpu_count lands on 1.
    monkeypatch.setattr(os, "process_cpu_count", lambda: None, raising=False)

    def _no_affinity(pid):
        raise OSError("affinity not supported here")

    monkeypatch.setattr(os, "sched_getaffinity", _no_affinity, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert resolve_jobs("auto") == 1


# -- CheckPlan validation ----------------------------------------------


def _groups(checks, *specs):
    """Build groups from (key, slice, stage) specs over ``checks``."""
    return tuple(
        CheckGroup(key, tuple(checks[sl]), stage) for key, sl, stage in specs
    )


def test_plan_rejects_duplicate_group_keys():
    __, __, __, checks = _fullmesh_problem(3)
    with pytest.raises(ValueError, match="duplicate group keys"):
        CheckPlan(
            groups=_groups(
                checks, (("a",), slice(0, 1), "run"), (("a",), slice(1, 2), "run")
            )
        )


def test_plan_rejects_duplicate_stage_names():
    __, __, __, checks = _fullmesh_problem(3)
    with pytest.raises(ValueError, match="duplicate stage names"):
        CheckPlan(
            groups=_groups(checks, (("a",), slice(0, 1), "s")),
            stages=(Stage("s"), Stage("s")),
        )


def test_plan_rejects_group_in_undeclared_stage():
    __, __, __, checks = _fullmesh_problem(3)
    with pytest.raises(ValueError, match="undeclared stage"):
        CheckPlan(
            groups=_groups(checks, (("a",), slice(0, 1), "ghost-stage")),
            stages=(Stage("real"),),
        )


def test_plan_rejects_dependency_on_undeclared_stage():
    with pytest.raises(ValueError, match="undeclared stage"):
        CheckPlan(groups=(), stages=(Stage("a", after=("missing",)),))


def test_plan_rejects_stage_cycles():
    with pytest.raises(ValueError, match="cycle"):
        CheckPlan(
            groups=(),
            stages=(Stage("a", after=("b",)), Stage("b", after=("a",))),
        )


def test_plan_derives_implicit_stages_in_appearance_order():
    __, __, __, checks = _fullmesh_problem(3)
    plan = CheckPlan(
        groups=_groups(
            checks,
            (("x",), slice(0, 1), "late"),
            (("y",), slice(1, 2), "early"),
            (("z",), slice(2, 3), "late"),
        )
    )
    assert [stage.name for stage in plan.stages] == ["late", "early"]
    assert all(stage.after == () for stage in plan.stages)
    assert plan.num_checks == 3


# -- Scheduler round structure -----------------------------------------


def _batched_keys(context, plan, config, universe, ghost):
    """Run ``plan`` and return each dispatch round's group keys."""
    scheduler = Scheduler(context)
    rounds = []
    original = Scheduler._dispatch

    def spy(self, batch, degradation):
        rounds.append([group.key for group in batch.groups])
        return original(self, batch, degradation)

    Scheduler._dispatch = spy
    try:
        result = scheduler.run(plan, config, universe, (ghost,))
    finally:
        Scheduler._dispatch = original
    return rounds, result


def test_independent_stages_pipeline_into_one_batch():
    config, ghost, universe, checks = _fullmesh_problem(3)
    plan = CheckPlan(
        groups=_groups(
            checks,
            (("a",), slice(0, 2), "first"),
            (("b",), slice(2, 3), "second"),
            (("c",), slice(3, None), "third"),
        ),
        stages=(
            Stage("first"),
            Stage("second", after=("first",)),
            Stage("third"),  # independent: rides along with "first"
        ),
    )
    rounds, result = _batched_keys(context_serial(), plan, config, universe, ghost)
    assert rounds == [[("a",), ("c",)], [("b",)]]
    # Flat outcomes follow *plan* order even though ("c",) ran first.
    reference = [check.run(config, universe, (ghost,)) for check in checks]
    assert [_fingerprint(o) for o in result.outcomes] == [
        _fingerprint(o) for o in reference
    ]


def test_barriered_stages_run_in_separate_batches():
    config, ghost, universe, checks = _fullmesh_problem(3)
    plan = CheckPlan(
        groups=_groups(
            checks,
            (("a",), slice(0, 2), "first"),
            (("b",), slice(2, 3), "second"),
            (("c",), slice(3, None), "third"),
        ),
        stages=(
            Stage("first"),
            Stage("second", after=("first",)),
            Stage("third", after=("second",)),
        ),
    )
    rounds, result = _batched_keys(context_serial(), plan, config, universe, ghost)
    assert rounds == [[("a",)], [("b",)], [("c",)]]
    assert len(result.outcomes) == len(checks)
    assert result.group(("a",)) == result.outcomes[:2]


def context_serial() -> ExecutionContext:
    return ExecutionContext()


def test_empty_plan_and_empty_groups():
    config, ghost, universe, __ = _fullmesh_problem(3)
    empty = Scheduler(context_serial()).run(
        CheckPlan(groups=()), config, universe, (ghost,)
    )
    assert empty.outcomes == []
    one_empty = Scheduler(context_serial()).run(
        CheckPlan(groups=(CheckGroup(("none",), ()),)), config, universe, (ghost,)
    )
    assert one_empty.group(("none",)) == []
    assert one_empty.outcomes == []


def test_context_validates_eagerly():
    with pytest.raises(ValueError, match="parallel must be >= 0"):
        ExecutionContext(-2)


# -- serial-fallback warning dedup (satellite: warn once per context) --


def test_fallback_warns_once_per_context_but_counts_every_batch(broken_process_pool):
    config, ghost, universe, checks = _fullmesh_problem(3)
    context = ExecutionContext(2)
    degradation = DegradationReport()
    # Two barriered stages force two dispatch batches through the broken
    # pool (two checks each: a single check never reaches the pool).
    plan = CheckPlan(
        groups=_groups(
            checks, (("a",), slice(0, 2), "first"), (("b",), slice(2, 4), "second")
        ),
        stages=(Stage("first"), Stage("second", after=("first",))),
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = Scheduler(context).run(
            plan, config, universe, (ghost,), degradation=degradation
        )
    fallback_warnings = [
        w for w in caught if issubclass(w.category, RuntimeWarning)
    ]
    assert len(fallback_warnings) == 1, "one warning per context, not per batch"
    assert "degraded to the serial path" in str(fallback_warnings[0].message)
    # ...but the report still carries the full event count.
    assert degradation.serial_fallbacks == 2
    assert len(degradation.reasons) == 2
    assert all(o.passed for o in result.outcomes)


def test_run_checks_still_warns_per_call(broken_process_pool):
    # Each run_checks call builds a fresh context, so the legacy
    # one-warning-per-call behavior is preserved for direct callers.
    config, ghost, universe, checks = _fullmesh_problem(3)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for __ in range(2):
            run_checks(checks[:2], config, universe, (ghost,), parallel=2)
    fallback_warnings = [
        w for w in caught if issubclass(w.category, RuntimeWarning)
    ]
    assert len(fallback_warnings) == 2


def test_empty_batches_never_record_fallbacks(broken_process_pool):
    # An empty check list returns [] before any pool is created — no
    # warning, no degradation event, even when the pool is unusable.
    config, ghost, universe, __ = _fullmesh_problem(3)
    degradation = DegradationReport()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        outcomes = run_checks(
            [], config, universe, (ghost,), parallel=2, degradation=degradation
        )
    assert outcomes == []
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert degradation.serial_fallbacks == 0
