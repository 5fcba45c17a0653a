"""Unit tests for the ``repro.core.exec`` runtime.

Three clusters:

* ``resolve_jobs("auto")`` source preference — process CPU count, then
  the affinity mask, then ``os.cpu_count()`` — pinned per source by
  monkeypatching;
* :class:`Scheduler` batch structure — one dispatch per run, outcomes
  routed back per key, and a single-owner batch never forks a pool;
* serial-fallback degradation — the :class:`RuntimeWarning` fires once
  per :class:`ExecutionContext` while each run's
  :class:`DegradationReport` carries its own event.
"""

from __future__ import annotations

import os
import warnings

import pytest

from repro.core.checks import check_owner
from repro.core.exec import ExecutionContext, Scheduler, resolve_jobs
from repro.core.report import DegradationReport
from repro.core.safety import run_checks

from tests.core.conftest import fullmesh_problem, safety_pieces


def _fullmesh_problem(n: int):
    config, ghost, prop, invariants = fullmesh_problem(n)
    return (config, ghost, *safety_pieces(config, ghost, prop, invariants))


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


# -- Scheduler batch structure -----------------------------------------


def test_empty_plan_and_empty_groups():
    config, ghost, universe, __ = _fullmesh_problem(3)
    assert Scheduler(ExecutionContext()).run({}, config, universe, (ghost,)) == {}
    one_empty = Scheduler(ExecutionContext()).run(
        {("none",): []}, config, universe, (ghost,)
    )
    assert one_empty == {("none",): []}


def test_single_owner_batch_never_forks_a_pool(broken_process_pool):
    # The map overlaps owner chunks; one owner's checks — every reverify
    # after a one-router edit — have nothing to overlap and belong on the
    # warm in-process session.  Under a broken pool, reaching for the map
    # would show as a fallback and a warning.
    config, ghost, universe, checks = _fullmesh_problem(4)
    owned = [check for check in checks if check_owner(check) == "R1"]
    assert len(owned) > 1
    reference = [check.run(config, universe, (ghost,)) for check in owned]
    degradation = DegradationReport()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        result = Scheduler(ExecutionContext(2)).run(
            {("a",): owned[:1], ("b",): owned[1:]},
            config,
            universe,
            (ghost,),
            degradation=degradation,
        )
    assert [_fingerprint(o) for o in result[("a",)] + result[("b",)]] == [
        _fingerprint(o) for o in reference
    ]
    assert degradation.serial_fallbacks == 0


def test_context_validates_eagerly():
    with pytest.raises(ValueError, match="parallel must be >= 0"):
        ExecutionContext(-2)


# -- serial-fallback warning dedup (satellite: warn once per context) --


def test_fallback_warns_once_per_context_but_counts_every_batch(broken_process_pool):
    config, ghost, universe, checks = _fullmesh_problem(3)
    context = ExecutionContext(2)
    degradation = DegradationReport()
    # Two runs on one context are two batches through the broken pool
    # (each spans two owners: a single-owner batch never reaches it).
    batches = (checks[:2], checks[2:4])
    assert all(len({check_owner(c) for c in batch}) > 1 for batch in batches)
    outcomes = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for batch in batches:
            result = Scheduler(context).run(
                {("a",): batch}, config, universe, (ghost,), degradation=degradation
            )
            outcomes.extend(result[("a",)])
    fallback_warnings = [
        w for w in caught if issubclass(w.category, RuntimeWarning)
    ]
    assert len(fallback_warnings) == 1, "one warning per context, not per batch"
    assert "degraded to the serial path" in str(fallback_warnings[0].message)
    # Attributed to the code that called Scheduler.run, not to the runtime.
    assert fallback_warnings[0].filename == __file__
    # ...but the report still carries the full event count.
    assert degradation.serial_fallbacks == 2
    assert len(degradation.reasons) == 2
    assert len(outcomes) == 4 and all(o.passed for o in outcomes)


def test_run_checks_still_warns_per_call(broken_process_pool):
    # A fresh context per call warns per call: the dedup is per context.
    config, ghost, universe, checks = _fullmesh_problem(3)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for __ in range(2):
            run_checks(checks[:2], config, universe, (ghost,), context=ExecutionContext(2))
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
            [], config, universe, (ghost,), context=ExecutionContext(2),
            degradation=degradation,
        )
    assert outcomes == []
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert degradation.serial_fallbacks == 0
