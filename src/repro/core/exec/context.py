"""Execution context: the bundled substrate every verification path shares.

An :class:`ExecutionContext` carries what used to travel as an argument
caravan (``parallel, conflict_budget, sessions, deadline_s,
wall_budget_s``): the owner-keyed :class:`SessionPool`, the requested
worker-process count, the budgets, and the run-deadline bookkeeping.
:class:`repro.core.workspace.Workspace` inherits it, so the trackers and
the scheduler see one object.

There is no backend selection to do here: ``parallel`` resolving to more
than one job means the per-batch process map for batches that span more
than one owner, anything else the serial session path (see
:meth:`repro.core.exec.scheduler.Scheduler.run`).
"""

from __future__ import annotations

import os
import time
import warnings

from repro.core.report import DegradationReport
from repro.smt.solver import SessionPool


def _available_cpus() -> int:
    """CPUs actually available to this process, not the machine total.

    Containerized and cgroup-limited hosts expose fewer schedulable CPUs
    than ``os.cpu_count()`` reports; oversubscribing spawns workers that
    fight for the same cores.  Preference order: ``os.process_cpu_count``
    (Python 3.13+), the scheduling affinity mask, then ``os.cpu_count``.
    """
    probe = getattr(os, "process_cpu_count", None)
    if probe is not None:
        count = probe()
        if count:
            return int(count)
    affinity = getattr(os, "sched_getaffinity", None)
    if affinity is not None:
        try:
            mask = affinity(0)
        except OSError:
            mask = None
        if mask:
            return len(mask)
    return os.cpu_count() or 1


def resolve_jobs(parallel: int | str | None) -> int:
    """Normalise a ``parallel`` request to a worker count (1 = serial).

    Accepts ``None``, an integer >= 0, or the string ``"auto"`` meaning one
    worker per *available* core (see :func:`_available_cpus`).  ``0`` is an
    explicit "no parallelism" request and resolves to 1 (serial), exactly
    like ``None`` and ``1``; only negative counts are rejected.
    """
    if parallel is None:
        return 1
    if parallel == "auto":
        return _available_cpus()
    jobs = int(parallel)
    if jobs < 0:
        raise ValueError(
            f"parallel must be >= 0 (0 and 1 both mean serial), got {parallel!r}"
        )
    if jobs == 0:
        return 1
    return jobs


class ExecutionContext:
    """Session pool, job count and budgets for workspaces and the scheduler.

    Holds an owner-keyed :class:`SessionPool`: a fresh one, or the pool a
    one-shot function's caller passed (``sessions=``) to keep encodings
    across calls.
    """

    def __init__(
        self,
        parallel: int | str | None = None,
        conflict_budget: int | None = None,
        sessions: SessionPool | None = None,
        deadline_s: float | None = None,
        wall_budget_s: float | None = None,
    ) -> None:
        resolve_jobs(parallel)  # reject negative counts at construction
        self.parallel = parallel
        self.conflict_budget = conflict_budget
        self.deadline_s = deadline_s
        self.wall_budget_s = wall_budget_s
        # An absolute time.monotonic() deadline for the run in flight.
        # Normally derived per run from ``wall_budget_s``; callers that
        # want one budget to span several runs (the CLI spanning every
        # spec property) pin it with :meth:`set_run_deadline`.
        self._run_deadline: float | None = None
        self._external_deadline = False
        self.sessions = sessions if sessions is not None else SessionPool()
        self._fallback_warned = False

    # -- degradation reporting -----------------------------------------

    def record_fallback(
        self, reason: str, degradation: DegradationReport | None
    ) -> None:
        """Record a degradation to the serial path, warning once.

        Every fallback event is counted on ``degradation`` (so each run's
        report carries its own), but the
        :class:`RuntimeWarning` fires once per context — a workspace that
        cannot create a pool degrades identically on every run, and
        repeating the warning per run is spam, not signal.  The warning
        is attributed to the caller of :meth:`Scheduler.run`.
        """
        if not self._fallback_warned:
            self._fallback_warned = True
            warnings.warn(
                f"parallel check execution degraded to the serial path: {reason}",
                RuntimeWarning,
                stacklevel=3,
            )
        if degradation is not None:
            degradation.record_fallback(reason)

    # -- run deadlines --------------------------------------------------

    def set_run_deadline(self, deadline: float | None) -> None:
        """Pin an absolute ``time.monotonic()`` deadline across runs.

        Until cleared (pass ``None``), every tracker run checks against
        this single deadline instead of deriving a fresh one from
        ``wall_budget_s`` — how one ``--wall-budget`` spans all the
        properties of one CLI invocation.
        """
        self._run_deadline = deadline
        self._external_deadline = deadline is not None

    def _begin_run_deadline(self) -> float | None:
        """The run deadline a tracker run should enforce, refreshed.

        With an externally pinned deadline, that; otherwise a fresh
        ``now + wall_budget_s`` per run (or ``None`` without a budget).
        """
        if self._external_deadline:
            return self._run_deadline
        self._run_deadline = (
            None
            if self.wall_budget_s is None
            else time.monotonic() + self.wall_budget_s
        )
        return self._run_deadline

    # -- substrate lifecycle ------------------------------------------

    def _reset_substrate(self) -> None:
        """Drop cached encodings after a topology change.

        Session reuse is always *sound* (databases are definitional and
        checks solve under assumptions), so this is purely a memory
        measure.  Only a workspace's tracker calls it, and a workspace
        always owns its pool.
        """
        self.sessions.clear()
