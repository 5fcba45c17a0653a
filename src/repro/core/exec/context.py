"""Execution context: how a verification run executes, fixed when opened.

An :class:`ExecutionContext` is the only carrier of *how* to run: its
owner-keyed :class:`SessionPool` (always its own), the requested
worker-process count, the conflict budget, the per-check deadline and
one absolute wall deadline (``run_deadline``, fixed from
``wall_budget_s`` when the context is opened, so a budget spans every run
on it).  Nothing above :meth:`repro.core.exec.scheduler.Scheduler.run`
takes any of these as a parameter — a one-shot function takes
``context=``, a :class:`repro.core.workspace.Workspace` *is* one (it
inherits this class), and the scheduler reads every limit from the
context it is bound to, so a limit set here cannot be dropped on the way
down.

There is no backend selection to do here: ``parallel`` resolving to more
than one job means the per-batch process map for batches that span more
than one owner, anything else the serial session path (see
:meth:`repro.core.exec.scheduler.Scheduler.run`).
"""

from __future__ import annotations

import os
import sys
import time
import warnings
from types import FrameType

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

    ``wall_budget_s`` is spent from the moment the context is opened:
    every run checks against the one absolute ``run_deadline`` it fixes
    (``None`` without a budget), so one budget spans every run.  Handing
    the same context to several one-shot calls is how they share its
    ``sessions`` — encodings and the query memo — and its budgets.
    """

    def __init__(
        self,
        parallel: int | str | None = None,
        conflict_budget: int | None = None,
        deadline_s: float | None = None,
        wall_budget_s: float | None = None,
    ) -> None:
        resolve_jobs(parallel)  # reject negative counts at construction
        self.parallel = parallel
        self.conflict_budget = conflict_budget
        self.deadline_s = deadline_s
        # An absolute time.monotonic() deadline; None = no wall budget.
        self.run_deadline = (
            None if wall_budget_s is None else time.monotonic() + wall_budget_s
        )
        self.sessions = SessionPool()
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
        is attributed to the first frame outside ``repro.core``: whoever
        called :meth:`Scheduler.run`, ``verify_safety`` or
        ``Workspace.verify``, however many driver frames lie between.
        """
        if not self._fallback_warned:
            self._fallback_warned = True
            # Walk out past this frame, Scheduler.run and any driver frame.
            frame: FrameType | None = sys._getframe(2)
            depth = 2
            while frame and frame.f_globals.get("__name__", "").startswith("repro.core."):
                frame, depth = frame.f_back, depth + 1
            warnings.warn(
                f"parallel check execution degraded to the serial path: {reason}",
                RuntimeWarning,
                stacklevel=depth + 1,
            )
        if degradation is not None:
            degradation.record_fallback(reason)
