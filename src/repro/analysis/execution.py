"""Parallel lint: fact extraction dispatched through the exec runtime.

``lightyear lint --jobs N`` dogfoods PR 9's execution stack instead of
growing a private pool: discovery produces one :class:`ExtractionTask`
per cache-miss file, the tasks are wrapped into a one-stage
:class:`~repro.core.exec.plan.CheckPlan` (one
:class:`~repro.core.exec.plan.CheckGroup` per file, keyed ``("lint",
path)``), and a :class:`LintScheduler` — a
:class:`~repro.core.exec.scheduler.Scheduler` with a lint-specific
strategy chain — discharges it through the structural
:class:`~repro.core.exec.backends.Backend` protocol.

What is reused and what is replaced:

* **Reused** — plan validation (duplicate keys, stage cycles), the
  scheduler's round loop and plan-order outcome routing, the
  ``ExecutionContext`` job resolution, and the degrade-and-warn
  bookkeeping (:meth:`ExecutionContext.record_fallback`).
* **Replaced** — the solver-specific dispatch.  ``SerialBackend`` wants
  per-owner :class:`CheckSession`\\ s and the solver's process map ships
  ``NetworkConfig`` payloads; extraction needs neither, so the lint
  chain is :class:`ProcessExtractionBackend` (a
  ``ProcessPoolExecutor`` over pickled tasks) degrading to
  :class:`SerialExtractionBackend`.  Both satisfy the ``Backend``
  protocol (``name`` + ``run(BatchRequest) -> outcomes | None``).

An :class:`ExtractionTask` duck-types
:class:`~repro.core.checks.LocalCheck`'s ``run`` signature, so the
request/outcome plumbing is exercised exactly as the solver paths
exercise it; the solver-only arguments (config, universe, ghosts,
budgets) ride along as ``None`` and are ignored.

Determinism: group order is sorted file order and ``PlanResult`` routes
outcomes back in plan order, so serial and ``--jobs N`` runs produce
byte-identical findings (pinned by the differential test in
``tests/analysis/test_parallel.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Sequence

from repro.core.exec.context import ExecutionContext, resolve_jobs
from repro.core.exec.plan import CheckGroup, CheckPlan, Stage
from repro.core.exec.scheduler import Scheduler

if TYPE_CHECKING:
    from repro.analysis.findings import Finding
    from repro.core.exec.backends import BatchRequest
    from repro.core.report import DegradationReport

#: The single stage a lint plan declares.
LINT_STAGE = "extract"

#: Payload types that cross the lint pool's pickle boundary.
PICKLE_ROOTS = ("ExtractionTask", "ExtractionOutcome")


@dataclass(frozen=True)
class ExtractionOutcome:
    """One file's extraction result: facts plus any parse findings."""

    rel: str
    facts: dict[str, Any]
    findings: tuple["Finding", ...]


@dataclass(frozen=True)
class ExtractionTask:
    """Per-file fact extraction, shaped like a ``LocalCheck``.

    ``run`` matches the solver checks' signature so the exec plumbing
    (``BatchRequest.checks``, positional outcome alignment) treats lint
    work identically; the solver-only arguments are unused.
    """

    rel: str
    data: bytes
    checker_ids: tuple[str, ...]

    def run(
        self,
        config: Any,
        universe: Any,
        ghosts: Any,
        conflict_budget: Any,
        session: Any = None,
        deadline_s: Any = None,
    ) -> ExtractionOutcome:
        from repro.analysis.engine import extract_file_facts
        from repro.analysis.registry import get_checker

        checkers = [get_checker(cid) for cid in self.checker_ids]
        facts, findings = extract_file_facts(self.rel, self.data, checkers)
        return ExtractionOutcome(
            rel=self.rel, facts=facts, findings=tuple(findings)
        )


def build_lint_plan(tasks: Sequence[ExtractionTask]) -> CheckPlan:
    """A one-stage plan: one group per file, in sorted path order."""
    ordered = sorted(tasks, key=lambda task: task.rel)
    return CheckPlan(
        groups=tuple(
            CheckGroup(key=("lint", task.rel), checks=(task,), stage=LINT_STAGE)
            for task in ordered
        ),
        stages=(Stage(LINT_STAGE),),
    )


def _run_extraction_task(task: ExtractionTask) -> ExtractionOutcome:
    """Worker-side entry point (module-level for pickling)."""
    return task.run(None, None, (), None)


class SerialExtractionBackend:
    """In-process extraction — the path every lint dispatch degrades to."""

    name = "serial"

    def run(self, request: "BatchRequest") -> list[ExtractionOutcome]:
        return [
            check.run(
                request.config,
                request.universe,
                request.ghosts,
                request.conflict_budget,
                deadline_s=request.effective_deadline(),
            )
            for check in request.checks
        ]


class ProcessExtractionBackend:
    """Extraction fanned out over a ``ProcessPoolExecutor``.

    Returns ``None`` when the process machinery is unavailable (no
    ``fork``/``spawn`` support, pool broken mid-flight), letting the
    scheduler degrade to the serial path — same contract as the solver's
    ``run_checks_in_processes``.
    """

    name = "process"

    def __init__(self, jobs: int) -> None:
        self.jobs = jobs

    def run(self, request: "BatchRequest") -> list[ExtractionOutcome] | None:
        # Imported here so `lightyear verify` (which loads this module to
        # build the lint sub-parser) does not pay for process machinery.
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        tasks = list(request.checks)
        try:
            with ProcessPoolExecutor(max_workers=self.jobs) as pool:
                chunksize = max(1, len(tasks) // (self.jobs * 4))
                return list(
                    pool.map(_run_extraction_task, tasks, chunksize=chunksize)
                )
        except (OSError, BrokenProcessPool, ImportError):
            return None


class LintScheduler(Scheduler):
    """The scheduler with extraction backends in the strategy chain.

    Only :meth:`_dispatch` differs from the base class: the round loop,
    plan-order routing, and wall-time accounting are inherited verbatim.
    """

    def _dispatch(
        self, batch: "BatchRequest", degradation: "DegradationReport | None"
    ) -> list[ExtractionOutcome]:
        context = self.context
        if not batch.checks:
            return []
        jobs = resolve_jobs(context.parallel)
        if jobs > 1 and len(batch.checks) > 1:
            outcomes = ProcessExtractionBackend(jobs).run(batch)
            if outcomes is not None:
                return outcomes
            context.record_fallback("lint process pool unavailable", degradation)
        return SerialExtractionBackend().run(batch)


def run_extraction(
    tasks: Sequence[ExtractionTask], jobs: int | str | None
) -> list[ExtractionOutcome]:
    """Discharge extraction tasks through the exec runtime.

    Builds the plan, runs it on a :class:`LintScheduler` over an
    ephemeral :class:`ExecutionContext`, and returns outcomes in sorted
    file order regardless of execution order.
    """
    if not tasks:
        return []
    scheduler = LintScheduler(ExecutionContext(parallel=jobs))
    result = scheduler.run(
        build_lint_plan(tasks), config=None, universe=None, ghosts=()
    )
    return list(result.outcomes)
