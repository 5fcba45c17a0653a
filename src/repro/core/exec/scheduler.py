"""The scheduler: one dispatch loop for every verification path.

# repro: hot-path

:class:`Scheduler` executes a :class:`~repro.core.exec.plan.CheckPlan`
against an :class:`~repro.core.exec.context.ExecutionContext`.  It owns
everything the four pre-refactor dispatch sites each re-implemented:

* **strategy selection and degradation** — the per-batch process map
  when the context asks for more than one job, else the serial session
  path; a failed process map is re-run serially and recorded on the
  :class:`DegradationReport` (warning once per context, see
  :meth:`ExecutionContext.record_fallback`);
* **deadlines** — the per-check ``deadline_s`` and the absolute
  ``run_deadline`` wall budget, honoured on both paths; checks reached
  after expiry resolve to UNKNOWN/``wall-budget`` without touching a
  solver;
* **outcome ordering** — outcomes are routed back to their group keys,
  and flat iteration follows plan order regardless of execution order;
* **stage pipelining** — each round dispatches *every* group whose
  stage dependencies are met, in plan order, so independent stages run
  in the same batch instead of barriering (liveness interference
  sub-proofs ride along with propagation; only the implication waits).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator

from repro.core.checks import CheckOutcome
from repro.core.exec.backends import BatchRequest, SerialBackend
from repro.core.exec.context import ExecutionContext, resolve_jobs
from repro.core.exec.plan import CheckGroup, CheckPlan, GroupKey
from repro.core.exec.pool import run_checks_in_processes

if TYPE_CHECKING:
    from repro.bgp.config import NetworkConfig
    from repro.core.report import DegradationReport
    from repro.lang.ghost import GhostAttribute
    from repro.lang.universe import AttributeUniverse


@dataclass
class GroupResult:
    """One group's outcomes plus the wall time of the batch that ran it.

    ``wall_time_s`` is the elapsed time of the *dispatch batch* the group
    was part of; groups pipelined into the same batch share (overlap) it.
    """

    group: CheckGroup
    outcomes: list[CheckOutcome]
    wall_time_s: float


@dataclass
class PlanResult:
    """Everything a plan execution produced, keyed and in plan order."""

    results: dict[GroupKey, GroupResult] = field(default_factory=dict)
    order: list[GroupKey] = field(default_factory=list)

    def group(self, key: GroupKey) -> list[CheckOutcome]:
        return self.results[key].outcomes

    def wall_time_s(self, key: GroupKey) -> float:
        return self.results[key].wall_time_s

    @property
    def outcomes(self) -> list[CheckOutcome]:
        """All outcomes, flattened in plan (not execution) order."""
        flat: list[CheckOutcome] = []
        for key in self.order:
            flat.extend(self.results[key].outcomes)
        return flat


class Scheduler:
    """Executes check plans on a context's backend — the one dispatch loop."""

    def __init__(self, context: ExecutionContext) -> None:
        self.context = context

    def run(
        self,
        plan: CheckPlan,
        config: "NetworkConfig",
        universe: "AttributeUniverse",
        ghosts: tuple["GhostAttribute", ...] = (),
        conflict_budget: int | None = None,
        run_deadline: float | None = None,
        degradation: "DegradationReport | None" = None,
    ) -> PlanResult:
        """Execute ``plan`` to completion; see :meth:`stream` for the loop."""
        result = PlanResult()
        for group_result in self.stream(
            plan,
            config,
            universe,
            ghosts,
            conflict_budget=conflict_budget,
            run_deadline=run_deadline,
            degradation=degradation,
        ):
            result.results[group_result.group.key] = group_result
        result.order = [group.key for group in plan.groups]
        return result

    def stream(
        self,
        plan: CheckPlan,
        config: "NetworkConfig",
        universe: "AttributeUniverse",
        ghosts: tuple["GhostAttribute", ...] = (),
        conflict_budget: int | None = None,
        run_deadline: float | None = None,
        degradation: "DegradationReport | None" = None,
    ) -> Iterator[GroupResult]:
        """Yield group results as scheduling rounds complete.

        Each round gathers every not-yet-run group whose stage
        dependencies are fully satisfied (in plan order), dispatches them
        as one batch through the strategy chain, and yields their
        results.  A stage counts as satisfied once all of its groups have
        run; stages with no groups are satisfied immediately.
        """
        stages = plan.stage_map()
        remaining_per_stage: dict[str, int] = {name: 0 for name in stages}
        for group in plan.groups:
            remaining_per_stage[group.stage] += 1
        pending = list(range(len(plan.groups)))

        while pending:
            done_stages = {
                name for name, left in remaining_per_stage.items() if left == 0
            }
            ready_indexes = [
                index
                for index in pending
                if all(
                    dep in done_stages
                    for dep in stages[plan.groups[index].stage].after
                )
            ]
            # Plan validation rejects dependency cycles, so some group is
            # always ready while any are pending.
            assert ready_indexes, "no schedulable group in a non-empty plan"
            taken = set(ready_indexes)
            pending = [index for index in pending if index not in taken]
            ready = [plan.groups[index] for index in ready_indexes]

            batch = BatchRequest(
                groups=tuple(ready),
                checks=[check for group in ready for check in group.checks],
                config=config,
                universe=universe,
                ghosts=tuple(ghosts),
                conflict_budget=conflict_budget,
                deadline_s=self.context.deadline_s,
                run_deadline=run_deadline,
            )
            batch_start = time.perf_counter()
            outcomes = self._dispatch(batch, degradation)
            elapsed = time.perf_counter() - batch_start

            cursor = 0
            for group in ready:
                size = len(group.checks)
                yield GroupResult(
                    group=group,
                    outcomes=outcomes[cursor : cursor + size],
                    wall_time_s=elapsed,
                )
                cursor += size
                remaining_per_stage[group.stage] -= 1

    def _dispatch(
        self, batch: BatchRequest, degradation: "DegradationReport | None"
    ) -> list[CheckOutcome]:
        """Run one batch: the process map if asked for, else serially.

        A single check cannot parallelise and an already-expired batch
        only needs its checks marked UNKNOWN, so neither forks a pool.  A
        process map that returns ``None`` (pool machinery unavailable, a
        worker died) is recorded as one serial fallback and the whole
        batch re-runs on the serial path, which computes the same
        outcomes.
        """
        context = self.context
        if not batch.checks:
            return []
        jobs = resolve_jobs(context.parallel)
        if jobs > 1 and len(batch.checks) > 1 and not batch.expired():
            outcomes = run_checks_in_processes(
                batch.checks,
                batch.config,
                batch.universe,
                batch.ghosts,
                batch.conflict_budget,
                jobs,
                deadline_s=batch.deadline_s,
                run_deadline=batch.run_deadline,
            )
            if outcomes is not None:
                return outcomes
            context.record_fallback("process pool unavailable or broke", degradation)
        return SerialBackend(context.sessions).run(batch)
