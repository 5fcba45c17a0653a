"""The scheduler: one batch per run, for every verification path.

The paper reduces an end-to-end property to local checks that are
mutually independent (the §4.3 and §5.3 theorems), so there is nothing to
order: a body of work is an ordered mapping ``{key: checks}`` and
:meth:`Scheduler.run` discharges all of it as **one** batch against an
:class:`~repro.core.exec.context.ExecutionContext`.  Keys are
caller-chosen hashable tuples (``("prop", owner)``, ``("sub", router)``)
and are how outcomes are routed back to caches, reports and trackers;
"full verify", "reverify after an edit" and "one sub-proof" are all just
mappings of different sizes.  The scheduler owns:

* **strategy selection and degradation** — the owner-chunked process map
  when the context asks for more than one job *and* the batch spans more
  than one owner (the map overlaps owner chunks, so it is taken only when
  there are two to overlap), else the serial session loop; a failed map is
  re-run serially and recorded on the :class:`DegradationReport` (warning
  once per context, see :meth:`ExecutionContext.record_fallback`);
* **limits** — the conflict budget, the per-check ``deadline_s`` and the
  run's wall deadline are read from the context here, once per run, and
  honoured on both paths; checks reached after the wall deadline resolve
  to UNKNOWN/``wall-budget`` without touching a solver;
* **outcome ordering** — checks run in mapping order (on the serial path
  exactly; the map returns them in that order) and each key gets back the
  outcomes of its own checks, in its own order.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Mapping, Sequence

from repro.core.checks import check_owner
from repro.core.exec.context import ExecutionContext, resolve_jobs
from repro.core.exec.pool import run_checks_in_processes, run_in_sessions
from repro.lang.ghost import unique_ghosts

if TYPE_CHECKING:
    from repro.bgp.config import NetworkConfig
    from repro.core.checks import CheckOutcome, LocalCheck
    from repro.core.report import DegradationReport
    from repro.lang.ghost import GhostAttribute
    from repro.lang.universe import AttributeUniverse

#: The routing key of a group of checks: any hashable tuple the caller picks.
GroupKey = tuple


class Scheduler:
    """Runs ``{key: checks}`` mappings on a context — the one dispatch site."""

    def __init__(self, context: ExecutionContext) -> None:
        self.context = context

    def run(
        self,
        groups: Mapping[GroupKey, Sequence["LocalCheck"]],
        config: "NetworkConfig",
        universe: "AttributeUniverse",
        ghosts: tuple["GhostAttribute", ...] = (),
        degradation: "DegradationReport | None" = None,
    ) -> dict[GroupKey, list["CheckOutcome"]]:
        """Discharge every check of ``groups`` as one batch.

        The mapping is flattened in insertion order and dispatched once.
        The process map overlaps owner chunks, so a single-owner batch —
        every reverify after a one-router edit — has nothing to overlap
        and runs faster on the warm in-process session; an already-expired
        batch only needs its checks marked UNKNOWN; neither forks a pool.  A
        process map that returns ``None`` (pool machinery unavailable, a
        worker died) is recorded as one serial fallback and the whole
        batch re-runs on the serial path, which computes the same
        outcomes.
        """
        context = self.context
        run_deadline = context.run_deadline
        ghosts = unique_ghosts(ghosts)
        flat = [check for checks in groups.values() for check in checks]
        outcomes: list["CheckOutcome"] | None = None
        expired = run_deadline is not None and time.monotonic() >= run_deadline
        jobs = resolve_jobs(context.parallel)
        if jobs > 1 and not expired and len({check_owner(c) for c in flat}) > 1:
            outcomes = run_checks_in_processes(
                flat,
                config,
                universe,
                ghosts,
                context.conflict_budget,
                jobs,
                context.deadline_s,
                run_deadline,
            )
            if outcomes is None:
                context.record_fallback("process pool unavailable or broke", degradation)
        if outcomes is None:
            outcomes = run_in_sessions(
                flat,
                config,
                universe,
                ghosts,
                context.conflict_budget,
                context.deadline_s,
                run_deadline,
                context.sessions,
            )
        routed: dict[GroupKey, list["CheckOutcome"]] = {}
        cursor = 0
        for key, checks in groups.items():
            routed[key] = outcomes[cursor : cursor + len(checks)]
            cursor += len(checks)
        return routed
