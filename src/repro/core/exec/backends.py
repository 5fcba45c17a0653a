"""Execution backends: how one batch of check groups actually runs.

A :class:`BatchRequest` is the flattened checks of the groups a
:class:`~repro.core.exec.scheduler.Scheduler` round found ready; running
it yields outcomes in request order.  There are exactly two ways to run
one:

* :class:`SerialBackend` — in-process, one shared
  :class:`~repro.smt.solver.CheckSession` per owner router, drawn from
  the caller's pool so encodings persist across batches.  The default,
  and the path a failed process map degrades to.
* :func:`repro.core.exec.pool.run_checks_in_processes` — the paper's
  deployment model, reached by ``--jobs N`` / ``parallel=N``: checks
  chunked by owner router and mapped over a per-batch pool of worker
  *processes*.  Returns ``None`` when the process machinery is
  unavailable or broke; the scheduler then records the degradation and
  re-runs the batch on the serial backend.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol

from repro.core.checks import (
    CheckOutcome,
    LocalCheck,
    check_owner,
    prepare_session,
    skipped_outcome,
)
from repro.core.exec.plan import CheckGroup
from repro.smt.solver import SessionPool

if TYPE_CHECKING:
    from repro.bgp.config import NetworkConfig
    from repro.lang.ghost import GhostAttribute
    from repro.lang.universe import AttributeUniverse


@dataclass
class BatchRequest:
    """One scheduler dispatch: the ready groups, flattened, plus context.

    ``checks`` is the concatenation of ``groups``' checks in group order;
    a backend returns outcomes positionally aligned with it.
    """

    groups: tuple[CheckGroup, ...]
    checks: list[LocalCheck]
    config: "NetworkConfig"
    universe: "AttributeUniverse"
    ghosts: tuple["GhostAttribute", ...]
    conflict_budget: int | None
    deadline_s: float | None
    run_deadline: float | None

    def effective_deadline(self) -> float | None:
        """Per-check deadline honoring both budgets, sampled now."""
        effective = self.deadline_s
        if self.run_deadline is not None:
            remaining = self.run_deadline - time.monotonic()
            if remaining <= 0.0:
                # Callers check expired() first; this guards the race
                # between that sample and this one, so a negative
                # remainder never flows into a solve as "no deadline".
                remaining = 0.0
            effective = remaining if effective is None else min(effective, remaining)
        return effective

    def expired(self) -> bool:
        return (
            self.run_deadline is not None
            and time.monotonic() >= self.run_deadline
        )


class Backend(Protocol):
    """The strategy interface the scheduler dispatches through."""

    name: str

    def run(self, request: BatchRequest) -> list[CheckOutcome] | None:
        """Outcomes in ``request.checks`` order, or ``None`` if unusable."""
        ...


class SerialBackend:
    """In-process execution over shared per-owner sessions."""

    name = "serial"

    def __init__(self, sessions: SessionPool) -> None:
        self.sessions = sessions

    def run(self, request: BatchRequest) -> list[CheckOutcome]:
        outcomes: list[CheckOutcome] = []
        for group in request.groups:
            outcomes.extend(self.run_group(request, group))
        return outcomes

    def run_group(
        self, request: BatchRequest, group: CheckGroup
    ) -> list[CheckOutcome]:
        """Discharge one group serially; sessions persist on the pool.

        The first touch of an owner's session within a group pre-asserts
        the route's well-formedness for the request's universe
        (:func:`~repro.core.checks.prepare_session`; idempotent, so later
        groups over the same universe add nothing).
        """
        prepared: set[int] = set()
        outcomes: list[CheckOutcome] = []
        for check in group.checks:
            if request.expired():
                outcomes.append(skipped_outcome(check, "wall-budget"))
                continue
            effective = request.effective_deadline()
            session = self.sessions.get(check_owner(check))
            if id(session) not in prepared:
                prepared.add(id(session))
                prepare_session(session, request.universe)
            outcomes.append(
                check.run(
                    request.config,
                    request.universe,
                    request.ghosts,
                    request.conflict_budget,
                    session=session,
                    deadline_s=effective,
                )
            )
        return outcomes
