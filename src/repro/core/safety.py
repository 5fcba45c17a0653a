"""Safety verification (§4): run the generated local checks.

Build the attribute universe, generate one Import/Export/Originate check
per edge plus the final ``I_l ⊆ P`` implication, discharge each
independently, aggregate.  By the §4.3 theorem, if every check passes the
property holds on all valid traces — for arbitrary external announcements
and arbitrary node/link failures.

The checks are independent, so "verify a property" has one shape for
every property kind — universe → checks → one batch → report — and
:func:`run_problem` is that shape, written once.  What differs per kind
is a *problem builder* (:class:`SafetyProblem` here,
:class:`repro.core.liveness.LivenessProblem` for §5); ``verify_safety``
and ``verify_liveness`` construct one and hand it over.  *How* the batch
runs — serial sessions or worker processes, budgets, deadlines, which
session pool — is the :class:`~repro.core.exec.ExecutionContext` passed as
``context=``; one context across calls shares its encodings.

:func:`run_problem` is stateless: every check runs, nothing survives the
call.  The stateful layer is :class:`repro.core.workspace.Workspace`,
whose incremental tracker sees the same builders and is differentially
tested against this function.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Sequence, TypeVar

from repro.bgp.config import NetworkConfig
from repro.core.checks import (
    CheckOutcome,
    LocalCheck,
    generate_safety_checks,
    implication_check,
)
from repro.core.exec import ExecutionContext, Scheduler
from repro.core.properties import InvariantMap, SafetyProperty
from repro.core.report import DegradationReport, GroupOutcomes, VerificationReport
from repro.lang.ghost import GhostAttribute
from repro.lang.predicates import Predicate, predicate_atoms
from repro.lang.universe import AttributeUniverse

if TYPE_CHECKING:
    from repro.core.incremental import Problem

R = TypeVar("R", bound=VerificationReport)


@dataclass
class SafetyReport(VerificationReport):
    """Everything ``verify_safety`` learned.

    All outcome accounting (``passed``/``failures``/``unknowns``/size
    maxima/solve time) is inherited from the shared
    :class:`repro.core.report.VerificationReport` protocol, folded from
    ``groups``; ``outcomes`` is the per-check listing, built on first use.
    """

    property: SafetyProperty
    groups: list[GroupOutcomes]
    wall_time_s: float
    degradation: DegradationReport | None = None

    def iter_groups(self) -> Iterable[GroupOutcomes]:
        return self.groups

    @cached_property
    def outcomes(self) -> list[CheckOutcome]:
        return list(self.iter_outcomes())

    def summary(self) -> str:
        return (
            f"{self.property}: {self.status()} — {self.num_checks} local checks, "
            f"max {self.max_vars} vars / {self.max_clauses} constraints per check, "
            f"{self.wall_time_s:.2f}s total ({self.solve_time_s:.2f}s solving)"
        )


def invariant_predicates(invariants: InvariantMap) -> list[Predicate]:
    """Every predicate an invariant map can hand a check."""
    return [
        invariants.default,
        *(invariants.get(loc) for loc in invariants.overridden_locations()),
    ]


def build_universe(
    config: NetworkConfig,
    invariants: InvariantMap | None,
    predicates,
    ghosts: tuple[GhostAttribute, ...],
) -> AttributeUniverse:
    """The universe covering config, invariants, properties, and ghosts."""
    communities = set()
    asns = set()
    ghost_names = {g.name for g in ghosts}
    preds = list(predicates)
    if invariants is not None:
        preds.extend(invariant_predicates(invariants))
    for pred in preds:
        c, a, g = predicate_atoms(pred)
        communities |= c
        asns |= a
        ghost_names |= g
    return AttributeUniverse.from_config(
        config,
        extra_communities=tuple(communities),
        extra_asns=tuple(asns),
        ghosts=tuple(ghost_names),
    )


#: The one section of a §4 proof in the incremental tracker's owner index.
SAFETY_KEY = ("safety",)


class SafetyProblem:
    """The §4 pipeline, stated once for :func:`run_problem` and
    :class:`repro.core.incremental.PropertyTracker`: one section holding
    every check of the proof.

    ``prop`` is a property or a *family* of them sharing ``invariants``
    (Table 4a's "at any router R": one predicate at many locations).  The
    Import/Export/Originate checks depend only on the invariants, so a
    family runs them once and repeats only the cheap ``I_l ⊆ P``
    implication per property.
    """

    kind = "safety"

    def __init__(
        self, prop: SafetyProperty | Sequence[SafetyProperty], invariants: InvariantMap
    ) -> None:
        self.prop = prop
        self.invariants = invariants
        self._family = not isinstance(prop, SafetyProperty)
        self._props = [prop] if isinstance(prop, SafetyProperty) else list(prop)
        if not self._props:
            raise ValueError("empty property family")

    def predicates(self) -> list[Predicate]:
        """Every predicate a check of this problem can mention: what the
        universe it runs under must cover."""
        return [p.predicate for p in self._props] + invariant_predicates(self.invariants)

    def checks(
        self, config: NetworkConfig, owners: set[str] | None = None
    ) -> dict[tuple, list[LocalCheck]]:
        first = self._props[0]
        checks = generate_safety_checks(
            config, self.invariants, first.location, first.predicate, owners=owners
        )
        if self._family and owners is None:
            # The generator's last check is ``first``'s implication: a
            # family states one per property, by name, in its place.
            checks[-1:] = [
                implication_check(
                    p.location,
                    self.invariants.get(p.location),
                    p.predicate,
                    f"I[{p.location}] implies {p.name or 'the property'}",
                )
                for p in self._props
            ]
        return {SAFETY_KEY: checks}

    def report(
        self,
        groups: dict[tuple, list[GroupOutcomes]],
        wall_time_s: float,
        degradation: DegradationReport,
    ) -> SafetyReport:
        first = self._props[0]
        if self._family:
            name = f"{first.name or 'family'} (x{len(self._props)} locations)"
            first = SafetyProperty(first.location, first.predicate, name=name)
        return SafetyReport(first, groups[SAFETY_KEY], wall_time_s, degradation)


def run_problem(
    context: ExecutionContext,
    problem: "Problem[R]",
    config: NetworkConfig,
    ghosts: tuple[GhostAttribute, ...] = (),
    universe: AttributeUniverse | None = None,
) -> R:
    """Verify one problem from scratch: every check, one batch, a report.

    The one-shot driver for every property kind, and the reference the
    incremental tracker is tested against: no reuse, no digests.  Limits
    and the session pool come from ``context``.  ``universe`` replaces the
    universe built from ``problem.predicates()`` with a caller's wider one
    (it must content-cover it) — how a sweep keeps one universe, and so
    one set of encodings, across many problems.
    """
    start = time.perf_counter()
    degradation = DegradationReport()
    sections = problem.checks(config)
    if universe is None:
        universe = build_universe(config, None, problem.predicates(), ghosts)
    outcomes = Scheduler(context).run(sections, config, universe, ghosts, degradation)
    groups = {
        section: [GroupOutcomes.of(checks, outcomes[section])]
        for section, checks in sections.items()
    }
    return problem.report(groups, time.perf_counter() - start, degradation)


def run_checks(
    checks: list[LocalCheck],
    config: NetworkConfig,
    universe: AttributeUniverse,
    ghosts: tuple[GhostAttribute, ...] = (),
    context: ExecutionContext | None = None,
    degradation: DegradationReport | None = None,
) -> list[CheckOutcome]:
    """Discharge a bare check list; outcomes come back in input order.

    A one-key mapping run by a :class:`~repro.core.exec.Scheduler` on
    ``context`` (default: a fresh serial one).  Serial fallbacks of a
    ``parallel`` context are recorded on ``degradation`` when given (and
    always announced via ``warnings.warn``).
    """
    return Scheduler(context or ExecutionContext()).run(
        {SAFETY_KEY: checks}, config, universe, tuple(ghosts), degradation
    )[SAFETY_KEY]


def verify_safety(
    config: NetworkConfig,
    prop: SafetyProperty | Sequence[SafetyProperty],
    invariants: InvariantMap,
    ghosts: tuple[GhostAttribute, ...] = (),
    *,
    context: ExecutionContext | None = None,
    universe: AttributeUniverse | None = None,
) -> SafetyReport:
    """Verify a safety property, or a family sharing ``invariants``, via
    local checks (§4); see :class:`SafetyProblem` and :func:`run_problem`."""
    problem = SafetyProblem(prop, invariants)
    return run_problem(context or ExecutionContext(), problem, config, ghosts, universe)


#: Kept as the name for the family form: ``verify_safety(config, props, …)``.
verify_safety_family = verify_safety
