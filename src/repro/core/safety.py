"""Safety verification (§4): run the generated local checks.

``verify_safety`` implements the paper's safety pipeline: build the
attribute universe, generate one Import/Export/Originate check per edge
plus the final ``I_l ⊆ P`` implication, discharge each independently, and
aggregate results.  By the §4.3 theorem, if every check passes the property
holds on all valid traces — for arbitrary external announcements and
arbitrary node/link failures.

Execution (:func:`run_checks`): the default serial path discharges checks
through one shared :class:`repro.smt.CheckSession` per owner router, so
the transfer-function encoding is built once per router instead of once
per check.  With ``parallel`` > 1 the batch mirrors the paper's deployment
— checks chunked by owner router and mapped over a per-call pool of worker
*processes* (real cores, no GIL), with the problem context shipped once
per worker — re-running serially if the process pool is unavailable or a
worker dies.

The functions here are stateless and one-shot: nothing survives a call.
The stateful layer is :class:`repro.core.workspace.Workspace`, whose
incremental tracker sees this pipeline through :class:`SafetyProblem` and
is differentially tested against :func:`verify_safety`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.bgp.config import NetworkConfig
from repro.core.checks import (
    CheckKind,
    CheckOutcome,
    LocalCheck,
    generate_safety_checks,
)
from repro.core.exec import ExecutionContext, Scheduler
from repro.core.properties import InvariantMap, SafetyProperty
from repro.core.report import DegradationReport, VerificationReport
from repro.lang.ghost import GhostAttribute
from repro.lang.predicates import predicate_atoms
from repro.lang.universe import AttributeUniverse
from repro.smt.solver import SessionPool


@dataclass
class SafetyReport(VerificationReport):
    """Everything ``verify_safety`` learned.

    All outcome accounting (``passed``/``failures``/``unknowns``/size
    maxima/solve time) is inherited from the shared
    :class:`repro.core.report.VerificationReport` protocol.
    """

    property: SafetyProperty
    outcomes: list[CheckOutcome]
    wall_time_s: float
    degradation: DegradationReport | None = None

    def iter_outcomes(self):
        return iter(self.outcomes)

    @property
    def num_checks(self) -> int:
        return len(self.outcomes)

    def summary(self) -> str:
        return (
            f"{self.property}: {self.status()} — {self.num_checks} local checks, "
            f"max {self.max_vars} vars / {self.max_clauses} constraints per check, "
            f"{self.wall_time_s:.2f}s total ({self.solve_time_s:.2f}s solving)"
        )


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
        preds.append(invariants.default)
        preds.extend(invariants.get(loc) for loc in invariants.overridden_locations())
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
    """The §4 pipeline as :class:`repro.core.incremental.PropertyTracker`
    sees it: one section holding every check ``verify_safety`` would run."""

    kind = "safety"

    def __init__(self, prop: SafetyProperty, invariants: InvariantMap) -> None:
        self.prop = prop
        self.invariants = invariants

    def universe(
        self, config: NetworkConfig, ghosts: tuple[GhostAttribute, ...]
    ) -> AttributeUniverse:
        return build_universe(config, self.invariants, [self.prop.predicate], ghosts)

    def checks(
        self, config: NetworkConfig, owners: set[str] | None = None
    ) -> dict[tuple, list[LocalCheck]]:
        return {
            SAFETY_KEY: generate_safety_checks(
                config,
                self.invariants,
                self.prop.location,
                self.prop.predicate,
                owners=owners,
            )
        }

    def report(
        self,
        outcomes: dict[tuple, list[CheckOutcome]],
        wall_time_s: float,
        degradation: DegradationReport,
    ) -> SafetyReport:
        return SafetyReport(
            property=self.prop,
            outcomes=outcomes[SAFETY_KEY],
            wall_time_s=wall_time_s,
            degradation=degradation,
        )


def run_checks(
    checks: list[LocalCheck],
    config: NetworkConfig,
    universe: AttributeUniverse,
    ghosts: tuple[GhostAttribute, ...] = (),
    parallel: int | str | None = None,
    conflict_budget: int | None = None,
    sessions: SessionPool | None = None,
    deadline_s: float | None = None,
    run_deadline: float | None = None,
    degradation: DegradationReport | None = None,
) -> list[CheckOutcome]:
    """Discharge a list of checks; outcomes come back in input order.

    Checks are independent, so they parallelise trivially.  ``parallel``
    is the worker-process count (``"auto"`` = available CPUs;
    ``None``/``0``/``1`` = serial).  With more than one job, checks of
    more than one owner router are chunked by owner and mapped over a
    per-call process pool — the paper's per-device model; if no pool can
    be created, or a worker dies, the call re-runs serially (same
    outcomes, deterministically ordered).

    ``sessions`` makes encodings persistent across *serial* calls: an
    owner-keyed :class:`SessionPool` the serial path draws each owner's
    session from (and leaves populated), so incremental re-verification
    and multi-family sweeps pass one pool repeatedly and pay only marginal
    encoding.  Worker processes keep per-call sessions, so the pool is
    simply unused there (outcomes are identical either way).

    Fault-tolerance knobs: ``deadline_s`` bounds each check's solve in
    wall-clock seconds; ``run_deadline`` (absolute ``time.monotonic()``)
    bounds the whole call, resolving still-unrun checks to UNKNOWN with
    reason ``wall-budget``.  ``degradation`` is an optional
    :class:`DegradationReport` collector: serial fallbacks (also announced
    via ``warnings.warn`` so they are never invisible) are recorded on it.

    This is a thin wrapper: a one-key mapping run by a
    :class:`~repro.core.exec.scheduler.Scheduler` on an ephemeral
    :class:`~repro.core.exec.context.ExecutionContext`.  Callers with
    keyed work pass their ``{key: checks}`` mapping to the scheduler
    directly.
    """
    context = ExecutionContext(
        parallel, conflict_budget, sessions, deadline_s=deadline_s
    )
    return Scheduler(context).run(
        {SAFETY_KEY: checks},
        config,
        universe,
        tuple(ghosts),
        conflict_budget=conflict_budget,
        run_deadline=run_deadline,
        degradation=degradation,
    )[SAFETY_KEY]


def verify_safety(
    config: NetworkConfig,
    prop: SafetyProperty,
    invariants: InvariantMap,
    ghosts: tuple[GhostAttribute, ...] = (),
    universe: AttributeUniverse | None = None,
    parallel: int | str | None = None,
    conflict_budget: int | None = None,
    sessions: SessionPool | None = None,
    deadline_s: float | None = None,
    wall_budget_s: float | None = None,
) -> SafetyReport:
    """Verify a safety property via local checks (the §4 pipeline).

    ``deadline_s`` caps each check's solve; ``wall_budget_s`` caps the
    whole verification — both in wall-clock seconds, both resolving to
    UNKNOWN (reason ``timeout`` / ``wall-budget``) rather than hanging.
    """
    start = time.perf_counter()
    run_deadline = (
        None if wall_budget_s is None else time.monotonic() + wall_budget_s
    )
    degradation = DegradationReport()
    if universe is None:
        universe = build_universe(config, invariants, [prop.predicate], ghosts)
    checks = generate_safety_checks(config, invariants, prop.location, prop.predicate)
    outcomes = run_checks(
        checks,
        config,
        universe,
        ghosts,
        parallel=parallel,
        conflict_budget=conflict_budget,
        sessions=sessions,
        deadline_s=deadline_s,
        run_deadline=run_deadline,
        degradation=degradation,
    )
    return SafetyReport(
        property=prop,
        outcomes=outcomes,
        wall_time_s=time.perf_counter() - start,
        degradation=degradation,
    )


def verify_safety_family(
    config: NetworkConfig,
    props: list[SafetyProperty],
    invariants: InvariantMap,
    ghosts: tuple[GhostAttribute, ...] = (),
    parallel: int | str | None = None,
    conflict_budget: int | None = None,
    universe: AttributeUniverse | None = None,
    sessions: SessionPool | None = None,
    deadline_s: float | None = None,
    wall_budget_s: float | None = None,
) -> SafetyReport:
    """Verify a family of safety properties sharing one invariant map.

    Properties like Table 4a hold "at any router R": the same predicate at
    many locations.  The Import/Export/Originate checks depend only on the
    invariants, so they run once; only the cheap ``I_l ⊆ P`` implication
    check repeats per property.

    ``universe`` and ``sessions`` let a caller hoist encoding reuse one
    level further: Table-4 sweeps run many families over the same
    network, so they build one covering universe and one
    :class:`SessionPool` and pass them to every family (see
    :func:`repro.workloads.wan_properties.verify_peering_problems`).
    """
    if not props:
        raise ValueError("empty property family")
    start = time.perf_counter()
    run_deadline = (
        None if wall_budget_s is None else time.monotonic() + wall_budget_s
    )
    degradation = DegradationReport()
    if universe is None:
        universe = build_universe(
            config, invariants, [p.predicate for p in props], ghosts
        )
    checks = generate_safety_checks(
        config, invariants, props[0].location, props[0].predicate
    )
    checks = [c for c in checks if c.kind is not CheckKind.IMPLICATION]
    for prop in props:
        checks.append(
            LocalCheck(
                kind=CheckKind.IMPLICATION,
                edge=None,
                location=prop.location,
                assumption=invariants.get(prop.location),
                goal=prop.predicate,
                description=(
                    f"implication check at {prop.location}: "
                    f"I[{prop.location}] implies {prop.name or 'the property'}"
                ),
            )
        )
    outcomes = run_checks(
        checks,
        config,
        universe,
        ghosts,
        parallel=parallel,
        conflict_budget=conflict_budget,
        sessions=sessions,
        deadline_s=deadline_s,
        run_deadline=run_deadline,
        degradation=degradation,
    )
    family_name = props[0].name or "family"
    summary_prop = SafetyProperty(
        location=props[0].location,
        predicate=props[0].predicate,
        name=f"{family_name} (x{len(props)} locations)",
    )
    return SafetyReport(
        property=summary_prop,
        outcomes=outcomes,
        wall_time_s=time.perf_counter() - start,
        degradation=degradation,
    )
