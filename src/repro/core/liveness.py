"""Liveness verification (§5): propagation + no-interference checks.

A liveness property needs three ingredients beyond safety:

1. **Propagation checks** along the user's witness path: each filter must
   *accept* "good" routes and keep them good (``C_i`` to ``C_{i+1}``).
2. **No-interference checks** at every router on the path: any route that
   could compete for the same prefixes must itself be good.  Each is a
   safety property proven with the §4 machinery and its own invariants.
3. The final implication ``C_n ⊆ P``.

If everything passes, then — provided the neighbor actually announces a
``C_1`` route and no link *on the path* fails — a ``P`` route reaches the
target location (§5.3 theorem).  Failures elsewhere are tolerated.

Check **generation** is separable from execution:
:func:`generate_liveness_checks` returns the complete §5 check set — the
propagation checks, the final implication, and each no-interference
sub-proof's §4 check list — without running anything.
:class:`LivenessProblem` states that set as sections (``("prop",)``, one
``("sub", router)`` per path router, ``("impl",)``) under **one covering
universe** spanning the property, the path constraints and every
sub-proof's invariants, caller-supplied ``interference_invariants``
included.  :func:`verify_liveness` hands one to the stateless
:func:`repro.core.safety.run_problem`;
:class:`repro.core.workspace.Workspace` hands the same one to the
owner-indexed :class:`repro.core.incremental.PropertyTracker` for
O(changed-owner) re-verification, differentially tested against the
former.  The invalidation contract follows from what each check reads: a
single-router edit to ``R`` invalidates ``R``'s propagation checks (its
filters on the witness path) and ``R``'s owner group inside *every*
sub-proof (its filters appear in each sub-proof's full-network check set)
— but never the final implication, which is owned by no router, and never
another owner's groups.  A network-level edit (external ASNs) invalidates
everything: it changes the attribute universe under every encoding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.bgp.config import NetworkConfig
from repro.bgp.topology import Edge
from repro.core.checks import (
    CheckKind,
    CheckOutcome,
    LocalCheck,
    check_owner,
    generate_safety_checks,
    implication_check,
)
from repro.core.exec import ExecutionContext
from repro.core.properties import InvariantMap, LivenessProperty, SafetyProperty
from repro.core.report import DegradationReport, GroupOutcomes, VerificationReport
from repro.core.safety import SafetyReport, invariant_predicates, run_problem
from repro.lang.ghost import GhostAttribute
from repro.lang.predicates import Implies, Predicate, PrefixIn, TruePred, prefix_projection
from repro.lang.universe import AttributeUniverse


@dataclass
class LivenessReport(VerificationReport):
    """Outcome of liveness verification.

    Outcome accounting (``passed``/``failures``/``unknowns``/size maxima/
    solve time) is inherited from the shared
    :class:`repro.core.report.VerificationReport` protocol, folded from
    :meth:`iter_groups` — propagation checks first, then the final
    implication, then every no-interference sub-proof's groups.
    """

    property: LivenessProperty
    propagation: list[GroupOutcomes]
    implication: GroupOutcomes
    interference_reports: dict[str, SafetyReport]
    wall_time_s: float
    degradation: DegradationReport | None = None

    def iter_groups(self) -> Iterable[GroupOutcomes]:
        yield from self.propagation
        yield self.implication
        for report in self.interference_reports.values():
            yield from report.groups

    @property
    def propagation_outcomes(self) -> list[CheckOutcome]:
        return [outcome for group in self.propagation for outcome in group.outcomes()]

    @property
    def implication_outcome(self) -> CheckOutcome:
        # Owner-less, so kept whole: no listing needed.
        return self.implication.kept[0]

    def summary(self) -> str:
        propagation = sum(len(group.stats) for group in self.propagation)
        return (
            f"{self.property}: {self.status()} — {self.num_checks} local checks "
            f"({propagation} propagation, "
            f"{len(self.interference_reports)} no-interference sub-proofs), "
            f"{self.wall_time_s:.2f}s total"
        )


def generate_propagation_checks(
    config: NetworkConfig, prop: LivenessProperty
) -> list[LocalCheck]:
    """The §5.2 checks that ``C_i`` routes survive each filter on the path."""
    checks: list[LocalCheck] = []
    for i in range(len(prop.path) - 1):
        here = prop.path[i]
        c_here = prop.constraints[i]
        c_next = prop.constraints[i + 1]
        if isinstance(here, str):
            # Router followed by its out-edge: the export filter.
            edge = prop.path[i + 1]
            assert isinstance(edge, Edge)
            route_map = config.export_map(edge)
            checks.append(
                LocalCheck(
                    kind=CheckKind.PROPAGATE_EXPORT,
                    edge=edge,
                    assumption=c_here,
                    goal=c_next,
                    route_map_name=None if route_map is None else route_map.name,
                    description=(
                        f"propagation (export) at {here} on {edge}: "
                        f"good routes are exported and stay good"
                    ),
                )
            )
        else:
            # Edge followed by its destination router: the import filter.
            assert isinstance(here, Edge)
            if not config.topology.is_router(here.dst):
                continue  # the path ends into an external neighbor
            route_map = config.import_map(here)
            checks.append(
                LocalCheck(
                    kind=CheckKind.PROPAGATE_IMPORT,
                    edge=here,
                    assumption=c_here,
                    goal=c_next,
                    route_map_name=None if route_map is None else route_map.name,
                    description=(
                        f"propagation (import) at {here.dst} on {here}: "
                        f"good routes are accepted and stay good"
                    ),
                )
            )
    return checks


def interference_properties(prop: LivenessProperty) -> dict[str, SafetyProperty]:
    """The §5.2 no-interference safety properties, one per path router."""
    properties: dict[str, SafetyProperty] = {}
    for location, constraint in zip(prop.path, prop.constraints):
        if not isinstance(location, str):
            continue
        ranges = prefix_projection(constraint)
        antecedent: Predicate
        if ranges is None:
            antecedent = TruePred()
        else:
            antecedent = PrefixIn(ranges)
        properties[location] = SafetyProperty(
            location=location,
            predicate=Implies(antecedent, constraint),
            name=f"no-interference at {location}",
        )
    return properties


def resolve_interference_invariants(
    config: NetworkConfig,
    prop: LivenessProperty,
    interference_invariants: dict[str, InvariantMap] | None = None,
) -> tuple[dict[str, SafetyProperty], dict[str, InvariantMap]]:
    """Each path router's no-interference property and its invariant map.

    Caller-supplied ``interference_invariants`` win; any router without one
    gets the default inductive shape — the no-interference predicate itself
    at every internal location (external edges pinned to True), the
    three-part structure §2.1 describes.
    """
    properties = interference_properties(prop)
    invariants: dict[str, InvariantMap] = {}
    for router, safety_prop in properties.items():
        if interference_invariants and router in interference_invariants:
            invariants[router] = interference_invariants[router]
        else:
            invariants[router] = InvariantMap(
                config.topology, default=safety_prop.predicate
            )
    return properties, invariants


@dataclass
class LivenessChecks:
    """The complete §5 check set for one property, generated but not run.

    Separating generation from execution is what makes the pipeline
    cacheable: :func:`verify_liveness` runs this set once, while the
    incremental tracker stores each piece in an owner index
    (:func:`repro.core.checks.group_checks_by_owner`) and re-runs only the
    groups a config edit invalidated.
    """

    # The §5.2 filter checks along the witness path, in path order.
    propagation: list[LocalCheck]
    # The final ``C_n ⊆ P`` implication (owner-less: reads no router config).
    implication: LocalCheck
    # Per path router: the full-network §4 check list of its
    # no-interference sub-proof.
    subproof_checks: dict[str, list[LocalCheck]]


def generate_liveness_checks(
    config: NetworkConfig,
    prop: LivenessProperty,
    interference_invariants: dict[str, InvariantMap] | None = None,
) -> LivenessChecks:
    """Generate the full §5 check set without executing anything."""
    properties, invariants = resolve_interference_invariants(
        config, prop, interference_invariants
    )
    return LivenessChecks(
        propagation=generate_propagation_checks(config, prop),
        implication=implication_check(
            prop.location,
            prop.constraints[-1],
            prop.predicate,
            "C_n implies the property",
        ),
        subproof_checks={
            router: generate_safety_checks(
                config, invariants[router], safety_prop.location, safety_prop.predicate
            )
            for router, safety_prop in properties.items()
        },
    )


#: Section keys of a §5 proof (the incremental tracker's own group keys
#: extend each with the owner router).
PROPAGATION_KEY = ("prop",)
IMPLICATION_KEY = ("impl",)


def subproof_key(router: str) -> tuple:
    return ("sub", router)


class LivenessProblem:
    """The §5 pipeline, stated once for :func:`repro.core.safety.run_problem`
    and :class:`repro.core.incremental.PropertyTracker`: the propagation
    checks, one section per no-interference sub-proof, the implication.

    ``invariants`` optionally maps each path router to the invariant map
    proving its no-interference property; a router without one gets the
    default inductive shape (:func:`resolve_interference_invariants`).
    """

    kind = "liveness"

    def __init__(
        self,
        prop: LivenessProperty,
        invariants: dict[str, InvariantMap] | None = None,
    ) -> None:
        self.prop = prop
        self.invariants = invariants

    def predicates(self) -> list[Predicate]:
        """Every predicate the §5 pipeline for ``prop`` can mention.

        The covering contract in one place: the property and path
        constraints (propagation and implication checks), each
        no-interference property, and every predicate of a caller-supplied
        interference invariant map — whose atoms (communities, ASNs,
        ghosts) need not appear anywhere in the constraints.  One superset
        universe for all sections is sound: the finite abstraction only
        distinguishes *more* values.
        """
        preds: list[Predicate] = [self.prop.predicate, *self.prop.constraints]
        for router, safety_prop in interference_properties(self.prop).items():
            preds.append(safety_prop.predicate)
            if self.invariants and router in self.invariants:
                preds.extend(invariant_predicates(self.invariants[router]))
        return preds

    def checks(
        self, config: NetworkConfig, owners: set[str] | None = None
    ) -> dict[tuple, list[LocalCheck]]:
        if owners is None:
            self.prop.validate_against(config.topology)
            checks = generate_liveness_checks(config, self.prop, self.invariants)
            # Checks are independent, so section order only fixes which
            # checks the serial path (and so an expiring wall budget)
            # reaches first: propagation, sub-proofs, implication.
            sections = {PROPAGATION_KEY: checks.propagation}
            for router, sub_checks in checks.subproof_checks.items():
                sections[subproof_key(router)] = sub_checks
            sections[IMPLICATION_KEY] = [checks.implication]
            return sections
        # The sub-proof properties and invariant maps are cheap functions
        # of (topology, prop, invariants): re-derived, never cached.
        properties, invariants = resolve_interference_invariants(
            config, self.prop, self.invariants
        )
        sections = {
            PROPAGATION_KEY: [
                check
                for check in generate_propagation_checks(config, self.prop)
                if check_owner(check) in owners
            ]
        }
        for router, safety_prop in properties.items():
            sections[subproof_key(router)] = generate_safety_checks(
                config,
                invariants[router],
                safety_prop.location,
                safety_prop.predicate,
                owners=owners,
            )
        return sections

    def report(
        self,
        groups: dict[tuple, list[GroupOutcomes]],
        wall_time_s: float,
        degradation: DegradationReport,
    ) -> LivenessReport:
        return LivenessReport(
            property=self.prop,
            propagation=groups[PROPAGATION_KEY],
            implication=groups[IMPLICATION_KEY][0],
            interference_reports={
                router: SafetyReport(
                    property=safety_prop,
                    groups=groups[subproof_key(router)],
                    wall_time_s=0.0,
                )
                for router, safety_prop in interference_properties(self.prop).items()
            },
            wall_time_s=wall_time_s,
            degradation=degradation,
        )


def verify_liveness(
    config: NetworkConfig,
    prop: LivenessProperty,
    interference_invariants: dict[str, InvariantMap] | None = None,
    ghosts: tuple[GhostAttribute, ...] = (),
    *,
    context: ExecutionContext | None = None,
    universe: AttributeUniverse | None = None,
) -> LivenessReport:
    """Verify a liveness property via local checks (§5); see
    :class:`LivenessProblem` and :func:`repro.core.safety.run_problem`."""
    problem = LivenessProblem(prop, interference_invariants)
    return run_problem(context or ExecutionContext(), problem, config, ghosts, universe)
