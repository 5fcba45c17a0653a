"""Automatic invariant inference (the paper's §8 future-work direction).

    "While in our experience it has been easy to determine these
    constraints, we believe it is possible to instead learn local
    invariants automatically from configurations in the future, for
    example when properties are enforced via communities."

This module implements that idea for the common community-tracking idiom.
Given a safety property over a ghost attribute (``Ghost(r) => bad`` /
``not Ghost(r)`` at some location), it:

1. enumerates **candidate key invariants** of the form
   ``Ghost(r) => c in Comm(r)`` for every community ``c`` that some import
   filter on the ghost's source edges adds (plus, as a fallback, every
   community mentioned anywhere in the configuration);
2. for each candidate, builds the paper's three-part invariant map
   (candidate everywhere, property at the property location, True on
   external edges) and runs the generated local checks;
3. returns the first candidate for which all checks pass, together with
   the full search log.

This is a counterexample-guided search in the small: each rejected
candidate is refuted by a concrete failed local check, exactly the
feedback loop §2.1 describes users performing by hand.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bgp.config import NetworkConfig
from repro.bgp.policy import AddCommunity, RouteMap
from repro.bgp.route import Community
from repro.core.counterexample import CheckFailure
from repro.core.exec import ExecutionContext
from repro.core.properties import InvariantMap, SafetyProperty
from repro.core.safety import SafetyReport, verify_safety
from repro.lang.ghost import GhostAttribute
from repro.lang.predicates import GhostIs, HasCommunity, Implies, Predicate


@dataclass
class CandidateResult:
    """One tried candidate and how it fared."""

    community: Community
    invariant: Predicate
    passed: bool
    failures: list[CheckFailure] = field(default_factory=list)


@dataclass
class InferenceResult:
    """The outcome of an invariant search."""

    property: SafetyProperty
    winner: CandidateResult | None
    attempts: list[CandidateResult]

    @property
    def found(self) -> bool:
        return self.winner is not None

    def invariants(self, config: NetworkConfig) -> InvariantMap:
        """The inferred invariant map (raises if nothing was found)."""
        if self.winner is None:
            raise LookupError("no invariant candidate verified the property")
        return _build_map(config, self.property, self.winner.invariant)

    def summary(self) -> str:
        tried = ", ".join(
            f"{a.community}{'✓' if a.passed else '✗'}" for a in self.attempts
        )
        status = (
            f"inferred: Ghost => {self.winner.community} in Comm(r)"
            if self.winner
            else "no candidate verified"
        )
        return f"{status} (tried: {tried})"


def _communities_added_by(route_map: RouteMap | None) -> set[Community]:
    found: set[Community] = set()
    if route_map is None:
        return found
    for clause in route_map.clauses:
        for action in clause.actions:
            if isinstance(action, AddCommunity):
                found.add(action.community)
    return found


def candidate_communities(
    config: NetworkConfig, ghost: GhostAttribute
) -> list[Community]:
    """Communities plausibly used to track the ghost, best guesses first.

    Primary candidates: communities added by import filters on the ghost's
    *source* edges (where the tracked routes enter).  Fallback: every
    community any route map mentions.
    """
    primary: set[Community] = set()
    for edge, value in ghost.import_updates.items():
        if value:
            primary |= _communities_added_by(config.import_map(edge))

    from repro.lang.universe import AttributeUniverse

    universe = AttributeUniverse.from_config(config)
    fallback = [c for c in universe.communities if c not in primary]
    return sorted(primary) + fallback


def _build_map(
    config: NetworkConfig, prop: SafetyProperty, key_invariant: Predicate
) -> InvariantMap:
    invariants = InvariantMap(config.topology, default=key_invariant)
    location = prop.location
    # The property location's invariant is the property itself (the common
    # Table 2 shape).  External-source edges stay pinned to True.
    from repro.bgp.topology import Edge

    if isinstance(location, Edge) and config.topology.is_external(location.src):
        return invariants
    invariants.set(location, prop.predicate)
    return invariants


def infer_safety_invariants(
    config: NetworkConfig,
    prop: SafetyProperty,
    ghost: GhostAttribute,
    max_candidates: int = 16,
    context: ExecutionContext | None = None,
) -> InferenceResult:
    """Search for a community-tracking invariant that verifies ``prop``.

    The property should be about the ghost attribute (e.g. ``not
    Ghost(r)`` at an egress edge).  Returns the first verified candidate;
    each rejected candidate carries its refuting counterexamples.  Every
    candidate runs on ``context`` (its budget, its sessions).
    """
    attempts: list[CandidateResult] = []
    winner: CandidateResult | None = None
    tracked = GhostIs(ghost.name)

    for community in candidate_communities(config, ghost)[:max_candidates]:
        key_invariant = Implies(tracked, HasCommunity(community))
        invariants = _build_map(config, prop, key_invariant)
        report: SafetyReport = verify_safety(
            config, prop, invariants, ghosts=(ghost,), context=context
        )
        result = CandidateResult(
            community=community,
            invariant=key_invariant,
            passed=report.passed,
            failures=report.failures,
        )
        attempts.append(result)
        if report.passed:
            winner = result
            break

    return InferenceResult(property=prop, winner=winner, attempts=attempts)
