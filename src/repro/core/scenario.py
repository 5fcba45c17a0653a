"""Impact assessment: is a found bug immediately visible, or latent?

§6.1 reports that "all of the findings were latent bugs that did not have
an immediate impact, but could become impactful in the presence of failures
or changes in the external announcements".  This module makes that
classification executable: given a failed local check, it replays the
counterexample route through the BGP simulator from the ghost's source
neighbors and reports whether the violation manifests end-to-end in the
current network (``immediate``) or is masked by the rest of the
configuration (``latent``) — while the failed check proves it can surface
under some announcement/failure combination.
"""

from __future__ import annotations


from repro.bgp.config import NetworkConfig
from repro.bgp.route import Route
from repro.bgp.simulator import EventKind, SimulationResult, Simulator
from repro.bgp.topology import Edge
from repro.core.counterexample import CheckFailure
from repro.core.properties import Location, SafetyProperty
from repro.lang.ghost import GhostAttribute
from repro.record import Record, replace


class ImpactAssessment(Record):
    """The outcome of replaying a counterexample in simulation."""

    failure: CheckFailure
    announced_from: list[str]
    reproduced: bool
    simulation: SimulationResult

    @property
    def classification(self) -> str:
        return "immediate" if self.reproduced else "latent"

    def explain(self) -> str:
        where = ", ".join(self.announced_from) or "(no source neighbors)"
        if self.reproduced:
            return (
                f"IMMEDIATE impact: announcing the witness route from {where} "
                f"delivers a violating route to the property location in the "
                f"current network."
            )
        return (
            f"LATENT bug: the witness route announced from {where} does not "
            f"reach the property location today, but the failed local check "
            f"proves it can under some failure or announcement change."
        )


def _ghost_sources(ghost: GhostAttribute, config: NetworkConfig) -> list[str]:
    """External neighbors whose imports set the ghost to true."""
    sources = []
    for edge, value in sorted(ghost.import_updates.items()):
        if value and config.topology.is_external(edge.src):
            sources.append(edge.src)
    return sources


def _as_plain_announcement(route: Route) -> Route:
    """Strip verification-only state so the route can be announced."""
    return replace(route, ghost={}, as_path=())


def _violates_at(
    result: SimulationResult, location: Location, prefix
) -> bool:
    if isinstance(location, Edge):
        events = result.events_at(location)
        return any(
            e.kind in (EventKind.FRWD, EventKind.RECV) and e.route.prefix == prefix
            for e in events
        )
    return result.selected(location, prefix) is not None


def assess_impact(
    config: NetworkConfig,
    prop: SafetyProperty,
    ghost: GhostAttribute,
    failure: CheckFailure,
) -> ImpactAssessment:
    """Replay a failed check's witness route and classify the bug.

    The witness is announced from every external neighbor that establishes
    the ghost attribute (the route's asserted provenance).  The property is
    considered reproduced if a route for the witness prefix reaches the
    property location — the ghost predicate is realised by provenance, so
    prefix arrival from the ghost source is the concrete violation.
    """
    sources = _ghost_sources(ghost, config)
    announcement = _as_plain_announcement(failure.input_route)
    result = Simulator(config).run({src: [announcement] for src in sources})
    reproduced = bool(sources) and _violates_at(
        result, prop.location, announcement.prefix
    )
    return ImpactAssessment(
        failure=failure,
        announced_from=sources,
        reproduced=reproduced,
        simulation=result,
    )
