"""Ghost attributes (§4.4): verification-only route fields.

A ghost attribute conceptually extends every route with an extra boolean
field that filters update as routes flow.  It is defined by:

* the value on originated routes;
* per-edge updates applied *after* the import or export filter on that
  edge (set to a constant, or leave unchanged).

This covers the paper's examples: ``FromISP1`` (set true by one import,
false by other external imports, untouched inside), ``FromPeer``,
``FromRegion``, and ``WaypointR``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.bgp.topology import Edge, Topology


@dataclass(frozen=True)
class GhostAttribute:
    """One ghost boolean field and its update discipline."""

    name: str
    originated_value: bool = False
    import_updates: dict[Edge, bool] = field(default_factory=dict)
    export_updates: dict[Edge, bool] = field(default_factory=dict)

    def import_update(self, edge: Edge) -> bool | None:
        """The constant written after the import filter on ``edge`` (or None)."""
        return self.import_updates.get(edge)

    def export_update(self, edge: Edge) -> bool | None:
        """The constant written after the export filter on ``edge`` (or None)."""
        return self.export_updates.get(edge)

    # ------------------------------------------------------------------
    # Common shapes
    # ------------------------------------------------------------------

    @classmethod
    def source_tracker(
        cls, name: str, topology: Topology, source_edges: Iterable[Edge]
    ) -> "GhostAttribute":
        """Track whether a route entered via one of ``source_edges``.

        Imports on the source edges set the ghost to true; imports on every
        *other* external edge set it to false (routes from elsewhere are
        known not to be from the source); internal filters leave it alone;
        originated routes carry false.  This is exactly the §4.4 definition
        of ``FromISP1``.
        """
        sources = set(source_edges)
        updates: dict[Edge, bool] = {}
        for edge in topology.external_edges():
            if topology.is_external(edge.src):
                updates[edge] = edge in sources
        for edge in sources:
            if edge not in updates:
                raise ValueError(f"source edge {edge} is not an external in-edge")
        return cls(name=name, originated_value=False, import_updates=updates)

    @classmethod
    def waypoint(cls, name: str, topology: Topology, router: str) -> "GhostAttribute":
        """Track whether a route was processed by ``router``.

        Filters at the waypoint set the ghost true; imports from externals
        elsewhere set it false; originated routes carry false.
        """
        if not topology.is_router(router):
            raise ValueError(f"waypoint {router!r} is not an internal router")
        import_updates: dict[Edge, bool] = {}
        export_updates: dict[Edge, bool] = {}
        for edge in topology.edges_to(router):
            import_updates[edge] = True
        for edge in topology.edges_from(router):
            export_updates[edge] = True
        for edge in topology.external_edges():
            if topology.is_external(edge.src) and edge.dst != router:
                import_updates.setdefault(edge, False)
        return cls(
            name=name,
            originated_value=False,
            import_updates=import_updates,
            export_updates=export_updates,
        )


def unique_ghosts(ghosts: Iterable[GhostAttribute]) -> tuple[GhostAttribute, ...]:
    """``ghosts`` as a run's tuple; a name declared twice is a ValueError.

    A ghost is one route field, and a transfer applies an edge's updates
    sorted by name, so two ghosts of one name would have no defined value.
    """
    run = tuple(ghosts)
    seen: set[str] = set()
    for ghost in run:
        if ghost.name in seen:
            raise ValueError(f"ghost {ghost.name!r} is declared more than once")
        seen.add(ghost.name)
    return run
