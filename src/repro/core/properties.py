"""Property and invariant specifications (§4.1, §5.1).

A *location* is a router name or a directed edge.  A safety property
``(l, P)`` states that every route reaching ``l`` in any valid trace
satisfies ``P``; a liveness property states that some route satisfying ``P``
eventually reaches ``l``, witnessed by a path and per-location constraints.

:class:`InvariantMap` is the user's set of network invariants ``I``: exactly
one predicate per location, with a default for the many locations sharing a
role.  Edges out of external routers are pinned to ``True`` (``I = Routes``),
as §4.1 requires — no assumption may be made about what neighbors announce.
"""

from __future__ import annotations

from typing import Iterable, Union

from repro.bgp.topology import Edge, Topology
from repro.lang.predicates import Predicate, TruePred
from repro.record import Value


Location = Union[str, Edge]


class SafetyProperty(Value):
    """``(l, P)``: all routes reaching ``l`` satisfy ``P``."""

    location: Location
    predicate: Predicate
    name: str = ""

    def validate_against(self, topology: Topology) -> None:
        """The location must be an internal router or an edge of the
        network: anywhere else no check establishes an invariant, so the
        default would stand in for it and the property pass vacuously."""
        location = self.location
        if isinstance(location, Edge):
            if not topology.has_edge(*location):
                raise ValueError(f"safety location {location} is not an edge of the network")
        elif not topology.is_router(location):
            raise ValueError(f"safety location {location!r} is not an internal router")

    def __str__(self) -> str:
        label = f"{self.name}: " if self.name else ""
        return f"{label}safety at {self.location}: {self.predicate!r}"


class LivenessProperty(Value):
    """``(l, P)`` plus a witness path and per-location path constraints.

    ``path`` alternates routers and edges, ending at ``location`` (§5.1).
    ``constraints[i]`` is ``C_i``, the set of "good" routes at ``path[i]``;
    ``constraints[0]`` is the assumption about what the first location
    (usually an external edge) supplies.
    """

    location: Location
    predicate: Predicate
    path: tuple[Location, ...]
    constraints: tuple[Predicate, ...]
    name: str = ""

    def __post_init__(self) -> None:
        if not isinstance(self.path, tuple):
            object.__setattr__(self, "path", tuple(self.path))
        if not isinstance(self.constraints, tuple):
            object.__setattr__(self, "constraints", tuple(self.constraints))
        if len(self.path) != len(self.constraints):
            raise ValueError(
                f"path has {len(self.path)} locations but "
                f"{len(self.constraints)} constraints were given"
            )
        if not self.path:
            raise ValueError("liveness property needs a non-empty path")
        if self.path[-1] != self.location:
            raise ValueError(
                f"path must end at the property location {self.location}, "
                f"ends at {self.path[-1]}"
            )

    def validate_against(self, topology: Topology) -> None:
        topology.validate_path(self.path)

    def __str__(self) -> str:
        label = f"{self.name}: " if self.name else ""
        return f"{label}liveness at {self.location}: {self.predicate!r}"


class InvariantMap:
    """The network invariants ``I``: one predicate per location.

    Locations not explicitly set fall back to the default predicate —
    matching the paper's observation that nodes sharing a role share an
    invariant.  Edges from external routers always map to ``True``; setting
    them explicitly is an error because the soundness proof requires
    ``I_{R->N} = Routes`` there.
    """

    def __init__(self, topology: Topology, default: Predicate | None = None) -> None:
        self._topology = topology
        self._default: Predicate = default if default is not None else TruePred()
        self._overrides: dict[Location, Predicate] = {}

    def set(self, location: Location, predicate: Predicate) -> "InvariantMap":
        self._check_settable(location)
        self._overrides[location] = predicate
        return self

    def set_router(self, router: str, predicate: Predicate) -> "InvariantMap":
        return self.set(router, predicate)

    def set_edge(self, src: str, dst: str, predicate: Predicate) -> "InvariantMap":
        return self.set(Edge(src, dst), predicate)

    def set_many(self, locations: Iterable[Location], predicate: Predicate) -> "InvariantMap":
        for location in locations:
            self.set(location, predicate)
        return self

    def _check_settable(self, location: Location) -> None:
        if isinstance(location, Edge):
            if not self._topology.has_edge(*location):
                raise KeyError(f"edge {location} is not in the topology")
            if self._topology.is_external(location.src):
                raise ValueError(
                    f"invariant on {location} cannot be set: edges from external "
                    f"routers are fixed to True (no assumption on announcements)"
                )
        elif isinstance(location, str):
            if not self._topology.is_router(location):
                raise KeyError(f"{location!r} is not an internal router")
        else:
            raise TypeError(f"locations are router names or Edges, got {location!r}")

    def get(self, location: Location) -> Predicate:
        """The invariant at a location (external-source edges are True)."""
        if isinstance(location, Edge) and self._topology.is_external(location.src):
            return TruePred()
        if location in self._overrides:
            return self._overrides[location]
        return self._default

    @property
    def default(self) -> Predicate:
        return self._default

    def overridden_locations(self) -> tuple[Location, ...]:
        return tuple(self._overrides)

    def copy(self) -> "InvariantMap":
        clone = InvariantMap(self._topology, self._default)
        clone._overrides = dict(self._overrides)
        return clone
