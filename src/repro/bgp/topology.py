"""BGP network topology: internal routers, external peers, peering edges.

Mirrors §3.1: a topology is ``(Routers, Externals, Edges)`` where edges are
*directed* — the edge ``A -> B`` carries announcements from A to B and has an
export filter at A and an import filter at B.  A bidirectional BGP session
contributes two directed edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Iterable, Iterator


@dataclass(frozen=True, order=True)
class Edge:
    """A directed BGP peering edge ``src -> dst``."""

    src: str
    dst: str

    def reversed(self) -> "Edge":
        return Edge(self.dst, self.src)

    def __str__(self) -> str:
        return f"{self.src}->{self.dst}"


#: Sort key giving the same order as ``Edge``'s own comparison, without a
#: generated ``__lt__`` call per comparison (a 20 000-edge mesh makes 240 000).
edge_key = attrgetter("src", "dst")


class Topology:
    """The BGP peering graph.

    ``routers`` are nodes with configurations under verification;
    ``externals`` are uncontrolled neighbors (ISPs, customers, data-center
    devices) that may announce arbitrary routes.
    """

    def __init__(self) -> None:
        self._routers: set[str] = set()
        self._externals: set[str] = set()
        self._edges: set[Edge] = set()
        self._out: dict[str, set[str]] = {}
        self._in: dict[str, set[str]] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add_router(self, name: str) -> None:
        if name in self._externals:
            raise ValueError(f"{name!r} is already an external node")
        self._routers.add(name)

    def add_external(self, name: str) -> None:
        if name in self._routers:
            raise ValueError(f"{name!r} is already an internal router")
        self._externals.add(name)

    def add_edge(self, src: str, dst: str) -> Edge:
        """Add one directed edge; both endpoints must already exist."""
        for node in (src, dst):
            if node not in self._routers and node not in self._externals:
                raise ValueError(f"unknown node {node!r}")
        if src in self._externals and dst in self._externals:
            raise ValueError(f"edge {src}->{dst} connects two external nodes")
        edge = Edge(src, dst)
        if edge not in self._edges:
            self._edges.add(edge)
            self._out.setdefault(src, set()).add(dst)
            self._in.setdefault(dst, set()).add(src)
        return edge

    def add_peering(self, a: str, b: str) -> tuple[Edge, Edge]:
        """Add a bidirectional session: both directed edges."""
        return self.add_edge(a, b), self.add_edge(b, a)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def routers(self) -> frozenset[str]:
        return frozenset(self._routers)

    @property
    def externals(self) -> frozenset[str]:
        return frozenset(self._externals)

    @property
    def edges(self) -> frozenset[Edge]:
        return frozenset(self._edges)

    def is_router(self, name: str) -> bool:
        return name in self._routers

    def is_external(self, name: str) -> bool:
        return name in self._externals

    def has_edge(self, src: str, dst: str) -> bool:
        return Edge(src, dst) in self._edges

    def successors(self, node: str) -> frozenset[str]:
        return frozenset(self._out.get(node, ()))

    def predecessors(self, node: str) -> frozenset[str]:
        return frozenset(self._in.get(node, ()))

    def edges_from(self, node: str) -> Iterator[Edge]:
        for dst in sorted(self._out.get(node, ())):
            yield Edge(node, dst)

    def edges_to(self, node: str) -> Iterator[Edge]:
        for src in sorted(self._in.get(node, ())):
            yield Edge(src, node)

    def internal_edges(self) -> Iterator[Edge]:
        """Edges between two internal routers, in ``(src, dst)`` order."""
        routers = self._routers
        return iter(sorted(
            (e for e in self._edges if e.src in routers and e.dst in routers),
            key=edge_key,
        ))

    def external_edges(self) -> Iterator[Edge]:
        """Edges with an external endpoint, in ``(src, dst)`` order."""
        externals = self._externals
        return iter(sorted(
            (e for e in self._edges if e.src in externals or e.dst in externals),
            key=edge_key,
        ))

    def canonical(self) -> tuple[list[str], list[tuple[str, list[str]]]]:
        """Routers and directed edges in construction-order-independent form
        (for digests): sorted per source node, not as one 20 000-edge list."""
        return (
            sorted(self._routers),
            [(src, sorted(dsts)) for src, dsts in sorted(self._out.items())],
        )

    def validate_path(self, path: Iterable[object]) -> None:
        """Check that an alternating node/edge sequence is a topological path.

        Accepts the §5.1 shape: ``(l1, ..., ln)`` where each ``li`` is a node
        name (str) or an :class:`Edge`, a node is followed by an out-edge of
        that node, and an edge ``A->B`` is followed by node ``B``.
        """
        items = list(path)
        if not items:
            raise ValueError("empty path")
        for current, nxt in zip(items, items[1:]):
            if isinstance(current, str):
                if not isinstance(nxt, Edge) or nxt.src != current:
                    raise ValueError(f"path step {current!r} must be followed by an out-edge")
            elif isinstance(current, Edge):
                if current not in self._edges:
                    raise ValueError(f"edge {current} is not in the topology")
                if not isinstance(nxt, str) or nxt != current.dst:
                    raise ValueError(f"edge {current} must be followed by node {current.dst!r}")
            else:
                raise TypeError(f"path elements must be str or Edge, got {current!r}")
        for item in items:
            if isinstance(item, Edge) and item not in self._edges:
                raise ValueError(f"edge {item} is not in the topology")
            if isinstance(item, str) and item not in self._routers and item not in self._externals:
                raise ValueError(f"unknown node {item!r} in path")

    def __repr__(self) -> str:
        return (
            f"Topology(routers={len(self._routers)}, externals={len(self._externals)}, "
            f"edges={len(self._edges)})"
        )
