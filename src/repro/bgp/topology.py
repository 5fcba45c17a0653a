"""BGP network topology: internal routers, external peers, peering edges.

Mirrors §3.1: a topology is ``(Routers, Externals, Edges)`` where edges are
*directed* — the edge ``A -> B`` carries announcements from A to B and has an
export filter at A and an import filter at B.  A bidirectional BGP session
contributes two directed edges.

The edge set is stored only as adjacency (``src -> {dst}`` and back), so
building, querying and comparing a topology makes no per-edge object;
:class:`Edge` values are made on demand by the queries that return them.
"""

from __future__ import annotations

from typing import Callable, Collection, Iterable, Iterator, NamedTuple


class Edge(NamedTuple):
    """A directed BGP peering edge ``src -> dst``.

    A plain tuple: it equals (and hashes like) ``(src, dst)`` and sorts by
    ``(src, dst)``.
    """

    src: str
    dst: str

    def reversed(self) -> "Edge":
        return Edge(self.dst, self.src)

    def __str__(self) -> str:
        return f"{self.src}->{self.dst}"


class Topology:
    """The BGP peering graph.

    ``routers`` are nodes with configurations under verification;
    ``externals`` are uncontrolled neighbors (ISPs, customers, data-center
    devices) that may announce arbitrary routes.
    """

    def __init__(self) -> None:
        self._routers: set[str] = set()
        self._externals: set[str] = set()
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

    def _check_edge(self, src: str, dst: str) -> None:
        for node in (src, dst):
            if node not in self._routers and node not in self._externals:
                raise ValueError(f"unknown node {node!r}")
        if src == dst:
            raise ValueError(f"{src!r} cannot peer with itself")
        if src in self._externals and dst in self._externals:
            raise ValueError(f"edge {src}->{dst} connects two external nodes")

    def add_edge(self, src: str, dst: str) -> Edge:
        """Add one directed edge; both endpoints must already exist."""
        self._check_edge(src, dst)
        self._out.setdefault(src, set()).add(dst)
        self._in.setdefault(dst, set()).add(src)
        return Edge(src, dst)

    def add_peering(self, a: str, b: str) -> tuple[Edge, Edge]:
        """Add a bidirectional session: both directed edges."""
        return self.add_edge(a, b), self.add_edge(b, a)

    def add_sessions(self, node: str, peers: Collection[str]) -> None:
        """:meth:`add_peering` of ``node`` with each of ``peers``, in one
        pass that builds no :class:`Edge` (one router's neighbor list)."""
        for peer in peers:
            self._check_edge(node, peer)
        if not peers:
            return
        self._out.setdefault(node, set()).update(peers)
        self._in.setdefault(node, set()).update(peers)
        for peer in peers:
            self._out.setdefault(peer, set()).add(node)
            self._in.setdefault(peer, set()).add(node)

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
        """Every directed edge, built from the adjacency on each call: for
        one node's edges use :meth:`edges_from`/:meth:`edges_to`."""
        return frozenset(
            Edge(src, dst) for src, dsts in self._out.items() for dst in dsts
        )

    def is_router(self, name: str) -> bool:
        return name in self._routers

    def is_external(self, name: str) -> bool:
        return name in self._externals

    def has_edge(self, src: str, dst: str) -> bool:
        return dst in self._out.get(src, ())

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

    def _sorted_edges(self, keep: Callable[[str, str], bool]) -> Iterator[Edge]:
        """The edges ``keep`` accepts, in ``(src, dst)`` order."""
        for src in sorted(self._out):
            for dst in sorted(self._out[src]):
                if keep(src, dst):
                    yield Edge(src, dst)

    def internal_edges(self) -> Iterator[Edge]:
        """Edges between two internal routers, in ``(src, dst)`` order."""
        routers = self._routers
        return self._sorted_edges(lambda src, dst: src in routers and dst in routers)

    def external_edges(self) -> Iterator[Edge]:
        """Edges with an external endpoint, in ``(src, dst)`` order."""
        externals = self._externals
        return self._sorted_edges(lambda src, dst: src in externals or dst in externals)

    def __getstate__(self) -> dict[str, object]:
        # Sets pickle in hash order, which follows PYTHONHASHSEED for
        # strings; sorted tuples make a saved cache byte-identical across
        # processes.
        return {
            "_routers": tuple(sorted(self._routers)),
            "_externals": tuple(sorted(self._externals)),
            "_out": {src: tuple(sorted(dsts)) for src, dsts in sorted(self._out.items())},
            "_in": {dst: tuple(sorted(srcs)) for dst, srcs in sorted(self._in.items())},
        }

    def __setstate__(self, state: dict) -> None:
        self._routers = set(state["_routers"])
        self._externals = set(state["_externals"])
        self._out = {src: set(dsts) for src, dsts in state["_out"].items()}
        self._in = {dst: set(srcs) for dst, srcs in state["_in"].items()}

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
                if not self.has_edge(*current):
                    raise ValueError(f"edge {current} is not in the topology")
                if not isinstance(nxt, str) or nxt != current.dst:
                    raise ValueError(f"edge {current} must be followed by node {current.dst!r}")
            else:
                raise TypeError(f"path elements must be str or Edge, got {current!r}")
        for item in items:
            if isinstance(item, Edge) and not self.has_edge(*item):
                raise ValueError(f"edge {item} is not in the topology")
            if isinstance(item, str) and item not in self._routers and item not in self._externals:
                raise ValueError(f"unknown node {item!r} in path")

    def __repr__(self) -> str:
        edges = sum(len(dsts) for dsts in self._out.values())
        return (
            f"Topology(routers={len(self._routers)}, externals={len(self._externals)}, "
            f"edges={edges})"
        )
