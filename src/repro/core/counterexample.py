"""Counterexamples and error localisation.

When a local check fails, the SMT model is a *concrete route* that
witnesses the violation of one implication at one filter on one router —
the localisation benefit §2.1 describes.  :class:`CheckFailure` renders that
witness as an actionable message naming the router, the direction, the
route map, and the input/output routes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.bgp.route import Route
from repro.record import Record

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.checks import LocalCheck


class CheckFailure(Record):
    """A concrete witness for one failed local check."""

    check: "LocalCheck"
    input_route: Route
    output_route: Route | None
    rejected: bool = False

    @property
    def blamed_router(self) -> str | None:
        """The router whose policy the failure localises to."""
        from repro.core.checks import CheckKind

        edge = self.check.edge
        if edge is None:
            return None
        if self.check.kind in (CheckKind.IMPORT, CheckKind.PROPAGATE_IMPORT):
            return edge.dst
        return edge.src

    @property
    def blamed_policy(self) -> str:
        """The route map (or implicit policy) to inspect."""
        if self.check.route_map_name is not None:
            return f"route-map {self.check.route_map_name!r}"
        return "the session's default (permit-all) policy"

    def explain(self) -> str:
        """A human-readable, localised error message."""
        from repro.core.checks import CheckKind

        lines = [f"FAILED {self.check.description}"]
        router = self.blamed_router
        if router is not None:
            lines.append(f"  blamed router: {router} ({self.blamed_policy})")
        lines.append(f"  witness input route:  {self.input_route}")
        ghosts = {k: v for k, v in self.input_route.ghost.items()}
        if ghosts:
            lines.append(f"  witness input ghosts: {ghosts}")
        if self.check.kind in (CheckKind.PROPAGATE_IMPORT, CheckKind.PROPAGATE_EXPORT):
            if self.rejected:
                lines.append("  the filter REJECTED this 'good' route (propagation broken)")
            else:
                assert self.output_route is not None
                lines.append(f"  filter output route:  {self.output_route}")
                lines.append("  the output violates the next path constraint")
        elif self.check.kind is CheckKind.IMPLICATION:
            lines.append("  this route satisfies the local invariant but not the property")
        elif self.output_route is not None:
            lines.append(f"  filter output route:  {self.output_route}")
            out_ghosts = {k: v for k, v in self.output_route.ghost.items()}
            if out_ghosts:
                lines.append(f"  filter output ghosts: {out_ghosts}")
            lines.append("  the output violates the target invariant")
        else:
            lines.append("  this originated route violates the edge invariant")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.explain()
