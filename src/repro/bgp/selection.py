"""The BGP decision process: choosing the best route for a prefix.

This is the preference relation ``r1 > r2`` referenced by the liveness
axioms in Appendix A.  We implement the standard steps that matter for the
paper's model: higher local preference, then shorter AS path, then lower
origin code, then lower MED, then a deterministic tie-break (lower next hop,
then the lexicographically smallest advertising neighbor) so simulation runs
are reproducible.
"""

from __future__ import annotations

from typing import Iterable

from repro.bgp.route import Route


def preference_key(route: Route, neighbor: str = "") -> tuple:
    """A sort key: *smaller* key means *more preferred*."""
    return (
        -route.local_pref,
        len(route.as_path),
        route.origin,
        route.med,
        route.next_hop,
        neighbor,
    )


def best_route(candidates: Iterable[tuple[str, Route]]) -> tuple[str, Route] | None:
    """Pick the best (neighbor, route) pair; None if there are no candidates."""
    best: tuple[str, Route] | None = None
    best_key: tuple | None = None
    for neighbor, route in candidates:
        key = preference_key(route, neighbor)
        if best_key is None or key < best_key:
            best = (neighbor, route)
            best_key = key
    return best
