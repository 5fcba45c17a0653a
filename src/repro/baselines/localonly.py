"""An rcc-style checker: user-listed local checks with no global guarantee.

rcc [Feamster & Balakrishnan, NSDI 2005] validates BGP configurations with
local best-practice checks, but — as §2 observes — "there is no guarantee
that the local checks together ensure the desired end-to-end properties".
This baseline makes that concrete: it runs exactly the checks the user
lists and nothing else.  The ablation benchmark shows a configuration bug
(an internal filter stripping the tracking community) that passes every
intuitive local check here yet is caught by Lightyear's generated closure.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.bgp.config import NetworkConfig
from repro.core.checks import CheckKind, CheckOutcome, LocalCheck
from repro.core.safety import build_universe
from repro.lang.ghost import GhostAttribute
from repro.lang.predicates import Predicate


@dataclass
class LocalOnlyResult:
    outcomes: list[CheckOutcome]
    wall_time_s: float

    @property
    def passed(self) -> bool:
        return all(o.passed for o in self.outcomes)


class LocalOnlyChecker:
    """Run exactly the listed (edge, direction, assumption, goal) checks."""

    def __init__(
        self, config: NetworkConfig, ghosts: tuple[GhostAttribute, ...] = ()
    ) -> None:
        self.config = config
        self.ghosts = tuple(ghosts)
        self._checks: list[LocalCheck] = []

    def add_import_check(self, edge, assumption: Predicate, goal: Predicate) -> None:
        route_map = self.config.import_map(edge)
        self._checks.append(
            LocalCheck(
                kind=CheckKind.IMPORT,
                edge=edge,
                assumption=assumption,
                goal=goal,
                route_map_name=None if route_map is None else route_map.name,
                text=f"user-listed import check on {edge}",
            )
        )

    def add_export_check(self, edge, assumption: Predicate, goal: Predicate) -> None:
        route_map = self.config.export_map(edge)
        self._checks.append(
            LocalCheck(
                kind=CheckKind.EXPORT,
                edge=edge,
                assumption=assumption,
                goal=goal,
                route_map_name=None if route_map is None else route_map.name,
                text=f"user-listed export check on {edge}",
            )
        )

    def run(self) -> LocalOnlyResult:
        start = time.perf_counter()
        predicates = [c.assumption for c in self._checks] + [c.goal for c in self._checks]
        universe = build_universe(self.config, predicates, self.ghosts)
        outcomes = [
            check.run(self.config, universe, self.ghosts) for check in self._checks
        ]
        return LocalOnlyResult(outcomes=outcomes, wall_time_s=time.perf_counter() - start)
