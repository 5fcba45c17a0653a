"""The finite attribute universe a verification problem ranges over.

BGP communities and AS numbers are drawn from huge spaces, but any single
verification problem only *distinguishes* the finitely many values mentioned
in the configurations, properties, and ghost definitions.  The universe
collects those values so a symbolic route can carry one boolean per
community ("is this community present?") and per ASN ("does the AS path
mention this ASN?").  Values outside the universe behave uniformly, so this
is the standard finite-abstraction used by SMT-based control-plane
verifiers (Minesweeper makes the same move).
"""

from __future__ import annotations

from repro.bgp.config import NetworkConfig
from repro.bgp.policy import (
    Action,
    AddCommunity,
    DeleteCommunity,
    PrependAsPath,
    RouteMap,
)
from repro.bgp.route import Community
from repro.lang.predicates import add_atoms
from repro.record import Value


class AttributeUniverse(Value):
    """The distinguishable communities, ASNs, and ghost attribute names."""

    communities: tuple[Community, ...]
    asns: tuple[int, ...]
    ghosts: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "communities", tuple(sorted(set(self.communities))))
        object.__setattr__(self, "asns", tuple(sorted(set(self.asns))))
        object.__setattr__(self, "ghosts", tuple(sorted(set(self.ghosts))))

    def require_community(self, comm: Community) -> None:
        if comm not in self.communities:
            raise KeyError(
                f"community {comm} is not in the attribute universe; "
                f"rebuild the universe with it included"
            )

    def require_asn(self, asn: int) -> None:
        if asn not in self.asns:
            raise KeyError(f"ASN {asn} is not in the attribute universe")

    def require_ghost(self, name: str) -> None:
        if name not in self.ghosts:
            raise KeyError(f"ghost attribute {name!r} is not in the attribute universe")

    def extended(
        self,
        communities: tuple[Community, ...] = (),
        asns: tuple[int, ...] = (),
        ghosts: tuple[str, ...] = (),
    ) -> "AttributeUniverse":
        return AttributeUniverse(
            self.communities + tuple(communities),
            self.asns + tuple(asns),
            self.ghosts + tuple(ghosts),
        )

    @classmethod
    def from_config(
        cls,
        config: NetworkConfig,
        extra_communities: tuple[Community, ...] = (),
        extra_asns: tuple[int, ...] = (),
        ghosts: tuple[str, ...] = (),
    ) -> "AttributeUniverse":
        """Scan every route map and session for mentioned values.

        A route-map condition that names a ghost is a :class:`ValueError`
        naming the map: ghosts exist only in the verifier (§4.4), so no
        router can test one.
        """
        communities: set[Community] = set(extra_communities)
        asns: set[int] = set(extra_asns)
        named: set[str] = set()  # ghosts a condition names: must stay empty
        for rc in config.routers.values():
            asns.add(rc.asn)
            for ncfg in rc.neighbors.values():
                asns.add(ncfg.remote_asn)
                for route_map in (ncfg.import_map, ncfg.export_map):
                    if route_map is not None:
                        _scan_route_map(route_map, communities, asns, named)
                for route in ncfg.originated:
                    communities.update(route.communities)
                    asns.update(route.as_path)
        asns.update(config.external_asns.values())
        return cls(tuple(communities), tuple(asns), tuple(ghosts))


def _scan_route_map(
    route_map: RouteMap, communities: set[Community], asns: set[int], named: set[str]
) -> None:
    for clause in route_map.clauses:
        for condition in clause.matches:
            add_atoms(condition, communities, asns, named)
        for action in clause.actions:
            _scan_action(action, communities, asns)
    if named:
        raise ValueError(
            f"route map {route_map.name!r} tests ghost attribute {min(named)!r}, "
            f"which only the verifier tracks"
        )


def _scan_action(action: Action, communities: set[Community], asns: set[int]) -> None:
    if isinstance(action, (AddCommunity, DeleteCommunity)):
        communities.add(action.community)
    elif isinstance(action, PrependAsPath):
        asns.add(action.asn)
