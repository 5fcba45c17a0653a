"""The §6.1 verification problems, stated over the synthetic WAN.

This module constructs, for a generated :class:`WanNetwork`:

* the eleven Internet peering policies (Table 4a's family): "bad" routes of
  various kinds are never accepted from peers;
* the IP-reuse safety problem (Table 4b): reused prefixes from a region are
  not accepted by routers outside that region;
* the IP-reuse liveness problem (Table 4c): a data-center route with a
  reused prefix reaches the other WAN routers of its region.

Each builder returns the property (or property family), the invariant map,
and the ghost attributes — ready to hand to the verification entry points.

The ``verify_*_problems`` runners are one sweep (:func:`_sweep`) over
different problem lists: **one** attribute universe covering every
problem's properties, constraints and invariants, and **one**
:class:`repro.core.exec.ExecutionContext` — ``workspace=``, any context, a
:class:`repro.core.workspace.Workspace` being one — whose session pool,
``parallel`` setting, budget and deadlines every problem runs under.  The
encodings built for the first problem are reused by all later ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.bgp.prefix import Prefix, PrefixRange
from repro.bgp.topology import Edge
from repro.core.exec import ExecutionContext
from repro.core.liveness import LivenessProblem, LivenessReport
from repro.core.properties import InvariantMap, LivenessProperty, SafetyProperty
from repro.core.safety import SafetyProblem, SafetyReport, build_universe, run_problem
from repro.lang.ghost import GhostAttribute
from repro.lang.predicates import (
    AllOf,
    AsPathHas,
    GhostIs,
    HasCommunity,
    Implies,
    LocalPrefIn,
    Not,
    Predicate,
    PrefixIn,
)
from repro.workloads.wan import (
    BAD_TRANSIT_AS,
    BOGON_PREFIXES,
    REUSED_RANGE,
    WanNetwork,
    region_community,
)


# ---------------------------------------------------------------------------
# Internet peering policies (Table 4a and the other ten)
# ---------------------------------------------------------------------------


def from_peer_ghost(wan: WanNetwork) -> GhostAttribute:
    """``FromPeer``: true exactly for routes that entered via a peer edge."""
    topo = wan.config.topology
    peer_edges = [Edge(peer, router) for peer, router in wan.peers.items()]
    return GhostAttribute.source_tracker("FromPeer", topo, peer_edges)


def peering_quality_predicates(wan: WanNetwork) -> dict[str, Predicate]:
    """The eleven kinds of "bad" peer routes (Q(r) of §6.1), as good-route
    predicates: a route is acceptable iff Q(r) holds."""
    no_regional = AllOf(
        tuple(
            Not(HasCommunity(region_community(region)))
            for region in range(wan.regions)
        )
    )
    return {
        "no-bogons": Not(PrefixIn(BOGON_PREFIXES)),
        "no-invalid-as-path": Not(AsPathHas(BAD_TRANSIT_AS)),
        "no-long-prefixes": PrefixIn((PrefixRange(Prefix.parse("0.0.0.0/0"), 0, 24),)),
        "no-default-route": Not(PrefixIn((PrefixRange(Prefix.parse("0.0.0.0/0"), 0, 0),))),
        "no-regional-communities": no_regional,
        "normalized-local-pref": LocalPrefIn(100, 100),
        "no-reused-space": Not(PrefixIn((REUSED_RANGE,))),
        "no-rfc1918-10": Not(PrefixIn((PrefixRange.parse("10.0.0.0/8 le 32"),))),
        "no-loopback": Not(PrefixIn((PrefixRange.parse("127.0.0.0/8 le 32"),))),
        "no-link-local": Not(PrefixIn((PrefixRange.parse("169.254.0.0/16 le 32"),))),
        "no-multicast": Not(PrefixIn((PrefixRange.parse("224.0.0.0/4 le 32"),))),
    }


@dataclass
class PeeringProblem:
    """One Table 4a-style verification problem."""

    name: str
    properties: list[SafetyProperty]
    invariants: InvariantMap
    ghost: GhostAttribute

    def problem(self) -> SafetyProblem:
        return SafetyProblem(self.properties, self.invariants)


def peering_problem(wan: WanNetwork, name: str, quality: Predicate) -> PeeringProblem:
    """Build the property family "FromPeer(r) => Q(r) at every router".

    The invariant structure is Table 4a's: the same implication at every
    internal location, no assumption on external edges.
    """
    ghost = from_peer_ghost(wan)
    predicate = Implies(GhostIs("FromPeer"), quality)
    invariants = InvariantMap(wan.config.topology, default=predicate)
    properties = [
        SafetyProperty(location=router, predicate=predicate, name=name)
        for router in sorted(wan.config.topology.routers)
    ]
    return PeeringProblem(
        name=name, properties=properties, invariants=invariants, ghost=ghost
    )


def all_peering_problems(wan: WanNetwork) -> list[PeeringProblem]:
    return [
        peering_problem(wan, name, quality)
        for name, quality in peering_quality_predicates(wan).items()
    ]


def combined_peering_problem(wan: WanNetwork) -> PeeringProblem:
    """All eleven qualities as one conjunct property.

    §6.1 reports that splitting combined properties into simple ones was
    both easier to debug and faster to solve; the ablation benchmark
    measures this by comparing against :func:`all_peering_problems`.
    """
    quality = AllOf(tuple(peering_quality_predicates(wan).values()))
    return peering_problem(wan, "combined-peering", quality)


# ---------------------------------------------------------------------------
# The sweep: one universe + one execution context across problems
# ---------------------------------------------------------------------------


def _sweep(wan: WanNetwork, problems, context: ExecutionContext | None) -> list:
    """Run WAN problems back to back against shared encodings.

    One attribute universe covers every problem's predicates and ghosts,
    and every problem runs on the one ``context`` — so the symbolic input
    routes, the memoised transfer outputs, the per-owner session
    encodings and the query memo are built once for the whole sweep, and
    the context's budget and deadlines bound every problem in it.
    """
    if context is None:
        context = ExecutionContext()
    proofs = [prob.problem() for prob in problems]
    universe = build_universe(
        wan.config,
        None,
        [pred for proof in proofs for pred in proof.predicates()],
        tuple(prob.ghost for prob in problems),
    )
    return [
        (prob, run_problem(context, proof, wan.config, (prob.ghost,), universe))
        for prob, proof in zip(problems, proofs)
    ]


def verify_peering_problems(
    wan: WanNetwork,
    problems: Sequence[PeeringProblem] | None = None,
    workspace: ExecutionContext | None = None,
) -> list[tuple[PeeringProblem, SafetyReport]]:
    """Run Table-4a peering families with encodings shared across families.

    All eleven families read the same filters under the same ``FromPeer``
    ghost; only the quality predicate differs, so every family after the
    first is (mostly) assumption-scoped re-solves against the encodings
    the first family built.
    """
    if problems is None:
        problems = all_peering_problems(wan)
    return _sweep(wan, problems, workspace)


# ---------------------------------------------------------------------------
# IP reuse: safety (Table 4b)
# ---------------------------------------------------------------------------


def from_region_ghost(wan: WanNetwork, region: int) -> GhostAttribute:
    """``FromRegion``: routes that entered via the region's data centers."""
    topo = wan.config.topology
    dc_edges = [
        Edge(dc, router)
        for dc, (dc_region, router) in wan.datacenters.items()
        if dc_region == region
    ]
    return GhostAttribute.source_tracker(f"FromRegion{region}", topo, dc_edges)


def _exactly_region_community(wan: WanNetwork, region: int) -> Predicate:
    """RegionalComms ∩ Comm(r) = {C_region}."""
    parts: list[Predicate] = [HasCommunity(region_community(region))]
    parts.extend(
        Not(HasCommunity(region_community(other)))
        for other in range(wan.regions)
        if other != region
    )
    return AllOf(tuple(parts))


@dataclass
class IpReuseSafetyProblem:
    """The Table 4b verification problem for one region."""

    region: int
    properties: list[SafetyProperty]
    invariants: InvariantMap
    ghost: GhostAttribute

    def problem(self) -> SafetyProblem:
        return SafetyProblem(self.properties, self.invariants)


def ip_reuse_safety_problem(wan: WanNetwork, region: int) -> IpReuseSafetyProblem:
    """Routers outside ``region`` never accept its reused-prefix routes.

    Invariants follow Table 4b: inside the region, reused FromRegion routes
    carry exactly the region community; outside, they do not exist; edges
    inherit the sending router's invariant.
    """
    ghost = from_region_ghost(wan, region)
    from_region = GhostIs(f"FromRegion{region}")
    reused = PrefixIn((REUSED_RANGE,))

    inside_pred = Implies(
        AllOf((from_region, reused)), _exactly_region_community(wan, region)
    )
    outside_pred = Implies(from_region, Not(reused))

    invariants = InvariantMap(wan.config.topology, default=outside_pred)
    topo = wan.config.topology
    inside_routers = set(wan.routers_by_region[region])
    for router in inside_routers:
        invariants.set(router, inside_pred)
        for edge in topo.edges_from(router):
            invariants.set(edge, inside_pred)

    properties = [
        SafetyProperty(
            location=router,
            predicate=outside_pred,
            name=f"ip-reuse-safety-region{region}",
        )
        for router in sorted(topo.routers)
        if router not in inside_routers
    ]
    return IpReuseSafetyProblem(
        region=region, properties=properties, invariants=invariants, ghost=ghost
    )


def verify_ip_reuse_safety_problems(
    wan: WanNetwork,
    regions: Sequence[int] | None = None,
    workspace: ExecutionContext | None = None,
) -> list[tuple[IpReuseSafetyProblem, SafetyReport]]:
    """Run Table-4b families for many regions with shared encodings.

    The per-region ghosts differ (``FromRegion0``, ``FromRegion1``, ...),
    so the covering universe carries all of them; the filters being encoded
    are still the same per owner router, and the shared pool reuses them
    across regions.
    """
    if regions is None:
        regions = range(wan.regions)
    return _sweep(wan, [ip_reuse_safety_problem(wan, r) for r in regions], workspace)


# ---------------------------------------------------------------------------
# IP reuse: liveness (Table 4c)
# ---------------------------------------------------------------------------


@dataclass
class IpReuseLivenessProblem:
    """The Table 4c verification problem for one region."""

    region: int
    property: LivenessProperty
    interference_invariants: dict[str, InvariantMap]
    ghost: GhostAttribute

    def problem(self) -> LivenessProblem:
        return LivenessProblem(self.property, self.interference_invariants)


def ip_reuse_liveness_problem(
    wan: WanNetwork, region: int, target_router: str | None = None
) -> IpReuseLivenessProblem:
    """A reused-prefix route from the region's data center reaches
    ``target_router`` over the path D -> R1 -> R2 (Table 4c)."""
    ghost = from_region_ghost(wan, region)
    from_region = GhostIs(f"FromRegion{region}")
    reused = PrefixIn((REUSED_RANGE,))

    dc, attach = wan.dc_edge_into(region)
    members = wan.routers_by_region[region]
    if target_router is None:
        target_router = next(r for r in members if r != attach)
    if target_router == attach or target_router not in members:
        raise ValueError(f"target {target_router!r} must be another region router")

    assumption = AllOf((from_region, reused))
    good = AllOf((from_region, reused, _exactly_region_community(wan, region)))
    goal = AllOf((from_region, reused))

    topo = wan.config.topology
    path: list = [Edge(dc, attach), attach]
    constraints: list = [assumption, good]
    if topo.has_edge(attach, target_router):
        hops = [target_router]
    else:
        # No direct session (route-reflector regions): go via a common
        # iBGP neighbor — the region's reflector.
        common = sorted(
            topo.successors(attach)
            & topo.predecessors(target_router)
            & frozenset(members)
        )
        if not common:
            raise ValueError(
                f"no iBGP path from {attach} to {target_router} in region {region}"
            )
        hops = [common[0], target_router]
    for hop in hops:
        previous = path[-1]
        path.append(Edge(previous, hop))
        path.append(hop)
        constraints.extend([good, good])

    prop = LivenessProperty(
        location=target_router,
        predicate=goal,
        path=tuple(path),
        constraints=tuple(constraints),
        name=f"ip-reuse-liveness-region{region}",
    )

    # No-interference invariants: in every region j, reused routes carry
    # C_j (so inter-region imports reject them); in the target region they
    # additionally are FromRegion with exactly C_region.
    interference_pred = Implies(reused, good)
    invariants = InvariantMap(wan.config.topology, default=interference_pred)
    topo = wan.config.topology
    for other, members_j in wan.routers_by_region.items():
        if other == region:
            continue
        other_pred = Implies(reused, HasCommunity(region_community(other)))
        for router in members_j:
            invariants.set(router, other_pred)
            for edge in topo.edges_from(router):
                invariants.set(edge, other_pred)

    interference = {
        location: invariants for location in path if isinstance(location, str)
    }
    return IpReuseLivenessProblem(
        region=region,
        property=prop,
        interference_invariants=interference,
        ghost=ghost,
    )


def verify_ip_reuse_liveness_problems(
    wan: WanNetwork,
    regions: Sequence[int] | None = None,
    workspace: ExecutionContext | None = None,
) -> list[tuple[IpReuseLivenessProblem, LivenessReport]]:
    """Run Table-4c liveness problems for many regions with shared encodings.

    The covering universe includes every region's interference invariants
    (whose predicates mention other regions' communities — atoms a
    per-region universe would otherwise rebuild differently), so regions
    after the first mostly re-solve against encodings the first built.
    """
    if regions is None:
        regions = range(wan.regions)
    return _sweep(wan, [ip_reuse_liveness_problem(wan, r) for r in regions], workspace)
