"""One equivalence oracle: paths × corpus × mutations, and the traces check.

The §4.3/§5.3 independence theorems say a verdict cannot depend on how
the local checks ran.  This module states that once for the whole suite:

* :func:`fingerprint` — per section of a report, keyed by the section
  key (``("safety",)``, ``("prop",)``, ``("sub", router)``,
  ``("impl",)``), the sorted multiset of :func:`outcome_key` (check,
  verdict, UNKNOWN reason, failing edge, blamed router and ``rejected``;
  with ``witness=True`` also the witness input and output route);
* :data:`PATHS` — each runs a :class:`Case` to a report: ``hermetic``
  (a fresh solver per check: the reference), ``pooled`` (``run_problem``
  on a fresh context), ``warm`` (one context twice: every answer a memo
  hit), ``parallel`` (two worker processes), ``tracker`` (a
  :class:`PropertyTracker` runs the case's base, then the case),
  ``reloaded`` (a workspace verifies the base, goes through ``save`` →
  ``load``, then ``apply`` + ``reverify``) and ``uncached`` (``hermetic``
  with the lang layer's term memos bypassed: every transfer, originated
  route and predicate built by its uncached reference, :data:`UNCACHED`);
  a tracker's first run must reuse nothing.  ``hermetic``, ``pooled``,
  ``tracker`` and ``reloaded`` also run under :data:`BUDGET` on the
  cases :data:`BUDGETED` names, where the budget leaves checks UNKNOWN;
  :func:`minesweeper` is the monolithic baseline, for small cases;
* :data:`CORPUS` — random networks, full meshes, Figure 1, the WAN, the
  policy-diverse network and triangles with a seeded random route map on
  every session, clean and with a planted fault that must
  FAIL at the planted router (§6.1's localisation), plus a mesh whose
  invariants are misstated on single members of two large check classes
  (the pooled paths answer a passed class's members without running
  them, so one failing member must not pass with its class), a mesh
  with an originated route, edits a tracker must not miss (a grown
  topology, an external ASN), a liveness problem with caller-supplied
  interference invariants, and a short-prefix liveness problem on a mesh
  and on a random network whose propagation R2 breaks.  A case builds
  nothing until a path runs it;
* :func:`traces` — soundness against the simulator: on a case that
  verifies, no simulated trace violates the property or an invariant
  (§4.3), and a liveness witness arrives while its path is up (§5.3).

Every path must agree with ``hermetic`` on the fingerprint, in the
reference's order for the one-shot paths (a tracker lists a section
owner group by owner group, so it is compared as a multiset).  Witness
routes are compared only where one model is being replayed: a memo hit
(``warm``) against the run that stored it, and ``uncached`` against
``hermetic`` (a memo hands back the very terms the reference builds, so
each fresh solver meets the same query).  A session may pick a
different satisfying model from a fresh solver's (README, "Query memo"
rule 4); that every reported model satisfies the asking check is rule
5's replay.  ``parallel`` and ``reloaded`` cost a process map or a cache
file per run, so they run only on the cases :data:`COSTLY` names, each
for what it exercises that the others do not.

``REPRO_CHAOS_SEED`` offsets the random-network and trace seeds.
:func:`run` is memoised per (path, case): a test naming a cell another
test ran is free, so a test that counts what a run does calls the path
itself.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import itertools
import os
import random
import tempfile
from dataclasses import dataclass
from functools import cache, partial
from pathlib import Path
from typing import Callable
from unittest import mock

from repro.baselines.minesweeper import MinesweeperVerifier
from repro.bgp.config import NeighborConfig, NetworkConfig, RouterConfig
from repro.bgp.configjson import config_from_json
from repro.bgp.policy import (
    AddCommunity,
    ClearCommunities,
    DeleteCommunity,
    Disposition,
    PrependAsPath,
    RouteMap,
    RouteMapClause,
    SetLocalPref,
    SetMed,
)
from repro.bgp.prefix import Prefix, PrefixRange
from repro.bgp.route import Community, Route
from repro.bgp.simulator import EventKind, Simulator
from repro.bgp.topology import Edge, Topology
from repro.core import checks
from repro.core.exec import ExecutionContext
from repro.core.incremental import PropertyTracker
from repro.core.liveness import (
    LivenessProblem,
    interference_properties,
    resolve_interference_invariants,
)
from repro.core.properties import InvariantMap, LivenessProperty, SafetyProperty
from repro.core.report import SAFETY_KEY, GroupOutcomes, VerificationReport, subproof_key
from repro.core.safety import SafetyProblem, build_universe, run_problem
from repro.core.workspace import Workspace
from repro.lang.predicates import (
    AsPathHas,
    AsPathLenIn,
    HasCommunity,
    Implies,
    MedIn,
    Not,
    PrefixIn,
    TruePred,
)
from repro.lang.specjson import spec_from_json
from repro.lang.transfer import apply_policy, embed_originated, transfer_policy
from repro.record import Record, fields, replace
from repro.workloads.figure1 import build_figure1
from repro.workloads import fullmesh, wan_properties
from repro.workloads.randomnet import build_random_network
from repro.workloads.wan import build_wan

from tests.core.conftest import (
    customer_liveness_property,
    harden,
    isp1_ghost,
    mesh_no_transit,
    no_transit_invariants,
    no_transit_property,
)

STRIP = RouteMap(
    "STRIP", (RouteMapClause(10, actions=(DeleteCommunity(fullmesh.TRANSIT_COMMUNITY),)),)
)
BOGONS = PrefixIn((PrefixRange.parse("192.168.0.0/16 le 32"),))
SHORT = PrefixIn((PrefixRange.parse("0.0.0.0/0 le 24"),))
DENY_SHORT = RouteMap(
    "BREAK-PROP", (RouteMapClause(10, Disposition.DENY, matches=(SHORT,)), RouteMapClause(20))
)


def bogon_edit(config: NetworkConfig, router: str, peer: str) -> NetworkConfig:
    """A benign edit: one more bogon deny ahead of ``router``'s import
    from ``peer`` (one policy digest changes, no verdict does)."""
    session = config.routers[router].neighbors[peer]
    clauses = session.import_map.clauses
    deny = RouteMapClause(clauses[0].seq - 1, Disposition.DENY, matches=(BOGONS,))
    session.import_map = RouteMap(f"{session.import_map.name}-EDIT", (deny, *clauses))
    return config


def random_edit(config: NetworkConfig, rng: random.Random, n: int) -> None:
    """One random edit to the n-router mesh: benign (a bogon deny),
    breaking (a short-prefix deny on the liveness path's R2 -> R3 export,
    or STRIP on an internal import) or network-level (an external ASN)."""
    kind = rng.choice(("benign", "break-propagation", "strip", "asn"))
    router = rng.randrange(1, n + 1)
    if kind == "benign":
        bogon_edit(config, f"R{router}", f"E{router}")
    elif kind == "break-propagation":
        config.routers["R2"].neighbors["R3"].export_map = DENY_SHORT
    elif kind == "strip":
        dst = rng.choice([r for r in config.routers if r != f"R{router}"])
        config.routers[dst].neighbors[f"R{router}"].import_map = STRIP
    else:
        config.set_external_asn(f"E{router}", 60000 + rng.randrange(100))


def exits(config: NetworkConfig) -> list[Edge]:
    """Every edge from an internal router to an external, sorted."""
    topology = config.topology
    return sorted(edge for edge in topology.external_edges() if topology.is_router(edge.src))


# -- the fingerprint -------------------------------------------------------


def outcome_key(outcome, witness: bool = False) -> tuple:
    """What one outcome decides: the check, its verdict, UNKNOWN reason,
    failing edge, blamed router and ``rejected``; with ``witness``, also
    the witness input and output route read from the failure's model."""
    failure = outcome.failure
    key = (
        str(outcome.check),
        outcome.passed,
        outcome.unknown,
        outcome.unknown_reason,
        failure and (failure.check.edge, failure.blamed_router, failure.rejected),
    )
    if witness and failure:
        return (*key, (str(failure.input_route), str(failure.output_route)))
    return key


def listing(report, witness: bool = False) -> dict[tuple, list[tuple]]:
    """Per section of the proof, :func:`outcome_key` of each outcome in
    the report's order."""
    key = partial(outcome_key, witness=witness)
    return {
        section: list(map(key, report.section_outcomes(section)))
        for section in report.sections
    }


def fingerprint(report, witness: bool = False) -> dict[tuple, list[tuple]]:
    """Per section of the proof, the sorted multiset of :func:`outcome_key`
    (a tracker lists a section by owner group, a one-shot run by edge)."""
    return {name: sorted(keys, key=repr) for name, keys in listing(report, witness).items()}


def blamed_routers(fp: dict[tuple, list[tuple]]) -> set[str]:
    """The routers blamed by the failing edge checks of a fingerprint
    (or a :func:`listing`)."""
    return {key[4][1] for keys in fp.values() for key in keys if key[4] and key[4][0]}


# -- the corpus --------------------------------------------------------------

Mutant = Callable[[], tuple[NetworkConfig, str]]  # -> (config, planted router)


@dataclass(frozen=True)
class Case:
    """One problem on one network: ``network`` builds the clean
    configuration, ``mutant`` one with a fault planted (or, for an edit
    case, the configuration the trackers start from).  A ``planted`` case
    verifies the mutant.  The tracker paths start from the other side of
    the mutant, so they re-run the groups it changes.  A clean case
    ``verifies`` unless its problem fails by construction."""

    name: str
    network: Callable[[], NetworkConfig]
    problem: Callable[[NetworkConfig], tuple]  # config -> (ghosts, problem)
    mutant: Mutant | None = None
    planted: bool = False
    verifies: bool = True

    def config(self) -> NetworkConfig:
        return self.mutant()[0] if self.planted else self.network()

    def base(self) -> NetworkConfig:
        return self.network() if self.planted or not self.mutant else self.mutant()[0]

    @property
    def planted_router(self) -> str:
        return self.mutant()[1]

    @property
    def passes(self) -> bool:
        return self.verifies and not self.planted

    def __str__(self) -> str:
        return self.name


def strip_at(build: Callable[[], NetworkConfig], edge) -> Mutant:
    """STRIP on the import of ``edge`` (an :class:`Edge`, or a function of
    the configuration picking one): its receiving router is blamed."""

    def mutant():
        config = build()
        at = edge(config) if callable(edge) else edge
        config.routers[at.dst].neighbors[at.src].import_map = STRIP
        return config, at.dst

    return mutant


def no_transit(config) -> tuple:
    """The E1 → E2 no-transit problem on a full-mesh-shaped network."""
    ghost, prop, invariants = mesh_no_transit(config)
    return (ghost,), SafetyProblem(prop, invariants)


@cache
def randomnet_case(n: int, model: str, seed: int, planted: bool = False) -> Case:
    """No-transit on a random network.  The mutant strips the transit tag
    on one seeded internal import; on the 8-router networks it strips it
    on every internal import of R3, so one failing query repeats across
    edges (the repeats are memo hits) and R3 alone is blamed."""
    build = partial(build_random_network, n, model=model, seed=seed)

    def internal_edge(config):
        internal = sorted(config.topology.internal_edges())
        return internal[random.Random(seed).randrange(len(internal))]

    def strip_r3():
        config = build()
        for peer, session in config.routers["R3"].neighbors.items():
            if config.topology.is_router(peer):
                session.import_map = STRIP
        return config, "R3"

    name = f"randomnet{n}-{model}-{seed}" + ("-planted" if planted else "")
    mutant = strip_r3 if n == 8 else strip_at(build, internal_edge)
    return Case(name, build, no_transit, mutant, planted)


def mesh_problem(kind: str, n: int) -> tuple:
    """(ghosts, problem) of a "safety", "family" or "liveness" problem
    stated over the n-router mesh, which covers every smaller mesh too."""
    if kind == "liveness":
        return (), LivenessProblem(fullmesh.full_mesh_liveness_property(n))
    ghost, prop, invariants = mesh_no_transit(fullmesh.build_full_mesh(n))
    if kind == "family":  # the second property fails its implication: no edge
        prop = [prop, SafetyProperty(Edge("R3", "E3"), prop.predicate, name="no-transit")]
    return (ghost,), SafetyProblem(prop, invariants)


@cache
def fullmesh_case(n: int, kind: str, planted: bool = False) -> Case:
    """:func:`mesh_problem` on the n-router mesh; the mutant strips the tag
    on R2's import from R1, which every E1 route to E2 crosses."""
    mesh = partial(fullmesh.build_full_mesh, n)
    name = f"fullmesh{n}-{kind}" + ("-planted" if planted else "")
    problem = lambda config: mesh_problem(kind, n)
    mutant = strip_at(mesh, Edge("R1", "R2"))
    return Case(name, mesh, problem, mutant, planted, verifies=kind != "family")


def misstated_no_transit(config) -> tuple:
    """No-transit on the 4-router mesh with two edge invariants misstated:
    ``I[R3->R4]`` is True and ``I[R2->R3]`` asks for a community nothing
    adds.  Three checks fail — R4's import from R3 (an assumption apart),
    R2's export to R3 (a goal apart) and R3's import from R2 — each after
    checks running the same filter passed earlier in the batch."""
    ghost, prop, invariants = mesh_no_transit(config)
    invariants.set_edge("R3", "R4", TruePred())
    invariants.set_edge("R2", "R3", HasCommunity(Community(9, 9)))
    return (ghost,), SafetyProblem(prop, invariants)


def wiped_mesh() -> tuple[NetworkConfig, str]:
    """The 6-router mesh with R4 clearing every community on its import
    from R1: the other planted operator (no community survives, not just
    the transit tag)."""
    config = fullmesh.build_full_mesh(6)
    wipe = RouteMap("WIPE", (RouteMapClause(10, actions=(ClearCommunities(),)),))
    config.routers["R4"].neighbors["R1"].import_map = wipe
    return config, "R4"


def originating_mesh() -> NetworkConfig:
    """The 4-router mesh with R1 originating one route towards R2: the
    corpus's originate check."""
    config = fullmesh.build_full_mesh(4)
    config.routers["R1"].neighbors["R2"].originated = (Route(Prefix.parse("10.9.0.0/16")),)
    return config


def exported_has_our_as(config) -> tuple:
    """Routes R4 exports to E4 carry our ASN: true exactly while the
    session is eBGP, which only ``external_asns`` decides."""
    prop = SafetyProperty(Edge("R4", "E4"), AsPathHas(fullmesh.INTERNAL_AS), name="exported-has-our-as")
    invariants = InvariantMap(config.topology)
    invariants.set_edge("R4", "E4", prop.predicate)
    return (), SafetyProblem(prop, invariants)


def figure1_no_transit(config) -> tuple:
    problem = SafetyProblem(no_transit_property(), no_transit_invariants(config))
    return (isp1_ghost(config),), problem


def figure1_custom_liveness(config) -> tuple:
    """Table 3's liveness with caller-supplied interference invariants
    whose atom (community 777:7) appears nowhere in the property; R3's
    sub-proof, too weak at R1, fails."""
    prop = customer_liveness_property()
    subproofs = interference_properties(prop)
    custom = {r: InvariantMap(config.topology, default=p.predicate) for r, p in subproofs.items()}
    custom["R3"].set_router("R1", Implies(HasCommunity(Community(777, 7)), subproofs["R3"].predicate))
    return (), LivenessProblem(prop, custom)


def _first_peer(config) -> str:
    topology = config.topology
    return min(r for r in topology.successors("R2") if topology.is_router(r))


def short_prefix_liveness(config) -> tuple:
    """A short-prefix route from E2 leaves by the external of R2's first
    internal neighbour: the path E2 -> R2 -> peer -> its external."""
    peer = _first_peer(config)
    exit_edge = Edge(peer, "E" + peer[1:])
    path = (Edge("E2", "R2"), "R2", Edge("R2", peer), peer, exit_edge)
    prop = LivenessProperty(
        location=exit_edge,
        predicate=SHORT,
        path=path,
        constraints=(SHORT,) * len(path),
        name="short-prefix-leaves",
    )
    return (), LivenessProblem(prop)


def short_prefix_liveness_case(name: str, build: Callable[[], NetworkConfig]) -> Case:
    """:func:`short_prefix_liveness` with R2's export to the peer denying
    short prefixes: its propagation check fails, blamed on R2."""

    def mutant():
        config = build()
        config.routers["R2"].neighbors[_first_peer(config)].export_map = DENY_SHORT
        return config, "R2"

    return Case(name, build, short_prefix_liveness, mutant, True)


#: The WANs of the corpus: Table 4's shape, a larger one, and one whose
#: regions are route-reflector stars.
WANS = {
    "wan": partial(build_wan, 2, 3),
    "wan3x3": partial(build_wan, 3, 3),
    "rrwan": partial(build_wan, 3, 4, peers_per_edge=1, route_reflectors=True),
}


def _wan_problem(kind: str, build, config) -> tuple:
    wan = build()
    if kind == "peering":
        quality = wan_properties.peering_quality_predicates(wan)["no-bogons"]
        problem = wan_properties.peering_problem(wan, "no-bogons", quality)
    elif kind == "ip-reuse":
        problem = wan_properties.ip_reuse_safety_problem(wan, 0)
    else:  # on a reflector star, a target the witness reaches via the hub
        members, (__, attach) = wan.routers_by_region[0], wan.dc_edge_into(0)
        star = wan.config.routers[members[0]].rr_clients
        target = next(m for m in members[1:] if m != attach) if star else None
        problem = wan_properties.ip_reuse_liveness_problem(wan, 0, target_router=target)
    return (problem.ghost,), problem.problem()


@cache
def _policy_diverse(seed: int, n: int) -> tuple[str, str, str, str]:
    """(config, spec, buggy config, blamed router) of the benchmark's
    policy-diverse input, generated by its file, loaded read-only."""
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e" / "e2e_inputs.py"
    spec = importlib.util.spec_from_file_location("e2e_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    config_doc, spec_doc, __ = inputs.policy_diverse(n, seed)
    buggy_doc, manifest = inputs.policy_diverse_bug(config_doc, seed)
    dump = inputs.dump
    return dump(config_doc), dump(spec_doc), dump(buggy_doc), manifest["blamed_router"]


def policy_diverse_case(seed: int, n: int = 8) -> Case:
    """The unique-route-map-per-session network with its planted
    ``ClearCommunities`` bug; the manifest names the router to blame."""
    docs = partial(_policy_diverse, seed, n)

    def problem(config):
        spec = spec_from_json(docs()[1])
        (safety,) = spec.safety
        invariants = safety.build_invariants(config.topology)
        return spec.build_ghosts(config.topology), SafetyProblem(safety.property, invariants)

    def mutant():
        __, __, buggy, blamed = docs()
        return config_from_json(buggy), blamed

    network = lambda: config_from_json(docs()[0])
    return Case(f"policy-diverse-{seed}-planted", network, problem, mutant, True)


TRIANGLE_COMMUNITIES = [Community(100, v) for v in range(1, 5)]
TRIANGLE_RANGES = [
    PrefixRange.parse(r) for r in ("10.0.0.0/8 le 24", "192.168.0.0/16 le 32", "0.0.0.0/0 le 8")
]


def _random_condition(rng: random.Random, depth: int = 0):
    kind = rng.choice(("community", "prefix", "med", "pathlen", "not")[: 5 - depth])
    if kind == "community":
        return HasCommunity(rng.choice(TRIANGLE_COMMUNITIES))
    if kind == "prefix":
        return PrefixIn((rng.choice(TRIANGLE_RANGES),))
    if kind == "med":
        low = rng.randint(0, 50)
        return MedIn(low, low + rng.randint(0, 100))
    if kind == "pathlen":
        low = rng.randint(0, 3)
        return AsPathLenIn(low, low + rng.randint(0, 5))
    return Not(_random_condition(rng, 1))


def _random_action(rng: random.Random):
    kind = rng.choice(("lp", "med", "add", "del", "clear", "prepend"))
    if kind == "lp":
        return SetLocalPref(rng.randint(0, 300))
    if kind == "med":
        return SetMed(rng.randint(0, 100))
    if kind in ("add", "del"):
        community = rng.choice(TRIANGLE_COMMUNITIES)
        return AddCommunity(community) if kind == "add" else DeleteCommunity(community)
    if kind == "clear":
        return ClearCommunities()
    return PrependAsPath(65000 + rng.randint(0, 3), rng.randint(1, 2))


def _random_route_map(rng: random.Random, name: str) -> RouteMap | None:
    """None (no filter) or 1–4 clauses; a deny has no actions."""
    if rng.random() < 0.2:
        return None
    clauses = []
    for i in range(rng.randint(1, 4)):
        deny = rng.random() < 0.3
        matches = tuple(_random_condition(rng) for __ in range(rng.randint(0, 2)))
        actions = () if deny else tuple(_random_action(rng) for __ in range(rng.randint(0, 3)))
        disposition = Disposition.DENY if deny else Disposition.PERMIT
        clauses.append(RouteMapClause((i + 1) * 10, disposition, matches, actions))
    return RouteMap(name, tuple(clauses))


def _tracked(seed: int) -> Community:
    return Community(100, 9 if seed % 2 == 0 else 1)


def triangle(seed: int) -> NetworkConfig:
    """Three iBGP routers in a triangle, ``Ri`` peering with ``Ei``, and a
    seeded random route map (or none) on every session: community,
    prefix, MED and path-length matches, negated too, under local-pref,
    MED, community and prepend actions.  On an even seed every external
    import first denies the tracked community, which no action adds."""
    rng = random.Random(20260726 + seed)
    routers = ("R1", "R2", "R3")
    topology = Topology()
    for i, name in enumerate(routers, 1):
        topology.add_router(name)
        topology.add_external(f"E{i}")
        topology.add_peering(name, f"E{i}")
    for a, b in (("R1", "R2"), ("R2", "R3"), ("R1", "R3")):
        topology.add_peering(a, b)
    config = NetworkConfig(topology)
    guard = RouteMapClause(1, Disposition.DENY, (HasCommunity(_tracked(seed)),))
    for i, name in enumerate(routers):
        config.set_external_asn(f"E{i + 1}", 65100 + i)
        inner = _random_route_map(rng, f"{name}-EXT-IN")
        clauses = inner.clauses if inner else (RouteMapClause(5),)
        import_map = RouteMap(f"{name}-EXT-IN", (guard, *clauses) if seed % 2 == 0 else clauses)
        export_map = _random_route_map(rng, f"{name}-EXT-OUT")
        router = RouterConfig(name, 65000)
        router.add_neighbor(NeighborConfig(f"E{i + 1}", 65100 + i, import_map, export_map))
        for peer in routers:
            if peer != name:
                peer_map = _random_route_map(rng, f"{name}-{peer}-IN")
                router.add_neighbor(NeighborConfig(peer, 65000, peer_map))
        config.add_router_config(router)
    return config


def triangle_problem(seed: int, config: NetworkConfig) -> tuple:
    """No route tagged with the tracked community leaves R2 for E2, held
    as the invariant everywhere."""
    untracked = Not(HasCommunity(_tracked(seed)))
    prop = SafetyProperty(Edge("R2", "E2"), untracked, name="untracked-to-E2")
    return (), SafetyProblem(prop, InvariantMap(config.topology, default=untracked))


def triangle_case(seed: int) -> Case:
    """:func:`triangle` and its problem; the even seeds verify."""
    network, problem = partial(triangle, seed), partial(triangle_problem, seed)
    return Case(f"triangle-{seed}", network, problem, verifies=seed % 2 == 0)


CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))
SEEDS = (2 * CHAOS_SEED, 2 * CHAOS_SEED + 1)


def _corpus() -> list[Case]:
    cases = [
        randomnet_case(n, model, seed, planted)
        for n in (5, 6, 8)
        for model in ("gnp", "ba", "ring")
        for seed in SEEDS
        for planted in (False, True)
    ]
    for n in (4, 5):
        cases += [fullmesh_case(n, k, p) for k in ("safety", "family") for p in (False, True)]
        cases.append(fullmesh_case(n, "liveness"))
    mesh = partial(fullmesh.build_full_mesh, 4)
    mesh6 = partial(fullmesh.build_full_mesh, 6)
    cases.append(Case("fullmesh4-safety-misstated", mesh, misstated_no_transit, verifies=False))
    cases.append(Case("fullmesh4-safety-originating", originating_mesh, no_transit))
    cases += [fullmesh_case(6, "safety"), Case("fullmesh6-safety-wiped", mesh6, no_transit, wiped_mesh, True)]
    cases += [fullmesh_case(n, "liveness") for n in (6, 10)]
    random6 = partial(build_random_network, 6, model="gnp", seed=3)
    cases += [
        short_prefix_liveness_case("fullmesh5-liveness-planted", partial(fullmesh.build_full_mesh, 5)),
        short_prefix_liveness_case("randomnet6-gnp-3-liveness-planted", random6),
    ]
    for kind in ("safety", "liveness"):  # the tracker's base is the 4-router mesh
        grown = lambda config, kind=kind: mesh_problem(kind, 5)
        smaller = lambda: (fullmesh.build_full_mesh(4), None)
        cases.append(Case(f"fullmesh5-{kind}-grown", partial(fullmesh.build_full_mesh, 5), grown, smaller))
    # E4 joins our AS (R4's session follows): R4's export to E4 stops
    # prepending our ASN, and the network digest re-runs every owner.
    joined = lambda: (fullmesh.full_mesh_external_asn_edit(4, asn=fullmesh.INTERNAL_AS), "R4")
    cases += [Case("fullmesh4-asn" + s, mesh, exported_has_our_as, joined, p) for p, s in VARIANTS]
    fig1_strip = strip_at(build_figure1, Edge("R1", "R2"))
    fig1_r3 = lambda: (build_figure1(buggy_r3_strip=True), "R3")
    fig1_liveness = lambda config: ((), LivenessProblem(customer_liveness_property()))
    fig1 = build_figure1
    for p, suffix in VARIANTS:
        cases.append(Case(f"figure1-safety{suffix}", fig1, figure1_no_transit, fig1_strip, p))
        cases.append(Case(f"figure1-liveness{suffix}", fig1, fig1_liveness, fig1_r3, p))
    untagged = lambda: (build_figure1(buggy_r1_tagging=True), "R1")  # §2's first bug
    cases.append(Case("figure1-safety-untagged", fig1, figure1_no_transit, untagged, True))
    cases.append(Case("figure1-liveness-custom", fig1, figure1_custom_liveness, fig1_r3, verifies=False))
    for name, build in WANS.items():
        wan = lambda build=build: build().config
        wan_bug = lambda build=build: (build(buggy_edge_router="W1-0").config, "W1-0")
        peering = partial(_wan_problem, "peering", build)
        cases += [Case(f"{name}-peering{s}", wan, peering, wan_bug, p) for p, s in VARIANTS]
        if name != "wan3x3":
            for kind in ("ip-reuse", "ip-reuse-liveness"):
                problem = partial(_wan_problem, kind, build)
                cases.append(Case(f"{name}-{kind}", wan, problem, wan_bug))
    cases += [triangle_case(seed) for seed in range(10)]
    return cases + [policy_diverse_case(seed) for seed in (0, 1)]


VARIANTS = ((False, ""), (True, "-planted"))
CORPUS = _corpus()
CASES = {case.name: case for case in CORPUS}
#: Within the monolithic baseline's reach (about 0.3 s each).
SMALL = ("figure1-safety", "figure1-safety-planted", "figure1-safety-untagged", "fullmesh4-safety")
#: The cases ``parallel`` and ``reloaded`` run on, each with what it
#: exercises that no other case does; every other case runs the
#: in-process paths only.
COSTLY = {
    "parallel": {
        f"randomnet8-ba-{SEEDS[0]}-planted": "one owner's repeated failures answered in one worker",
        "fullmesh4-safety-planted": "a counterexample pickled back from a worker",
        "fullmesh4-safety-misstated": "failing members of passed classes inside a worker's chunk",
        "fullmesh5-family-planted": "two properties and an edgeless failure in one map",
        "figure1-liveness-planted": "every section of a §5 proof in one process map",
        "wan-ip-reuse": "the family whose sessions learn clauses, spread over workers",
        "policy-diverse-0-planted": "a route map per session: no two checks share a class",
    },
    "reloaded": {
        f"randomnet6-gnp-{SEEDS[0]}-planted": "a restored all-PASSED base broken at a seeded owner",
        "fullmesh4-safety": "a planted FAILED restored from the file, repaired at its owner",
        "fullmesh5-liveness-grown": "a topology change after a load: nothing is reused",
        "fullmesh4-asn-planted": "an external-ASN edit after a load: nothing is reused",
        "figure1-liveness-planted": "sub-proof groups restored and re-run at their owner",
        "policy-diverse-1-planted": "a route map per session, each restored and re-digested",
    },
}


#: The conflict budget of the budgeted cells.  A ``conflicts`` UNKNOWN is
#: the query's answer, so every path must give it where ``hermetic`` does.
BUDGET = 0


def hardened_case(name: str) -> Case:
    """``CASES[name]`` with ``HARD`` at its last router's exit
    (:func:`tests.core.conftest.harden`)."""
    case = CASES[name]

    def problem(config):
        ghosts, problem = case.problem(config)
        return ghosts, harden(config, problem, exits(config)[-1])

    return dataclasses.replace(case, name=f"{name}-hard", problem=problem)


#: The cases the budgeted cells run on: on each, :data:`BUDGET` leaves a
#: check UNKNOWN that an unbudgeted run decides.  Their trackers re-run the
#: planted router's groups, the hard one's too on Figure 1.
BUDGETED = [
    CASES["triangle-9"],  # a random route map whose check takes a conflict
    *map(hardened_case, ("figure1-liveness-planted", "fullmesh5-liveness-planted")),
    hardened_case(f"randomnet6-gnp-{SEEDS[0]}-planted"),
]


# -- the paths -----------------------------------------------------------------


def hermetic(case: Case, budget: int | None = None):
    """Every check on a fresh solver, no session, no memo: the reference."""
    config = case.config()
    return hermetic_report(config, *case.problem(config), budget=budget)


def hermetic_report(
    config: NetworkConfig, ghosts: tuple, problem, budget: int | None = None
) -> VerificationReport:
    universe = build_universe(config, problem.predicates(), ghosts)
    groups = {
        section: [
            GroupOutcomes.of(checks, [c.run(config, universe, ghosts, budget) for c in checks])
        ]
        for section, checks in edge_checks(config, ghosts, problem).items()
    }
    report = VerificationReport(problem.property, groups, 0.0)
    replay_witnesses(report, config, ghosts, problem)
    return report


def per_edge_checks(config: NetworkConfig, invariants: InvariantMap) -> list[checks.LocalCheck]:
    """Every edge's Import, Export and Originate check as the per-edge
    accessors define it, edge by edge with no class in sight: edges in
    ``(src, dst)`` order, and within an edge Import, Export, Originate."""
    def name(route_map):
        return None if route_map is None else route_map.name

    kind, topo, edge_checks = checks.CheckKind, config.topology, []
    for edge in sorted(topo.edges):
        if topo.is_router(edge.dst):
            edge_checks.append(checks.LocalCheck(
                kind.IMPORT, edge, invariants.get(edge), invariants.get(edge.dst),
                None, name(config.import_map(edge)),
            ))
        if topo.is_router(edge.src):
            edge_checks.append(checks.LocalCheck(
                kind.EXPORT, edge, invariants.get(edge.src), invariants.get(edge),
                None, name(config.export_map(edge)),
            ))
            if config.originate(edge):
                edge_checks.append(checks.LocalCheck(
                    kind.ORIGINATE, edge, invariants.get(edge), invariants.get(edge)
                ))
    return edge_checks


def checked_members(
    config: NetworkConfig, invariants: InvariantMap, generated: list
) -> list[checks.LocalCheck]:
    """The members of ``generated`` (checks of one invariant map), one
    check per edge side in generation's order, after asserting that its
    edge checks are exactly :func:`per_edge_checks`' — so a member given
    its class's assumption, goal or route map, or lost or doubled by the
    grouping, fails every cell that runs it."""
    members = [member for check in generated for member in check.expand()]
    reference = per_edge_checks(config, invariants)
    position = {(c.kind, c.edge): i for i, c in enumerate(reference)}
    edge_kinds = (checks.CheckKind.IMPORT, checks.CheckKind.EXPORT, checks.CheckKind.ORIGINATE)
    edge_sides = [c for c in members if c.kind in edge_kinds]
    assert sorted(edge_sides, key=lambda c: position.get((c.kind, c.edge), -1)) == reference
    return members


def edge_checks(config: NetworkConfig, ghosts: tuple, problem) -> dict[tuple, list]:
    """Per section of ``problem``, its generated checks member by member
    (:func:`checked_members` for a safety proof or sub-proof; propagation
    and implication checks stand for one edge or none as generated)."""
    if problem.kind == "safety":
        maps = {SAFETY_KEY: problem.invariants}
    else:
        __, by_router = resolve_interference_invariants(config, problem.prop, problem.invariants)
        maps = {subproof_key(router): invariants for router, invariants in by_router.items()}
    sections = problem.checks(config, ghosts)
    assert set(maps) <= set(sections)
    for section, generated in sections.items():
        if section in maps:
            sections[section] = checked_members(config, maps[section], generated)
        else:
            assert all(check.members is None for check in generated), section
    return sections


def replay_witnesses(
    report: VerificationReport, config: NetworkConfig, ghosts: tuple, problem
) -> int:
    """Replay every FAILED filter check's witness on the concrete network;
    returns how many were replayed.

    The input meets the check's assumption; the concrete transfer
    (``import_route``/``export_route``, then the edge's ghost updates)
    rejects it exactly where the witness says so, and otherwise gives the
    witness output, which breaks the goal.  A witness spells the AS path
    as the universe members present plus padding, so two paths compare by
    length and by the members they hold."""
    universe = set(build_universe(config, problem.predicates(), ghosts).asns)
    replayed = 0
    for outcome in report.iter_outcomes():
        failure = outcome.failure
        filters = (*checks.IMPORT_KINDS, *checks.EXPORT_KINDS)
        if failure is None or failure.check.kind not in filters:
            continue
        check, route = failure.check, failure.input_route
        assert check.assumption.holds(route), (str(check), route)
        importing = check.kind in checks.IMPORT_KINDS
        output = (config.import_route if importing else config.export_route)(check.edge, route)
        for ghost in ghosts if output else ():
            value = (ghost.import_update if importing else ghost.export_update)(check.edge)
            output = output if value is None else output.with_ghost(ghost.name, value)
        assert (output is None) is failure.rejected, (str(check), route)
        if output is not None:
            witness = failure.output_route
            assert replace(output, as_path=()) == replace(witness, as_path=())
            assert len(output.as_path) == len(witness.as_path), (str(check), route)
            assert set(output.as_path) & universe == set(witness.as_path) & universe
            assert not check.goal.holds(output), (str(check), route)
        replayed += 1
    return replayed


def reference(config: NetworkConfig, ghosts: tuple, problem) -> dict[tuple, list[tuple]]:
    """The hermetic fingerprint of a problem on any configuration."""
    return fingerprint(hermetic_report(config, ghosts, problem))


def pooled(case: Case, context: ExecutionContext | None = None, budget: int | None = None):
    config = case.config()
    ghosts, problem = case.problem(config)
    context = context or ExecutionContext(conflict_budget=budget)
    report = run_problem(context, problem, config, ghosts)
    replay_witnesses(report, config, ghosts, problem)  # a session's models, not a fresh solver's
    return report


def warm(case: Case):
    context = ExecutionContext()
    pooled(case, context)
    return pooled(case, context)


def parallel(case: Case):
    return pooled(case, ExecutionContext(parallel=2))


def tracker(case: Case, budget: int | None = None):
    """A tracker runs ``case.base()`` (running every check), then the case."""
    ghosts, problem = case.problem(case.base())
    tracker = PropertyTracker(ExecutionContext(conflict_budget=budget), problem, ghosts)
    assert tracker.run(case.base()).reused_checks == 0
    return tracker.run(case.config())


def _uncached_transfer(direction: str, config, edge, route, ghosts=()):
    return apply_policy(transfer_policy(config, edge, ghosts, direction), route)


def _uncached_originated(config, edge, universe, ghosts=()):
    # Declared order, not the memo key's sorted one: names are unique.
    values = [(g.name, g.originated_value) for g in ghosts]
    return embed_originated(universe, config.originate(edge), values)


#: Each memoised term builder a check calls, and the uncached reference
#: it must equal.
UNCACHED = {
    "transfer_import": partial(_uncached_transfer, "import"),
    "transfer_export": partial(_uncached_transfer, "export"),
    "symbolic_originated": _uncached_originated,
    "predicate_term": lambda pred, route: pred.to_term(route),
}


def uncached(case: Case):
    """``hermetic`` with every term built by the uncached references."""
    with mock.patch.multiple(checks, **UNCACHED):
        return hermetic(case)


def reloaded(case: Case, budget: int | None = None):
    """A workspace verifies ``case.base()`` and is saved; the one loaded
    from the file for a freshly built base, on two workers, applies the
    case and re-verifies (a multi-owner reverify is a process map)."""
    ghosts, problem = case.problem(case.base())
    workspace = Workspace(case.base(), ghosts=ghosts, conflict_budget=budget)
    workspace.verify(problem.prop, problem.invariants)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "workspace.lyc"
        workspace.save(path)
        workspace = Workspace.load(path, case.base(), ghosts, conflict_budget=budget, parallel=2)
    workspace.apply(case.config())
    (entry,) = workspace.reverify()
    return entry.report


PATHS = {
    "hermetic": hermetic,
    "pooled": pooled,
    "warm": warm,
    "parallel": parallel,
    "tracker": tracker,
    "reloaded": reloaded,
    "uncached": uncached,
}
#: The paths that list a section owner group by owner group.
TRACKERS = ("tracker", "reloaded")
#: The paths compared with ``hermetic`` under :data:`BUDGET` as well.
BUDGETED_PATHS = ("pooled", "tracker", "reloaded")
#: The paths that replay another's models, and the path each replays.
REPLAYS = {"warm": "pooled", "uncached": "hermetic"}


def cells(case: Case) -> list[str]:
    """The paths compared against ``hermetic`` on ``case``."""
    return [
        path for path in PATHS
        if path != "hermetic" and (path not in COSTLY or case.name in COSTLY[path])
    ]


def run(path: str, case: Case, budget: int | None = None):
    """The report of one cell, once per session, under a conflict budget
    if one is given (:data:`BUDGETED_PATHS` take one); no path may fall
    back to serial on a healthy platform."""
    return _run(path, case, budget)


@cache
def _run(path: str, case: Case, budget: int | None):
    report = PATHS[path](case) if budget is None else PATHS[path](case, budget=budget)
    assert not report.degradation.degraded(), (path, case.name)
    return report


def expected(case: Case) -> dict[tuple, list[tuple]]:
    """The hermetic fingerprint of ``case``."""
    return fingerprint(run("hermetic", case))


def verified(case: Case) -> bool:
    """Whether every hermetic outcome of ``case`` passed."""
    return all(key[1] for keys in expected(case).values() for key in keys)


def agree(case: Case, *paths: str, budget: int | None = None) -> dict[tuple, list[tuple]]:
    """Assert each of ``paths`` decides ``case`` as ``hermetic`` does —
    under the same ``budget``, if one is given; a one-shot path in the
    reference's order, a tracker as a multiset — and that a path in
    :data:`REPLAYS` lists the witnesses of the run it replays; returns the
    reference fingerprint."""
    reference = run("hermetic", case, budget)
    for path in paths:
        report = run(path, case, budget)
        view = fingerprint if path in TRACKERS else listing
        assert view(report) == view(reference), f"{path} diverges from hermetic on {case}"
        if path in REPLAYS:
            replayed = listing(run(REPLAYS[path], case), witness=True)
            assert listing(report, witness=True) == replayed, f"{path} witnesses differ on {case}"
    return fingerprint(reference)


@cache
def minesweeper(case: Case):
    """The monolithic baseline's result on the case's property."""
    config = case.config()
    ghosts, problem = case.problem(config)
    return MinesweeperVerifier(config, ghosts=ghosts).verify(problem.prop)


# -- the traces check ------------------------------------------------------

#: Simulations per verified case: seeded announcements and link failures.
TRACE_DRAWS = 60


def _prefix_ranges(value) -> set[PrefixRange]:
    """Every prefix range a route map or predicate mentions."""
    found, stack = set(), [value]
    while stack:
        item = stack.pop()
        if isinstance(item, PrefixRange):
            found.add(item)
        elif isinstance(item, (tuple, list, frozenset)):
            stack.extend(item)
        elif isinstance(item, Record):
            stack.extend(getattr(item, name) for name in fields(item))
    return found


class Traces:
    """Seeded simulations of one configuration.

    Ghosts are realised by provenance: each external announces only from
    its own pool of prefixes, so a route's ghost values are what the
    imports from its announcer set (originated routes carry the
    originated value).  An announcement must satisfy the invariants
    assumed on its external's edges (for some value of the ghosts it
    carries in), as the theorems assume.  ``reserve`` is ``(external,
    ranges)``: the prefixes in ``ranges`` only that external announces."""

    def __init__(self, seed: str, config, ghosts, problem, maps, reserve=None) -> None:
        self.config, self.ghosts, self.maps = config, ghosts, maps
        self.rng = rng = random.Random(f"{seed}-{CHAOS_SEED}")
        topology = config.topology
        universe = build_universe(config, problem.predicates(), ghosts)
        self.communities = sorted({*universe.communities, Community(9, 9)})
        self.asns = sorted({*universe.asns, 64512, 666})
        ranges = _prefix_ranges(problem.predicates())
        for router in config.routers.values():
            for session in router.neighbors.values():
                ranges |= _prefix_ranges((session.import_map, session.export_map))
        self.externals = sorted(topology.externals)
        originated = {
            route.prefix for edge in topology.edges if topology.is_router(edge.src)
            for route in config.originate(edge)
        }
        # Two ordinary prefixes each, and a random share of the members and
        # near-misses of every range, so filters meet both sides of theirs.
        ordinary = [Prefix((40 + i) << 24, 8) for i in range(2 * len(self.externals))]
        near = {
            next(r.prefix.subprefixes(max(length, r.prefix.length)))
            for r in ranges
            for length in {r.min_length, r.max_length, min(r.max_length + 1, 32)}
        }
        near = sorted(near - originated - set(ordinary), key=str)
        rng.shuffle(near)
        step = len(self.externals)
        self.pools = {
            e: ordinary[2 * i : 2 * i + 2] + near[i::step] for i, e in enumerate(self.externals)
        }
        if reserve:
            source, held = reserve
            mine = [p for p in near if any(r.matches(p) for r in held)]
            for e in self.externals:
                self.pools[e] = [p for p in self.pools[e] if p not in mine]
            self.pools[source] += mine
        self.values = {}  # prefix -> the ghost values a route for it carries
        for external, prefixes in self.pools.items():
            values = {g.name: self._entry_value(g, external) for g in ghosts}
            self.values.update(dict.fromkeys(prefixes, values))
        self.originated = {g.name: g.originated_value for g in ghosts}

    def _entry_value(self, ghost, external: str) -> bool:
        updates = {ghost.import_update(e) for e in self.config.topology.edges_from(external)}
        assert len(updates) == 1 and None not in updates, (ghost.name, external)
        return updates.pop()

    def realise(self, route: Route) -> Route:
        return replace(route, ghost=self.values.get(route.prefix, self.originated))

    def admissible(self, external: str, route: Route) -> bool:
        edges = list(self.config.topology.edges_from(external))
        names = [g.name for g in self.ghosts]
        return all(
            any(
                m.get(edge).holds(replace(route, ghost=dict(zip(names, bits))))
                for bits in itertools.product((False, True), repeat=len(names))
            )
            for m in self.maps
            for edge in edges
        )

    def route(self, external: str, prefix: Prefix) -> Route:
        rng = self.rng
        asn = self.config.external_asns.get(external)
        path = tuple(rng.sample(self.asns, rng.randrange(3)))
        return Route(
            prefix=prefix,
            as_path=path if asn is None else (asn, *path),
            local_pref=rng.choice((50, 100, 200)),
            med=rng.randrange(50),
            communities=frozenset(rng.sample(self.communities, rng.randrange(3))),
            origin=rng.randrange(3),
        )

    def announcements(self, exclude: str | None = None) -> dict[str, list[Route]]:
        """Up to two admissible routes from each external's pool."""
        drawn = {}
        for external in self.externals:
            pool = self.pools[external]
            if external == exclude or not pool:
                continue
            routes = [self.route(external, self.rng.choice(pool)) for __ in range(self.rng.randrange(3))]
            drawn[external] = [r for r in routes if self.admissible(external, r)]
        return drawn

    def failures(self, keep: set = frozenset(), most: int = 3) -> set[Edge]:
        edges = sorted(set(self.config.topology.edges) - keep)
        return set(self.rng.sample(edges, min(len(edges), self.rng.randrange(most + 1))))

    def violations(self, result, claims: dict) -> list[str]:
        """Events whose route breaks a claim at their location: a route
        sent on an edge, or selected at a router."""
        return [
            f"{event} breaks {claim}"
            for event in result.events
            if event.kind is not EventKind.RECV
            for claim in claims.get(event.location, ())
            if not claim.holds(self.realise(event.route))
        ]


def _claims(properties, invariants: InvariantMap, topology) -> dict:
    """Every location's invariant, and each property at its location."""
    claims: dict = {
        location: [invariants.get(location)]
        for location in (*topology.routers, *topology.edges)
        if topology.is_router(location if isinstance(location, str) else location.src)
    }
    for prop in properties:
        claims.setdefault(prop.location, []).append(prop.predicate)
    return claims


def traces(case: Case, draws: int = TRACE_DRAWS) -> int:
    """The soundness theorems against the simulator on a case that
    verifies; returns the number of events checked.

    Safety (§4.3): no trace under any admissible announcements and link
    failures sends or selects a route that breaks the property or an
    invariant.  Liveness (§5.3): each no-interference sub-proof holds as
    safety does, and a route meeting the first path constraint, announced
    while every path edge is up, reaches the location as a route the
    property admits, whatever else is announced and fails."""
    config = case.config()
    ghosts, problem = case.problem(config)
    topology = config.topology
    liveness = problem.prop if isinstance(problem, LivenessProblem) else None
    if liveness is None:
        properties = problem.prop if isinstance(problem.prop, list) else [problem.prop]
        claims = _claims(properties, problem.invariants, topology)
        sim = Traces(case.name, config, ghosts, problem, [problem.invariants])
    else:
        subproofs, maps = resolve_interference_invariants(config, liveness, problem.invariants)
        claims = {}
        for router, sub in subproofs.items():
            for location, predicates in _claims([sub], maps[router], topology).items():
                claims.setdefault(location, []).extend(predicates)
        source, first = liveness.path[0].src, liveness.constraints[0]
        held = _prefix_ranges(first)
        sim = Traces(case.name, config, ghosts, problem, list(maps.values()), held and (source, held))
        # The verifier does not model eBGP loop prevention, so a witness
        # whose path holds one of our ASNs would be dropped on entry.
        ours = {router.asn for router in config.routers.values()}
        witnesses = [
            route for route in (sim.route(source, p) for p in sim.pools[source] * 8)
            if first.holds(sim.realise(route)) and sim.admissible(source, route)
            and not ours & set(route.as_path)
        ]
        assert witnesses, f"no route from {source}'s pool meets {first}"
        path = {step for step in liveness.path if isinstance(step, Edge)}
    checked = 0
    for __ in range(draws):
        if liveness is None:
            result = Simulator(config, failed_edges=sim.failures()).run(sim.announcements())
        else:
            announced = {**sim.announcements(exclude=source), source: [sim.rng.choice(witnesses)]}
            failed = sim.failures(keep=path, most=len(topology.edges))
            result = Simulator(config, failed_edges=failed).run(announced)
            arrived = [
                e.route for e in result.events
                if e.location == liveness.location and e.kind is not EventKind.RECV
            ]
            assert any(liveness.predicate.holds(sim.realise(r)) for r in arrived), (case.name, announced)
        assert not sim.violations(result, claims), (case.name, sim.violations(result, claims)[:3])
        checked += len(result.events)
    return checked
