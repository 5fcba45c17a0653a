"""One equivalence oracle: paths × corpus × mutations.

The §4.3/§5.3 independence theorems say a verdict cannot depend on how
the local checks ran.  This module states that once for the whole suite:

* :func:`fingerprint` — per section of a report, the sorted multiset of
  :func:`outcome_key` (check, verdict, UNKNOWN reason, failing edge,
  blamed router and ``rejected``; with ``witness=True`` also the witness
  input and output route);
* :data:`PATHS` — each runs a :class:`Case` to a report: ``hermetic``
  (a fresh solver per check: the reference), ``pooled`` (``run_problem``
  on a fresh context), ``warm`` (one context twice: every answer a memo
  hit), ``parallel`` (two worker processes), ``tracker`` (a workspace
  verifies the case's base, then ``apply`` + ``reverify``) and
  ``reloaded`` (the same through ``save`` → ``load``); :func:`minesweeper`
  is the monolithic baseline, for small cases;
* :data:`CORPUS` — random networks, full meshes, Figure 1, the WAN and
  the policy-diverse network, clean and with a planted fault that must
  FAIL at the planted router (§6.1's localisation), plus a mesh whose
  invariants are misstated on single members of two large check classes
  (the pooled paths answer a passed class's members without running
  them, so one failing member must not pass with its class).  A case
  builds nothing until a path runs it.

Every path must agree with ``hermetic`` on the fingerprint, in the
reference's order for the one-shot paths (a tracker lists a section
owner group by owner group, so it is compared as a multiset).  Witness
routes are compared only where one model is being replayed: a memo hit
(``warm``) against the run that stored it.  A session may pick a
different satisfying model from a fresh solver's (README, "Query memo"
rule 4); that every reported model satisfies the asking check is rule
5's replay.

``REPRO_CHAOS_SEED`` offsets the random-network seeds.  :func:`run` is
memoised per (path, case): a test naming a cell another test ran is
free, so a test that counts what a run does calls the path itself.
"""

from __future__ import annotations

import importlib.util
import os
import random
import tempfile
from dataclasses import dataclass
from functools import cache, partial
from pathlib import Path
from typing import Callable

from repro.baselines.minesweeper import MinesweeperVerifier
from repro.bgp.config import NetworkConfig
from repro.bgp.configjson import config_from_json
from repro.bgp.policy import DeleteCommunity, Disposition, MatchPrefix, RouteMap, RouteMapClause
from repro.bgp.prefix import PrefixRange
from repro.bgp.route import Community
from repro.bgp.topology import Edge
from repro.core.exec import ExecutionContext
from repro.core.liveness import LivenessProblem, LivenessReport
from repro.core.properties import SafetyProperty
from repro.core.report import DegradationReport, GroupOutcomes
from repro.core.safety import SafetyProblem, build_universe, run_problem
from repro.core.workspace import Workspace, WorkspaceEntry
from repro.lang.predicates import HasCommunity, TruePred
from repro.lang.specjson import spec_from_json
from repro.workloads.figure1 import build_figure1
from repro.workloads import fullmesh, wan_properties
from repro.workloads.randomnet import build_random_network
from repro.workloads.wan import build_wan

from tests.core.conftest import (
    customer_liveness_property,
    isp1_ghost,
    mesh_no_transit,
    no_transit_invariants,
    no_transit_property,
)

STRIP = RouteMap(
    "STRIP", (RouteMapClause(10, actions=(DeleteCommunity(fullmesh.TRANSIT_COMMUNITY),)),)
)
BOGONS = MatchPrefix((PrefixRange.parse("192.168.0.0/16 le 32"),))


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
        short = MatchPrefix((PrefixRange.parse("0.0.0.0/0 le 24"),))
        deny = RouteMapClause(10, Disposition.DENY, matches=(short,))
        config.routers["R2"].neighbors["R3"].export_map = RouteMap(
            "BREAK-PROP", (deny, RouteMapClause(20))
        )
    elif kind == "strip":
        dst = rng.choice([r for r in config.routers if r != f"R{router}"])
        config.routers[dst].neighbors[f"R{router}"].import_map = STRIP
    else:
        config.set_external_asn(f"E{router}", 60000 + rng.randrange(100))


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


def listing(report, witness: bool = False) -> dict[str, list[tuple]]:
    """Per section of the proof, :func:`outcome_key` of each outcome in
    the report's order."""
    if isinstance(report, LivenessReport):
        sections = {
            "propagation": report.propagation_outcomes,
            "implication": [report.implication_outcome],
            **{f"sub {r}": sub.outcomes for r, sub in report.interference_reports.items()},
        }
    else:
        sections = {"safety": report.iter_outcomes()}
    key = partial(outcome_key, witness=witness)
    return {name: list(map(key, outcomes)) for name, outcomes in sections.items()}


def fingerprint(report, witness: bool = False) -> dict[str, list[tuple]]:
    """Per section of the proof, the sorted multiset of :func:`outcome_key`
    (a tracker lists a section by owner group, a one-shot run by edge)."""
    return {name: sorted(keys, key=repr) for name, keys in listing(report, witness).items()}


def blamed_routers(fp: dict[str, list[tuple]]) -> set[str]:
    """The routers blamed by the failing edge checks of a fingerprint
    (or a :func:`listing`)."""
    return {key[4][1] for keys in fp.values() for key in keys if key[4] and key[4][0]}


# -- the corpus --------------------------------------------------------------

Mutant = Callable[[], tuple[NetworkConfig, str]]  # -> (config, planted router)


@dataclass(frozen=True)
class Case:
    """One problem on one network: ``network`` builds the clean
    configuration, ``mutant`` one with a fault planted.  A ``planted`` case
    verifies the mutant.  The tracker paths start from the other side of
    the fault, so they re-run the planted router's groups; they skip a
    case that is not ``tracked`` (a property family: a workspace entry is
    one property, and ``test_run_problem_is_the_reference`` pins a
    family's tracker)."""

    name: str
    network: Callable[[], NetworkConfig]
    problem: Callable[[NetworkConfig], tuple]  # config -> (ghosts, problem)
    mutant: Mutant | None = None
    planted: bool = False
    tracked: bool = True

    def config(self) -> NetworkConfig:
        return self.mutant()[0] if self.planted else self.network()

    def base(self) -> NetworkConfig:
        return self.network() if self.planted or not self.mutant else self.mutant()[0]

    @property
    def planted_router(self) -> str:
        return self.mutant()[1]

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
    """No-transit on a random network; the mutant strips the transit tag
    on one seeded internal import."""
    build = partial(build_random_network, n, model=model, seed=seed)

    def internal_edge(config):
        internal = sorted(config.topology.internal_edges())
        return internal[random.Random(seed).randrange(len(internal))]

    name = f"randomnet{n}-{model}-{seed}" + ("-planted" if planted else "")
    return Case(name, build, no_transit, strip_at(build, internal_edge), planted)


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
    return Case(name, mesh, problem, mutant, planted, tracked=kind != "family")


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


def figure1_no_transit(config) -> tuple:
    problem = SafetyProblem(no_transit_property(), no_transit_invariants(config))
    return (isp1_ghost(config),), problem


WAN_SHAPE = (2, 3)


def _wan_problem(kind: str, config) -> tuple:
    wan = build_wan(*WAN_SHAPE)
    if kind == "peering":
        quality = wan_properties.peering_quality_predicates(wan)["no-bogons"]
        problem = wan_properties.peering_problem(wan, "no-bogons", quality)
    elif kind == "ip-reuse":
        problem = wan_properties.ip_reuse_safety_problem(wan, 0)
    else:
        problem = wan_properties.ip_reuse_liveness_problem(wan, 0)
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


CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))


def _corpus() -> list[Case]:
    cases = [
        randomnet_case(6, model, seed, planted)
        for model in ("gnp", "ba", "ring")
        for seed in (2 * CHAOS_SEED, 2 * CHAOS_SEED + 1)
        for planted in (False, True)
    ]
    for n in (4, 5):
        cases += [fullmesh_case(n, k, p) for k in ("safety", "family") for p in (False, True)]
        cases.append(fullmesh_case(n, "liveness"))
    cases.append(
        Case("fullmesh4-safety-misstated", partial(fullmesh.build_full_mesh, 4), misstated_no_transit)
    )
    fig1_strip = strip_at(build_figure1, Edge("R1", "R2"))
    fig1_r3 = lambda: (build_figure1(buggy_r3_strip=True), "R3")
    fig1_liveness = lambda config: ((), LivenessProblem(customer_liveness_property()))
    wan = lambda: build_wan(*WAN_SHAPE).config
    wan_bug = lambda: (build_wan(*WAN_SHAPE, buggy_edge_router="W1-0").config, "W1-0")
    peering = partial(_wan_problem, "peering")
    fig1 = build_figure1
    for p, suffix in ((False, ""), (True, "-planted")):
        cases.append(Case(f"figure1-safety{suffix}", fig1, figure1_no_transit, fig1_strip, p))
        cases.append(Case(f"figure1-liveness{suffix}", fig1, fig1_liveness, fig1_r3, p))
        cases.append(Case(f"wan-peering{suffix}", wan, peering, wan_bug, p, tracked=False))
    for kind in ("ip-reuse", "ip-reuse-liveness"):
        problem = partial(_wan_problem, kind)
        cases.append(Case(f"wan-{kind}", wan, problem, wan_bug, tracked=kind != "ip-reuse"))
    return cases + [policy_diverse_case(seed) for seed in (0, 1)]


CORPUS = _corpus()
CASES = {case.name: case for case in CORPUS}
#: Within the monolithic baseline's reach (about 0.3 s each).
SMALL = ("figure1-safety", "figure1-safety-planted", "fullmesh4-safety")


# -- the paths -----------------------------------------------------------------


def hermetic(case: Case):
    """Every check on a fresh solver, no session, no memo: the reference."""
    config = case.config()
    return hermetic_report(config, *case.problem(config))


def hermetic_report(config: NetworkConfig, ghosts: tuple, problem):
    universe = build_universe(config, None, problem.predicates(), ghosts)
    groups = {
        section: [GroupOutcomes.of(checks, [c.run(config, universe, ghosts) for c in checks])]
        for section, checks in problem.checks(config).items()
    }
    return problem.report(groups, 0.0, DegradationReport())


def reference(config: NetworkConfig, ghosts: tuple, problem) -> dict[str, list[tuple]]:
    """The hermetic fingerprint of a problem on any configuration."""
    return fingerprint(hermetic_report(config, ghosts, problem))


def pooled(case: Case, context: ExecutionContext | None = None):
    config = case.config()
    ghosts, problem = case.problem(config)
    return run_problem(context or ExecutionContext(), problem, config, ghosts)


def warm(case: Case):
    context = ExecutionContext()
    pooled(case, context)
    return pooled(case, context)


def parallel(case: Case):
    return pooled(case, ExecutionContext(parallel=2))


def tracked(case: Case, reload: bool = False, parallel: int | None = None) -> WorkspaceEntry:
    """A workspace verifies ``case.base()``, optionally goes through
    ``save`` → ``load``, then ``apply`` + ``reverify`` the case."""
    ghosts, problem = case.problem(case.base())
    workspace = Workspace(case.base(), ghosts=ghosts, parallel=parallel)
    workspace.verify(problem.prop, problem.invariants)
    if reload:
        with tempfile.TemporaryDirectory() as tmp:
            workspace.save(Path(tmp) / "workspace.lyc")
            workspace = Workspace.load(
                Path(tmp) / "workspace.lyc", config=case.base(), ghosts=ghosts, parallel=parallel
            )
    workspace.apply(case.config())
    (entry,) = workspace.reverify()
    return entry


PATHS = {
    "hermetic": hermetic,
    "pooled": pooled,
    "warm": warm,
    "parallel": parallel,
    "tracker": lambda case: tracked(case).report,
    "reloaded": lambda case: tracked(case, reload=True).report,
}
#: The paths that list a section owner group by owner group.
TRACKERS = ("tracker", "reloaded")


def cells(case: Case) -> list[str]:
    """The paths compared against ``hermetic`` on ``case``."""
    return [p for p in PATHS if p != "hermetic" and (case.tracked or p not in TRACKERS)]


@cache
def run(path: str, case: Case):
    """The report of one cell, once per session; no path may fall back to
    serial on a healthy platform."""
    report = PATHS[path](case)
    assert not (report.degradation and report.degradation.degraded()), (path, case.name)
    return report


def expected(case: Case) -> dict[str, list[tuple]]:
    """The hermetic fingerprint of ``case``."""
    return fingerprint(run("hermetic", case))


def agree(case: Case, *paths: str) -> dict[str, list[tuple]]:
    """Assert each of ``paths`` decides ``case`` as ``hermetic`` does — a
    one-shot path in the reference's order, a tracker as a multiset — and
    that ``warm``'s memo hits replay ``pooled``'s witnesses; returns the
    reference fingerprint."""
    reference = run("hermetic", case)
    for path in paths:
        report = run(path, case)
        view = fingerprint if path in TRACKERS else listing
        assert view(report) == view(reference), f"{path} diverges from hermetic on {case}"
        if path == "warm":
            fresh = listing(run("pooled", case), witness=True)
            assert listing(report, witness=True) == fresh, f"memo witnesses differ on {case}"
    return fingerprint(reference)


@cache
def minesweeper(case: Case):
    """The monolithic baseline's result on the case's property."""
    config = case.config()
    ghosts, problem = case.problem(config)
    return MinesweeperVerifier(config, ghosts=ghosts).verify(problem.prop)
