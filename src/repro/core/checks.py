"""Local check generation and execution (§4.2, §5.2).

Each :class:`LocalCheck` is one SMT query about a single filter — the
unit of Lightyear's scalability claim — standing for every edge of its
owner router that asks it (§4.3: a check depends on its filter, not on
which edge it is).  Checks carry enough metadata to localise a failure to
the exact router, direction, and route map, and to render the violated
implication.

A check can be discharged hermetically (a fresh :class:`repro.smt.Solver`
per query) or against a shared :class:`repro.smt.CheckSession`, which
reuses the clause-encoded transfer-function fragments across
the checks that share them — see :class:`repro.core.exec.Scheduler`,
which routes checks to one session per owner router (drawn from a
persistent :class:`repro.smt.SessionPool` when the caller supplies one).
Term construction itself is also reused: the transfer functions called
from ``run`` are memoised by policy content in :mod:`repro.lang.transfer`,
so two edges running the same filter build their symbolic relation once.

On real policy most checks are the *same* query: hash-consing hands
:meth:`LocalCheck._discharge` the identical tuple of interned assertions
for every edge running the same filter under the same invariants.  A
pooled session therefore carries its pool's query memo
(:attr:`repro.smt.SessionPool.answers`), consulted before the session is
asked to solve.  The rules, all enforced in ``_discharge``:

* only SAT/UNSAT answers are stored — an UNKNOWN (``conflicts`` /
  ``timeout``) describes a budget, not the query;
* under a conflict budget a query the memo has not answered is solved on
  a fresh solver, as on the hermetic path, so a ``conflicts`` UNKNOWN is
  the query's answer on every path, never the asking session's;
* a check whose deadline has already expired is not solved: it comes
  back UNKNOWN/``timeout`` on the hermetic, pooled and budgeted paths
  alike, memo or no memo;
* the hermetic path (``session=None``) never touches the memo — it is the
  reference of the equivalence oracle (``tests/oracle.py``);
* a hit's outcome belongs to the *asking* check: its counterexample is
  rebuilt from the stored model with the asking check's own terms, so
  blame stays on the asking edge, and its stats are the shared zero-cost
  :data:`MEMO_HIT_STATS`;
* every SAT answer, solved or recalled, is replayed against the asking
  check's own assertions before it may become a :class:`CheckFailure`; a
  model that does not satisfy them raises :class:`InternalError`.

Above the memo, :func:`repro.core.exec.pool.run_in_sessions` answers a
check's members by class.
"""

from __future__ import annotations

import enum
import time
from collections.abc import Callable, Iterable, Iterator, Sequence
from functools import reduce

from repro import smt
from repro.bgp.config import NeighborConfig, NetworkConfig
from repro.bgp.topology import Edge
from repro.core.counterexample import CheckFailure
from repro.core.properties import Location
from repro.lang.ghost import GhostAttribute
from repro.lang.predicates import Predicate, predicate_term
from repro.lang.symroute import SymbolicRoute
from repro.lang.transfer import (
    edge_policy,
    symbolic_originated,
    transfer_export,
    transfer_import,
)
from repro.lang.universe import AttributeUniverse
from repro.record import Record
from repro.smt.sat import SatStats
from repro.smt.solver import SolverStats

#: Called as ``hook(check, deadline_abs)`` before every check starts, when
#: set; :func:`repro.testing.faults.install` fills it, the process map
#: ships its value to the workers, and nothing else touches it.
check_start_hook: "Callable[[LocalCheck, float | None], None] | None" = None

#: The stats of an answer recalled from the query memo: nothing was encoded
#: or solved for the asking check.  One shared instance, so the outcomes of
#: a run's repeats also pickle as one object.
MEMO_HIT_STATS = SolverStats()


class InternalError(RuntimeError):
    """The verifier contradicted itself; never a verdict about the network."""


class CheckKind(enum.Enum):
    """What a local check establishes."""

    IMPORT = "import"  # edge invariant => node invariant, through Import
    EXPORT = "export"  # node invariant => edge invariant, through Export
    ORIGINATE = "originate"  # originated routes satisfy the edge invariant
    IMPLICATION = "implication"  # I_l subset-of P
    PROPAGATE_EXPORT = "propagate-export"  # C_i survives Export and is accepted
    PROPAGATE_IMPORT = "propagate-import"  # C_i survives Import and is accepted


#: The kinds that run an edge's import filter, and its export filter
#: (tuples: a membership test compares identities, never hashes an enum).
IMPORT_KINDS = (CheckKind.IMPORT, CheckKind.PROPAGATE_IMPORT)
EXPORT_KINDS = (CheckKind.EXPORT, CheckKind.PROPAGATE_EXPORT)

#: The description of a generated safety check, rendered on demand from its
#: kind and edge: it is read only for failures, UNKNOWNs, ``--verbose``
#: listings and fault matching, never for the checks that simply pass.
_DESCRIPTIONS = {
    CheckKind.IMPORT: (
        "import check at {e.dst} on {e}: I[{e}] routes surviving import satisfy I[{e.dst}]"
    ),
    CheckKind.EXPORT: (
        "export check at {e.src} on {e}: I[{e.src}] routes surviving export satisfy I[{e}]"
    ),
    CheckKind.ORIGINATE: "originate check on {e}: originated routes satisfy I[{e}]",
}


class LocalCheck(Record):
    """A single generated check, ready to run.

    ``text`` is a custom description; without one (the Import, Export and
    Originate checks of a safety proof) :attr:`description` is rendered
    from the kind and edge.

    A filter check's class ``key`` is ``(kind, assumption, goal, policy)``
    (``policy``: :func:`repro.lang.transfer.transfer_policy`), every input
    of its query but the universe a batch fixes; its ``members`` are the
    edges of its owner with that key, ``edge`` first, all asking one query.
    Without ``members`` a check stands for its ``edge`` alone; without a
    key (originate, implication) it is never answered by class.  Both hold
    for the configuration and ghosts the check was generated from.

    A plain record with its own positional ``__init__`` (a WAN sweep
    builds tens of thousands).  Checks compare by value but are not
    hashable, and nothing mutates one once generated.
    """

    kind: CheckKind
    edge: Edge | None
    assumption: Predicate
    goal: Predicate
    text: str | None
    route_map_name: str | None
    location: Location | None
    members: list[Edge] | None
    key: tuple | None

    def __init__(
        self,
        kind: CheckKind,
        edge: Edge | None,
        assumption: Predicate,
        goal: Predicate,
        text: str | None = None,
        route_map_name: str | None = None,
        location: Location | None = None,
        members: list[Edge] | None = None,
        key: tuple | None = None,
    ) -> None:
        self.kind = kind
        self.edge = edge
        self.assumption = assumption
        self.goal = goal
        self.text = text
        self.route_map_name = route_map_name
        self.location = location
        self.members = members
        self.key = key

    @property
    def size(self) -> int:
        """How many edge checks this check stands for."""
        return 1 if self.members is None else len(self.members)

    def expand(self) -> "Iterator[LocalCheck]":
        """One check per member edge, in member order, built as drawn."""
        if self.members is None:
            yield self
            return
        for edge in self.members:
            yield type(self)(
                self.kind, edge, self.assumption, self.goal, self.text,
                self.route_map_name, self.location,
            )

    @property
    def description(self) -> str:
        if self.text is not None:
            return self.text
        template = _DESCRIPTIONS.get(self.kind, "{k} check on {e}")
        return template.format(k=self.kind.value, e=self.edge or self.location)

    def run(
        self,
        config: NetworkConfig,
        universe: AttributeUniverse,
        ghosts: tuple[GhostAttribute, ...] = (),
        conflict_budget: int | None = None,
        session: "smt.CheckSession | None" = None,
        deadline_s: float | None = None,
    ) -> "CheckOutcome":
        """Discharge the check with the SMT solver.

        With ``session`` the query is solved under assumptions against the
        session's shared clause database instead of a fresh encoding — or,
        for a pooled session, recalled from the pool's query memo when an
        earlier check already asked it; verdict, blamed edge and UNKNOWN
        reason are identical either way.  ``deadline_s`` is a wall-clock
        budget in seconds for the whole check — multi-query checks
        (originate) spread it across their discharges — after which the
        outcome is UNKNOWN with ``unknown_reason == "timeout"``.
        """
        # Pin the deadline once, up front, so encoding time and every
        # discharge of a multi-query check draw from the same budget.
        deadline_abs = None if deadline_s is None else time.monotonic() + deadline_s
        if check_start_hook is not None:
            check_start_hook(self, deadline_abs)
        return self._decide(config, universe, ghosts, conflict_budget, session, deadline_abs)

    def passed_key_outcome(
        self,
        config: NetworkConfig,
        universe: AttributeUniverse,
        ghosts: tuple[GhostAttribute, ...],
        conflict_budget: int | None,
        session: "smt.CheckSession",
        deadline_s: float | None,
    ) -> "CheckOutcome":
        """The outcome of this check when a check with its class ``key``
        already passed in the same batch.

        It is the outcome a query-memo hit gives — the class's query is
        this check's query — counted as one on the owner's ``session``,
        but no transfer, predicate or assertion is built for it.  The fault
        hook and the per-check deadline apply as in :meth:`run`: a check
        whose deadline has expired bypasses the memo (rule 2 above) and is
        decided as :meth:`run` decides it.
        """
        deadline_abs = None if deadline_s is None else time.monotonic() + deadline_s
        if check_start_hook is not None:
            check_start_hook(self, deadline_abs)
        if deadline_abs is not None and time.monotonic() >= deadline_abs:
            return self._decide(config, universe, ghosts, conflict_budget, session, deadline_abs)
        session.memo_hits += 1
        return CheckOutcome(self, True, MEMO_HIT_STATS)

    # ------------------------------------------------------------------

    def _decide(
        self,
        config: NetworkConfig,
        universe: AttributeUniverse,
        ghosts: tuple[GhostAttribute, ...],
        conflict_budget: int | None,
        session: "smt.CheckSession | None",
        deadline_abs: float | None,
    ) -> "CheckOutcome":
        if self.kind in IMPORT_KINDS:
            return self._run_filter(
                config, universe, ghosts, transfer_import, conflict_budget, session,
                deadline_abs,
            )
        if self.kind in EXPORT_KINDS:
            return self._run_filter(
                config, universe, ghosts, transfer_export, conflict_budget, session,
                deadline_abs,
            )
        if self.kind is CheckKind.ORIGINATE:
            return self._run_originate(
                config, universe, ghosts, conflict_budget, session, deadline_abs
            )
        if self.kind is CheckKind.IMPLICATION:
            return self._run_implication(universe, conflict_budget, session, deadline_abs)
        raise AssertionError(f"unhandled check kind {self.kind}")

    def _discharge(
        self,
        assertions: list,
        universe: AttributeUniverse,
        conflict_budget: int | None,
        session: "smt.CheckSession | None",
        deadline_abs: float | None,
    ) -> tuple["smt.Result", SolverStats, "smt.Model | None"]:
        """Decide a conjunction; returns (result, stats, model-if-SAT).

        A pooled ``session`` is asked only for queries its pool's memo has
        not answered, and gets the route's well-formedness pre-asserted
        (:func:`prepare_session`) before its first such solve.  Under a
        conflict budget a query the memo has not answered is solved on a
        fresh solver instead, as on the hermetic path: a session's learnt
        clauses change how many conflicts a query takes, so a ``conflicts``
        UNKNOWN would otherwise depend on what the session solved before.
        """
        deadline_s = (
            None if deadline_abs is None else deadline_abs - time.monotonic()
        )
        if deadline_s is not None and deadline_s <= 0:
            # Expired before the solve: UNKNOWN on every path, unsolved (a
            # solver would still answer a query its propagation decides).
            return smt.Result.UNKNOWN, SolverStats(unknown_reason="timeout"), None
        query = tuple(assertions)
        answers = None if session is None else session.answers
        answer = None if answers is None else answers.get(query)
        if answer is not None:
            assert session is not None
            session.memo_hits += 1
            result, model = answer
            stats = MEMO_HIT_STATS
        elif session is None or conflict_budget is not None:
            solver = smt.Solver()
            for assertion in assertions:
                solver.add(assertion)
            result = solver.check(conflict_budget=conflict_budget, deadline_s=deadline_s)
            model = solver.model() if result is smt.Result.SAT else None
            stats = solver.stats
        else:
            prepare_session(session, universe)
            result = session.check(assertions, deadline_s=deadline_s)
            model = session.model() if result is smt.Result.SAT else None
            stats = session.stats
        if answer is None and answers is not None and result is not smt.Result.UNKNOWN:
            answers[query] = (result, model)
        if model is not None and not all(model.eval_bool(a) for a in assertions):
            raise InternalError(
                f"{self}: the solver's model does not satisfy the check's own query"
            )
        return result, stats, model

    def _run_filter(
        self,
        config: NetworkConfig,
        universe: AttributeUniverse,
        ghosts: tuple[GhostAttribute, ...],
        transfer,
        conflict_budget: int | None,
        session: "smt.CheckSession | None",
        deadline_abs: float | None,
    ) -> "CheckOutcome":
        assert self.edge is not None
        route_in = SymbolicRoute.fresh("r", universe)
        accepted, route_out = transfer(config, self.edge, route_in, ghosts)

        assertions = [route_in.well_formed(), predicate_term(self.assumption, route_in)]
        if self.kind in (CheckKind.PROPAGATE_IMPORT, CheckKind.PROPAGATE_EXPORT):
            # Propagation checks must prove acceptance: refute
            #   assumption(r) and (rejected or not goal(r')).
            assertions.append(
                smt.or_(smt.not_(accepted), smt.not_(predicate_term(self.goal, route_out)))
            )
        else:
            # Safety checks only constrain accepted routes: refute
            #   assumption(r) and accepted and not goal(r').
            assertions.append(accepted)
            assertions.append(smt.not_(predicate_term(self.goal, route_out)))
        result, stats, model = self._discharge(
            assertions, universe, conflict_budget, session, deadline_abs
        )

        if result is smt.Result.UNSAT:
            return CheckOutcome(check=self, passed=True, stats=stats)
        if result is smt.Result.UNKNOWN:
            return CheckOutcome(
                check=self,
                passed=False,
                stats=stats,
                unknown=True,
                unknown_reason=stats.unknown_reason,
            )
        assert model is not None
        input_route = route_in.evaluate(model)
        rejected = not model.eval_bool(accepted)
        output_route = None if rejected else route_out.evaluate(model)
        failure = CheckFailure(
            check=self,
            input_route=input_route,
            output_route=output_route,
            rejected=rejected,
        )
        return CheckOutcome(check=self, passed=False, stats=stats, failure=failure)

    def _run_originate(
        self,
        config: NetworkConfig,
        universe: AttributeUniverse,
        ghosts: tuple[GhostAttribute, ...],
        conflict_budget: int | None,
        session: "smt.CheckSession | None",
        deadline_abs: float | None,
    ) -> "CheckOutcome":
        assert self.edge is not None
        combined = SolverStats()
        for sym in symbolic_originated(config, self.edge, universe, ghosts):
            result, stats, model = self._discharge(
                [smt.not_(predicate_term(self.goal, sym))],
                universe,
                conflict_budget,
                session,
                deadline_abs,
            )
            combined = _merge_stats(combined, stats)
            if result is smt.Result.UNKNOWN:
                return CheckOutcome(
                    check=self,
                    passed=False,
                    stats=combined,
                    unknown=True,
                    unknown_reason=stats.unknown_reason,
                )
            if result is smt.Result.SAT:
                assert model is not None
                failure = CheckFailure(
                    check=self,
                    input_route=sym.evaluate(model),
                    output_route=None,
                    rejected=False,
                )
                return CheckOutcome(
                    check=self, passed=False, stats=combined, failure=failure
                )
        return CheckOutcome(check=self, passed=True, stats=combined)

    def _run_implication(
        self,
        universe: AttributeUniverse,
        conflict_budget: int | None,
        session: "smt.CheckSession | None",
        deadline_abs: float | None,
    ) -> "CheckOutcome":
        route = SymbolicRoute.fresh("r", universe)
        assertions = [
            route.well_formed(),
            predicate_term(self.assumption, route),
            smt.not_(predicate_term(self.goal, route)),
        ]
        result, stats, model = self._discharge(
            assertions, universe, conflict_budget, session, deadline_abs
        )
        if result is smt.Result.UNSAT:
            return CheckOutcome(check=self, passed=True, stats=stats)
        if result is smt.Result.UNKNOWN:
            return CheckOutcome(
                check=self,
                passed=False,
                stats=stats,
                unknown=True,
                unknown_reason=stats.unknown_reason,
            )
        assert model is not None
        failure = CheckFailure(
            check=self,
            input_route=route.evaluate(model),
            output_route=None,
            rejected=False,
        )
        return CheckOutcome(check=self, passed=False, stats=stats, failure=failure)

    def __str__(self) -> str:
        return self.description


class CheckOutcome(Record):
    """The result of running one local check (built once per check run,
    so with its own positional ``__init__``)."""

    check: LocalCheck
    passed: bool
    stats: SolverStats
    failure: CheckFailure | None
    unknown: bool
    # Why the check is UNKNOWN: "conflicts" (conflict budget), "timeout"
    # (per-check deadline), or "wall-budget" (the run's wall budget ran
    # out before this check started).  None when the check was decided.
    unknown_reason: str | None
    # A check of several members that did not pass: each member's own
    # outcome, in member order; ``stats`` is their fold.
    members: "list[CheckOutcome] | None"

    def __init__(
        self,
        check: LocalCheck,
        passed: bool,
        stats: SolverStats,
        failure: CheckFailure | None = None,
        unknown: bool = False,
        unknown_reason: str | None = None,
        members: "list[CheckOutcome] | None" = None,
    ) -> None:
        self.check = check
        self.passed = passed
        self.stats = stats
        self.failure = failure
        self.unknown = unknown
        self.unknown_reason = unknown_reason
        self.members = members

    def expanded(self) -> "list[CheckOutcome]":
        """One outcome per edge check: each member's own, or for a passed
        check its stats on the first member and memo hits on the rest."""
        if self.members is not None or self.check.members is None:
            return self.members or [self]
        return [
            CheckOutcome(member, True, MEMO_HIT_STATS if i else self.stats)
            for i, member in enumerate(self.check.expand())
        ]


def unit_outcome(check: LocalCheck, rows: "list[CheckOutcome]") -> CheckOutcome:
    """The outcome of ``check`` from its members' own, ``rows``: a pass
    if every row passed (members past them were memo hits), else one that
    keeps every row."""
    if all(row.passed for row in rows):
        return CheckOutcome(check, True, rows[0].stats if rows else MEMO_HIT_STATS)
    if check.members is None:
        return rows[0]
    return CheckOutcome(
        check, False, reduce(_merge_stats, (row.stats for row in rows)), members=rows
    )


def skipped_outcome(check: LocalCheck, reason: str) -> CheckOutcome:
    """An UNKNOWN outcome for a check that was never run, member by member.

    Used when the run's wall budget expires with checks still queued: the
    run completes with partial results, and each unexecuted check is
    accounted for explicitly instead of silently missing from the report.
    """
    return unit_outcome(
        check,
        [
            CheckOutcome(member, False, SolverStats(), unknown=True, unknown_reason=reason)
            for member in check.expand()
        ],
    )


def check_owner(check: LocalCheck) -> str | None:
    """The router whose configuration the check's transfer function reads.

    This is the unit of both incremental re-verification (a config edit to
    router ``R`` invalidates exactly the checks owned by ``R``) and
    parallel execution (the paper's deployment runs one process per device;
    chunking by owner keeps each worker's shared encoding hot).
    ``None`` marks checks that read only the invariants (implications).
    """
    if check.edge is None:
        return None
    if check.kind in IMPORT_KINDS:
        return check.edge.dst
    return check.edge.src


def group_checks_by_owner(
    checks: "Iterable[LocalCheck]",
) -> "dict[str | None, list[LocalCheck]]":
    """Group checks by owner router, preserving first-seen group order.

    This is the owner index both reuse mechanisms are built on: the
    incremental verifier re-runs exactly one group per edited router, and
    the process map hands each group to one worker as a chunk so that its
    per-owner session encoding stays hot.
    """
    groups: dict[str | None, list[LocalCheck]] = {}
    for check in checks:
        groups.setdefault(check_owner(check), []).append(check)
    return groups


def prepare_session(
    session: "smt.CheckSession", universe: AttributeUniverse
) -> None:
    """Pre-assert the symbolic route's well-formedness into ``session``.

    Every filter and implication check over ``universe`` includes that
    constraint among its assertions, so asserting it once into the
    session's clause DB is sound, and each check then skips it as an
    assumption (originate checks use constant, variable-disjoint routes
    and are unaffected).  Idempotent: :meth:`repro.smt.CheckSession.prepare`
    ignores conjuncts it has already asserted, which is what lets
    :meth:`LocalCheck._discharge` call this ahead of every solve — a
    session none of whose checks miss the query memo is never prepared.
    """
    session.prepare(shared=(SymbolicRoute.fresh("r", universe).well_formed(),))


def _merge_stats(a: SolverStats, b: SolverStats) -> SolverStats:
    """Stats of a multi-query check so far: ``a`` accumulated, ``b`` the latest."""
    return SolverStats(
        num_vars=max(a.num_vars, b.num_vars),
        num_clauses=max(a.num_clauses, b.num_clauses),
        build_time_s=a.build_time_s + b.build_time_s,
        solve_time_s=a.solve_time_s + b.solve_time_s,
        sat=SatStats(
            decisions=a.sat.decisions + b.sat.decisions,
            propagations=a.sat.propagations + b.sat.propagations,
            conflicts=a.sat.conflicts + b.sat.conflicts,
            restarts=a.sat.restarts + b.sat.restarts,
            learned=a.sat.learned + b.sat.learned,
            max_learnt_len=max(a.sat.max_learnt_len, b.sat.max_learnt_len),
        ),
        unknown_reason=b.unknown_reason,
    )


# ---------------------------------------------------------------------------
# Check generation (§4.2)
# ---------------------------------------------------------------------------


def implication_check(
    location: Location, assumption: Predicate, goal: Predicate, claim: str
) -> LocalCheck:
    """The owner-less closing check of a proof: ``assumption ⊆ goal``."""
    return LocalCheck(
        CheckKind.IMPLICATION, None, assumption, goal,
        f"implication check at {location}: {claim}", None, location,
    )


def generate_safety_checks(
    config: NetworkConfig,
    invariants,
    property_location: Location,
    property_predicate: Predicate,
    ghosts: "Sequence[GhostAttribute]",
    owners: "set[str] | None" = None,
) -> list[LocalCheck]:
    """The Import/Export/Originate checks for every edge, plus ``I_l ⊆ P``:
    one Import or Export check per owner router and class key under
    ``ghosts``, in the order of its first member edge.

    With ``owners``, only checks owned by those routers are generated (and
    the owner-less implication check is skipped) — the incremental verifier
    uses this to refresh just the edited routers' checks instead of
    rebuilding the whole list.
    """
    topo = config.topology
    routers = topo.routers
    if owners is None:
        edges: Iterable[Edge] = topo.sorted_edges()
        owning = routers
    else:
        edges = sorted(
            {e for owner in owners for e in (*topo.edges_from(owner), *topo.edges_to(owner))}
        )
        owning = routers & owners
    # Per call, not per edge: each owning router's invariant, configuration
    # and neighbors (a router without a configuration has none, as
    # neighbor_config says).
    node_invariant = {router: invariants.get(router) for router in owning}
    router_config = {router: config.routers.get(router) for router in owning}
    no_neighbors: dict[str, NeighborConfig] = {}
    neighbors = {
        router: no_neighbors if c is None else c.neighbors for router, c in router_config.items()
    }
    checks: list[LocalCheck] = []
    append = checks.append
    units: dict[tuple, LocalCheck] = {}  # the policy's direction stands for the kind

    def join(
        kind: CheckKind, direction: str, edge: Edge, owner: str,
        neighbor: NeighborConfig | None, assumption: Predicate, goal: Predicate,
    ) -> None:
        policy = edge_policy(config, edge, router_config[owner], neighbor, ghosts, direction)
        unit = units.get((owner, assumption, goal, policy))
        if unit is None:
            route_map = policy[1]
            units[owner, assumption, goal, policy] = unit = LocalCheck(
                kind, edge, assumption, goal, None,
                None if route_map is None else route_map.name, None, [],
                (kind, assumption, goal, policy),
            )
            append(unit)
        unit.members.append(edge)  # type: ignore[union-attr]

    for edge in edges:
        src, dst = edge
        edge_invariant = invariants.get(edge)
        if dst in owning:
            neighbor = neighbors[dst].get(src)
            join(CheckKind.IMPORT, "import", edge, dst, neighbor, edge_invariant, node_invariant[dst])
        if src in owning:
            neighbor = neighbors[src].get(dst)
            join(CheckKind.EXPORT, "export", edge, src, neighbor, node_invariant[src], edge_invariant)
            if neighbor is not None and neighbor.originated:
                # The assumption is unused: an originate check has no input route.
                append(LocalCheck(CheckKind.ORIGINATE, edge, edge_invariant, edge_invariant))
    if owners is None:
        checks.append(
            implication_check(
                property_location,
                invariants.get(property_location),
                property_predicate,
                f"I[{property_location}] implies the property",
            )
        )
    return checks
