"""Public solver facade: assertions in, SAT/UNSAT plus models out.

Two entry points share the same bit-blast → Tseitin → CDCL pipeline:

* :class:`Solver` is the one-shot interface — collect assertions, build a
  fresh encoding, decide it.  Simple and hermetic; used by the monolithic
  Minesweeper baseline and anywhere a single query is discharged.
* :class:`CheckSession` is the reusable interface Lightyear's local checks
  go through.  A session keeps one SAT solver, one bit-blaster, and one
  Tseitin encoder alive across many checks: the hash-consed term DAG means
  structurally shared fragments (the symbolic route, the well-formedness
  constraint, repeated transfer functions) are lowered and clause-encoded
  exactly once, and each individual check is discharged with
  ``solve(assumptions=...)`` against the accumulated clause database.
  Soundness: the session never *asserts* a check's constraints — they enter
  as assumption literals scoped to one solve — and every clause in the
  database is a definitional Tseitin equivalence, so learnt clauses carry
  over between checks without affecting any later answer.

``Model`` evaluates *original* terms (including bit-vectors) against the
SAT assignment so callers never see the bit-level encoding.  ``prove``
wraps the refutation idiom used throughout Lightyear: a check ``A => B``
passes iff ``A and not B`` is unsatisfiable.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field, replace
from typing import Iterable, KeysView, Sequence

from repro.smt import terms as T
from repro.smt.bitblast import Bitblaster
from repro.smt.dimacs import cnf_digest
from repro.smt.sat import SatSolver, SatStats, _to_lit
from repro.smt.terms import Term
from repro.smt.tseitin import Tseitin


class Result(enum.Enum):
    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"


# ---------------------------------------------------------------------------
# Global solver warm-start toggle
# ---------------------------------------------------------------------------

_solver_reuse_enabled = True


def set_solver_reuse_enabled(enabled: bool) -> None:
    """Globally enable/disable solver warm-start: shared-fragment
    pre-assertion, shared-only learnt retention, and learnt-clause
    transplant between sessions/processes/invocations.

    Sessions snapshot the flag at construction, so flip it *before*
    building pools.  The reuse-on/off differential suite and the CLI's
    ``--no-solver-reuse`` escape hatch go through here.
    """
    global _solver_reuse_enabled
    _solver_reuse_enabled = bool(enabled)


def solver_reuse_enabled() -> bool:
    """Whether new sessions will use solver warm-start."""
    return _solver_reuse_enabled


@dataclass
class SolverStats:
    """Size and timing data for one ``check()`` call.

    For a :class:`CheckSession` these are *marginal* figures: the variables
    and clauses a check added on top of the session's shared encoding, and
    the search effort of its own solve call.  That keeps the paper's
    per-check-size claim (Fig. 3b) measurable under encoding reuse.
    """

    num_vars: int = 0
    num_clauses: int = 0
    build_time_s: float = 0.0
    solve_time_s: float = 0.0
    sat: SatStats = field(default_factory=SatStats)
    # Why the answer was UNKNOWN: "conflicts" (budget) or "timeout"
    # (wall-clock deadline).  None for decided answers.
    unknown_reason: str | None = None
    # Warm-start observability: conjuncts this check skipped because the
    # session pre-asserted them into the clause DB, and learnt clauses
    # already present when this check's solve started.
    shared_skipped: int = 0
    learnts_reused: int = 0

    @property
    def total_time_s(self) -> float:
        return self.build_time_s + self.solve_time_s


class Model:
    """A satisfying assignment, queried at the term level."""

    def __init__(
        self, bool_values: dict[Term, bool], bv_values: dict[Term, int]
    ) -> None:
        self._bools = bool_values
        self._bvs = bv_values
        self._memo: dict[Term, bool | int] = {}

    def eval_bool(self, term: Term) -> bool:
        value = self._eval(term)
        if not isinstance(value, bool):
            raise TypeError(f"{term!r} is not boolean-sorted")
        return value

    def eval_bv(self, term: Term) -> int:
        value = self._eval(term)
        if not isinstance(value, int) or isinstance(value, bool):
            raise TypeError(f"{term!r} is not bit-vector-sorted")
        return value

    def _eval(self, term: Term) -> bool | int:
        """Evaluate a term, memoised over the DAG.

        Recursion is the fast path; if the DAG is deep enough to exhaust
        the interpreter stack (counterexamples from very large policies),
        evaluation restarts on an explicit worklist, reusing whatever the
        recursive attempt already memoised.
        """
        memo = self._memo
        if term in memo:
            return memo[term]
        try:
            return self._eval_rec(term)
        except RecursionError:
            self._eval_iter(term)
            return memo[term]

    def _eval_iter(self, term: Term) -> None:
        memo = self._memo
        stack = [term]
        while stack:
            t = stack[-1]
            if t in memo:
                stack.pop()
                continue
            missing = [k for k in t.children() if k not in memo]
            if missing:
                stack.extend(missing)
                continue
            memo[t] = self._eval_node(t)
            stack.pop()

    def _eval_node(self, term: Term) -> bool | int:
        """Evaluate one node whose children are already in the memo."""
        memo = self._memo
        if isinstance(term, T.BoolConst):
            return term.value
        if isinstance(term, T.BoolVar):
            return self._bools.get(term, False)
        if isinstance(term, T.Not):
            return not memo[term.arg]
        if isinstance(term, T.And):
            return all(memo[a] for a in term.args)
        if isinstance(term, T.Or):
            return any(memo[a] for a in term.args)
        if isinstance(term, T.Ite):
            return memo[term.then] if memo[term.cond] else memo[term.els]
        if isinstance(term, T.BvVar):
            return self._bvs.get(term, 0)
        if isinstance(term, T.BvConst):
            return term.value
        if isinstance(term, T.BvEq):
            return memo[term.lhs] == memo[term.rhs]
        if isinstance(term, T.BvUlt):
            return memo[term.lhs] < memo[term.rhs]
        if isinstance(term, T.BvUle):
            return memo[term.lhs] <= memo[term.rhs]
        if isinstance(term, T.BvAnd):
            return memo[term.lhs] & memo[term.rhs]
        if isinstance(term, T.BvOr):
            return memo[term.lhs] | memo[term.rhs]
        if isinstance(term, T.BvXor):
            return memo[term.lhs] ^ memo[term.rhs]
        if isinstance(term, T.BvNot):
            mask = (1 << term.width) - 1
            return ~memo[term.arg] & mask
        if isinstance(term, T.BvAdd):
            mask = (1 << term.width) - 1
            return (memo[term.lhs] + memo[term.rhs]) & mask
        if isinstance(term, T.BvIte):
            return memo[term.then] if memo[term.cond] else memo[term.els]
        raise TypeError(f"cannot evaluate {term!r}")

    def _eval_rec(self, term: Term) -> bool | int:
        memo = self._memo
        if term in memo:
            return memo[term]
        value = self._eval_rec_uncached(term)
        memo[term] = value
        return value

    def _eval_rec_uncached(self, term: Term) -> bool | int:
        if isinstance(term, T.BoolConst):
            return term.value
        if isinstance(term, T.BoolVar):
            return self._bools.get(term, False)
        if isinstance(term, T.Not):
            return not self._eval_rec(term.arg)
        if isinstance(term, T.And):
            return all(self._eval_rec(a) for a in term.args)
        if isinstance(term, T.Or):
            return any(self._eval_rec(a) for a in term.args)
        if isinstance(term, T.Ite):
            return (
                self._eval_rec(term.then)
                if self._eval_rec(term.cond)
                else self._eval_rec(term.els)
            )
        if isinstance(term, T.BvVar):
            return self._bvs.get(term, 0)
        if isinstance(term, T.BvConst):
            return term.value
        if isinstance(term, T.BvEq):
            return self._eval_rec(term.lhs) == self._eval_rec(term.rhs)
        if isinstance(term, T.BvUlt):
            return self._eval_rec(term.lhs) < self._eval_rec(term.rhs)
        if isinstance(term, T.BvUle):
            return self._eval_rec(term.lhs) <= self._eval_rec(term.rhs)
        if isinstance(term, T.BvAnd):
            return self._eval_rec(term.lhs) & self._eval_rec(term.rhs)
        if isinstance(term, T.BvOr):
            return self._eval_rec(term.lhs) | self._eval_rec(term.rhs)
        if isinstance(term, T.BvXor):
            return self._eval_rec(term.lhs) ^ self._eval_rec(term.rhs)
        if isinstance(term, T.BvNot):
            mask = (1 << term.width) - 1
            return ~self._eval_rec(term.arg) & mask
        if isinstance(term, T.BvAdd):
            mask = (1 << term.width) - 1
            return (self._eval_rec(term.lhs) + self._eval_rec(term.rhs)) & mask
        if isinstance(term, T.BvIte):
            return (
                self._eval_rec(term.then)
                if self._eval_rec(term.cond)
                else self._eval_rec(term.els)
            )
        raise TypeError(f"cannot evaluate {term!r}")


def _extract_model(sat: SatSolver, tseitin: Tseitin, blaster: Bitblaster) -> Model:
    """Read a term-level model out of the SAT assignment."""
    assignment = sat.model()
    bool_values: dict[Term, bool] = {}
    for term, lit in tseitin._lit_memo.items():
        if isinstance(term, T.BoolVar):
            bool_values[term] = assignment.get(abs(lit), False) == (lit > 0)
    bv_values: dict[Term, int] = {}
    for bv, bits in blaster.bv_bits.items():
        value = 0
        for i, bit in enumerate(bits):
            lit = tseitin._lit_memo.get(bit)
            if lit is None:
                continue
            if assignment.get(abs(lit), False) == (lit > 0):
                value |= 1 << i
        bv_values[bv] = value
    return Model(bool_values, bv_values)


def _conjuncts(term: Term) -> Iterable[Term]:
    """Split (possibly nested) top-level conjunctions, iteratively."""
    if not isinstance(term, T.And):
        yield term
        return
    stack: list[Term] = [term]
    while stack:
        t = stack.pop()
        if isinstance(t, T.And):
            stack.extend(t.args)
        else:
            yield t


class Solver:
    """Collects assertions and decides their conjunction.

    A fresh encoding is built per ``check()`` call, which keeps one-shot
    queries hermetic.  Lightyear's own local checks go through
    :class:`CheckSession` instead, which shares the encoding across checks.
    """

    def __init__(self) -> None:
        self._assertions: list[Term] = []
        self._model: Model | None = None
        self.stats = SolverStats()

    def add(self, term: Term) -> None:
        """Assert a boolean term."""
        if not term.is_bool:
            raise TypeError(f"assertions must be boolean, got {term!r}")
        self._assertions.append(term)

    @property
    def assertions(self) -> tuple[Term, ...]:
        return tuple(self._assertions)

    def _build(self) -> tuple[SatSolver, Bitblaster, Tseitin]:
        build_start = time.perf_counter()
        sat = SatSolver()
        blaster = Bitblaster()
        tseitin = Tseitin(sat)
        lowered = [blaster.blast_bool(a) for a in self._assertions]
        for term in lowered:
            tseitin.assert_true(term)
        build_end = time.perf_counter()
        self.stats = SolverStats(
            num_vars=sat.num_vars,
            num_clauses=sat.num_clauses_added,
            build_time_s=build_end - build_start,
        )
        return sat, blaster, tseitin

    def encode_only(self) -> SolverStats:
        """Build the CNF encoding without running SAT search.

        Used by the scaling experiments to measure encoding sizes at
        network sizes where actually solving would exceed the time budget.
        """
        self._model = None
        self._build()
        return self.stats

    def check(
        self,
        conflict_budget: int | None = None,
        deadline_s: float | None = None,
    ) -> Result:
        """Decide the conjunction of all added assertions.

        ``deadline_s`` is a wall-clock budget in seconds for the SAT
        search; on expiry the answer is UNKNOWN with
        ``stats.unknown_reason == "timeout"``.
        """
        self._model = None
        self.stats.unknown_reason = None
        sat, blaster, tseitin = self._build()
        deadline = None if deadline_s is None else time.monotonic() + deadline_s
        solve_start = time.perf_counter()
        answer = sat.solve(conflict_budget=conflict_budget, deadline=deadline)
        self.stats.solve_time_s = time.perf_counter() - solve_start
        self.stats.sat = sat.stats

        if answer is None:
            self.stats.unknown_reason = sat.stop_reason
            return Result.UNKNOWN
        if not answer:
            return Result.UNSAT
        self._model = _extract_model(sat, tseitin, blaster)
        return Result.SAT

    def model(self) -> Model:
        if self._model is None:
            raise RuntimeError("model() is only available after a SAT check()")
        return self._model


class CheckSession:
    """A reusable encoding context for discharging many related checks.

    Where :class:`Solver` rebuilds the term → Tseitin → CDCL pipeline per
    query, a session keeps all three layers alive.  Each ``check(...)``
    call lowers its assertions through the *shared* bit-blaster and Tseitin
    encoder — hash-consed subterms that earlier checks already encoded cost
    a dictionary hit, not fresh clauses — and then runs CDCL with the
    top-level conjunct literals as assumptions.

    The intended granularity is one session per owner router: all checks
    reading one router's transfer functions share most of their encoding
    (the symbolic input route, well-formedness, invariant predicates, and
    frequently the transfer terms themselves).

    ``stats`` after each ``check`` holds the marginal encoding size and the
    solve effort of that check alone, mirroring ``Solver.stats``.
    """

    #: Export policy caps: ship only short, high-value learnt clauses and
    #: bound the payload so seeds stay cheap to pickle and inject.
    MAX_EXPORT_CLAUSES = 2048
    MAX_EXPORT_CLAUSE_LEN = 24

    def __init__(self) -> None:
        self._sat = SatSolver()
        self._blaster = Bitblaster()
        self._tseitin = Tseitin(self._sat)
        self._model: Model | None = None
        self.stats = SolverStats()
        self.checks_discharged = 0
        # Warm-start state.  ``reuse_enabled`` snapshots the global toggle
        # at construction; shared-only learnt retention in the SAT core is
        # slaved to it so reuse-off restores the pre-warm-start behaviour
        # (keep everything, export nothing).
        self.reuse_enabled = _solver_reuse_enabled
        self._sat.retain_shared_only = self.reuse_enabled
        # Lowered conjuncts asserted into the clause DB by prepare();
        # check() skips these instead of shipping them as assumptions.
        self._asserted: set[Term] = set()
        # Terms already Tseitin-primed (encoded, not asserted).
        self._primed: set[Term] = set()
        # Preamble boundary: var count / clause count / level-0 trail
        # length at the end of the last prepare().  Scopes which learnt
        # clauses are exportable and guards imports against divergent
        # databases.  The digest over that prefix is computed lazily
        # (first access after a boundary change): a run that never
        # exports or imports pays nothing for it.
        self._prepared = False
        self._preamble_vars = 0
        self._preamble_clause_len = 0
        self._preamble_trail_len = 0
        self._preamble_digest: str | None = None
        # Reuse counters, cumulative over the session's lifetime.
        self.shared_skips = 0
        self.learnts_imported = 0
        self.learnts_exported = 0
        self.import_digest_mismatches = 0

    def prepare(
        self,
        shared: Sequence[Term] = (),
        prime: Sequence[Term] = (),
    ) -> None:
        """Install the owner preamble for warm-starting.

        ``shared`` fragments are *asserted* into the clause DB once — their
        conjuncts then skip the per-check assumption list.  Sound only when
        every future check in this session includes each shared term among
        its assertions (the owner route's well-formedness constraint
        qualifies; check-specific goals do not).  ``prime`` terms are
        Tseitin-encoded without being asserted — definitional clauses are a
        conservative extension, so anything may be primed to enlarge the
        exportable region.

        Idempotent per term.  Growing the preamble later (another
        property's fragments) refreshes the boundary and digest; a pending
        seed whose digest did not match earlier can then be retried
        (:meth:`SessionPool.try_seed`).  No-op when the session was built
        with solver reuse disabled.
        """
        if not self.reuse_enabled:
            return
        sat = self._sat
        # Assertions and their unit propagation must land at level 0.
        sat.reset_trail()
        changed = False
        for term in shared:
            if not term.is_bool:
                raise TypeError(f"shared fragments must be boolean, got {term!r}")
            lowered = self._blaster.blast_bool(term)
            for conjunct in _conjuncts(lowered):
                if conjunct is T.TRUE or conjunct in self._asserted:
                    continue
                if conjunct is T.FALSE:
                    raise ValueError("shared preamble fragment is unsatisfiable")
                self._tseitin.assert_true(conjunct)
                self._asserted.add(conjunct)
                changed = True
        for term in prime:
            if not term.is_bool or term in self._primed:
                continue
            self._primed.add(term)
            lowered = self._blaster.blast_bool(term)
            for conjunct in _conjuncts(lowered):
                if conjunct is T.TRUE or conjunct is T.FALSE:
                    continue
                self._tseitin.literal(conjunct)
            changed = True
        if changed or not self._prepared:
            self._prepared = True
            self._preamble_vars = sat.num_vars
            # Learnt clauses confined to the preamble region are retained
            # across checks and exportable; anything mentioning later
            # (check-local) variables is dropped at the next solve.
            sat.shared_var_bound = sat.num_vars
            self._preamble_clause_len = len(sat._clauses)
            self._preamble_trail_len = len(sat._trail)
            self._preamble_digest = None  # recomputed on demand

    @property
    def preamble_digest(self) -> str | None:
        """Fingerprint of the clause DB at the last :meth:`prepare`.

        Computed lazily over the preamble *prefix* of the (append-only)
        clause DB and level-0 trail; propagation may reorder literals
        within a clause afterwards, but :func:`cnf_digest` normalises
        clause and literal order, so the lazy value equals what an eager
        snapshot at prepare time would have produced.
        """
        if not self._prepared:
            return None
        if self._preamble_digest is None:
            sat = self._sat
            self._preamble_digest = cnf_digest(
                self._preamble_vars,
                sat._clauses[: self._preamble_clause_len],
                sat._trail[: self._preamble_trail_len],
            )
        return self._preamble_digest

    def export_learnts(self) -> tuple[str, list[list[int]]] | None:
        """Kept learnt clauses and post-preamble root units, for transplant.

        Clauses are signed DIMACS literals, paired with the preamble digest
        that scopes their validity.  Only clauses confined to the digested
        variable region export: the clause DB beyond the preamble consists
        of definitional extensions over fresh variables, so a learnt clause
        over preamble variables alone is a consequence of the digested CNF
        by conservativity.  Returns ``None`` when there is nothing to ship.
        """
        if not self.reuse_enabled or not self._prepared:
            return None
        sat = self._sat
        # Drop assumption-tainted clauses first; what remains is shared.
        sat.retain_shared_learnts()
        bound = self._preamble_vars
        payload: list[list[int]] = []
        for code in sat._trail[self._preamble_trail_len :]:
            if (code >> 1) <= bound:
                payload.append([_to_lit(code)])
        keep = [
            c
            for c in sat._learnts
            if len(c) <= self.MAX_EXPORT_CLAUSE_LEN
            and all((q >> 1) <= bound for q in c)
        ]
        keep.sort(key=len)
        for c in keep[: self.MAX_EXPORT_CLAUSES]:
            payload.append([_to_lit(q) for q in c])
        if not payload:
            return None
        self.learnts_exported += len(payload)
        return (self.preamble_digest, payload)

    def import_learnts(self, digest: str, clauses: list[list[int]]) -> int | None:
        """Install an export from an identically prepared session.

        The digest guards soundness: a mismatch means the clause databases
        differ (different invariants, property mix, or encoding order) and
        the payload is refused — ``None`` is returned so callers can retry
        once the preambles converge.  On a match, returns the number of
        clauses actually installed.
        """
        if not self.reuse_enabled:
            return None
        if digest != self.preamble_digest:
            self.import_digest_mismatches += 1
            return None
        installed = self._sat.inject_learnts(clauses)
        self.learnts_imported += installed
        return installed

    def check(
        self,
        assertions: Sequence[Term],
        conflict_budget: int | None = None,
        deadline_s: float | None = None,
    ) -> Result:
        """Decide the conjunction of ``assertions`` under encoding reuse.

        ``deadline_s`` bounds this check's SAT search in wall-clock
        seconds; expiry yields UNKNOWN with ``stats.unknown_reason ==
        "timeout"``.  The session stays usable afterwards.
        """
        self._model = None
        sat = self._sat
        # Encoding must happen at decision level 0; a previous SAT answer
        # leaves the trail fully assigned.
        sat.reset_trail()
        build_start = time.perf_counter()
        vars_before = sat.num_vars
        clauses_before = sat.num_clauses_added
        assumptions: list[int] = []
        infeasible = False
        asserted = self._asserted
        shared_skipped = 0
        for assertion in assertions:
            if not assertion.is_bool:
                raise TypeError(f"assertions must be boolean, got {assertion!r}")
            lowered = self._blaster.blast_bool(assertion)
            for conjunct in _conjuncts(lowered):
                if conjunct is T.TRUE:
                    continue
                if conjunct is T.FALSE:
                    infeasible = True
                    continue
                if conjunct in asserted:
                    # Pre-asserted by prepare(): already a clause in the
                    # DB, no assumption literal needed.
                    shared_skipped += 1
                    continue
                assumptions.append(self._tseitin.literal(conjunct))
        build_time = time.perf_counter() - build_start
        if not sat.ok:
            # The clause database is purely definitional; it can only go
            # unsat through API misuse.  Fail loudly rather than letting
            # every subsequent check "pass" vacuously.
            raise RuntimeError("CheckSession clause database became unsat")
        self.stats = SolverStats(
            num_vars=sat.num_vars - vars_before,
            num_clauses=sat.num_clauses_added - clauses_before,
            build_time_s=build_time,
            shared_skipped=shared_skipped,
            learnts_reused=len(sat._learnts),
        )
        self.shared_skips += shared_skipped
        self.checks_discharged += 1
        if infeasible:
            return Result.UNSAT
        sat_before = replace(sat.stats)
        deadline = None if deadline_s is None else time.monotonic() + deadline_s
        solve_start = time.perf_counter()
        answer = sat.solve(
            assumptions=assumptions,
            conflict_budget=conflict_budget,
            deadline=deadline,
        )
        self.stats.solve_time_s = time.perf_counter() - solve_start
        self.stats.sat = SatStats(
            decisions=sat.stats.decisions - sat_before.decisions,
            propagations=sat.stats.propagations - sat_before.propagations,
            conflicts=sat.stats.conflicts - sat_before.conflicts,
            restarts=sat.stats.restarts - sat_before.restarts,
            learned=sat.stats.learned - sat_before.learned,
            max_learnt_len=sat.stats.max_learnt_len,
            learned_dropped=sat.stats.learned_dropped - sat_before.learned_dropped,
            learned_imported=sat.stats.learned_imported
            - sat_before.learned_imported,
        )
        if answer is None:
            self.stats.unknown_reason = sat.stop_reason
            return Result.UNKNOWN
        if not answer:
            return Result.UNSAT
        self._model = _extract_model(sat, self._tseitin, self._blaster)
        return Result.SAT

    def model(self) -> Model:
        if self._model is None:
            raise RuntimeError("model() is only available after a SAT check()")
        return self._model

    @property
    def total_vars(self) -> int:
        """SAT variables in the session's accumulated encoding."""
        return self._sat.num_vars

    @property
    def total_clauses(self) -> int:
        """Clauses ever added to the session's shared database."""
        return self._sat.num_clauses_added


class SessionPool:
    """A keyed pool of long-lived :class:`CheckSession` instances.

    The intended key is the owner router of a check group
    (:func:`repro.core.checks.check_owner`; ``None`` for invariant-only
    checks).  Passing one pool across many ``run_checks`` calls makes the
    per-owner encodings persistent: a re-verification or a later property
    family re-uses the clauses an earlier call already built and pays only
    the marginal encoding of genuinely new terms.  Reuse is always sound —
    session databases are purely definitional and every check is discharged
    under assumptions — so a pool never needs invalidation for correctness;
    ``drop`` exists to bound memory when an owner's policy is gone for good.

    Pools live wherever reuse pays: a :class:`repro.core.workspace.
    Workspace` keeps one across ``reverify`` calls, the Table-4
    sweeps hoist one above their property-family loops, and
    ``verify_liveness`` shares one across propagation, implication, and
    every no-interference sub-proof.
    """

    def __init__(self) -> None:
        self._sessions: dict[object, CheckSession] = {}
        self.created = 0
        # Pending warm-start seeds: key -> (preamble digest, clauses).
        # A seed stays pending across digest mismatches (the preamble may
        # still be converging while more properties prepare) and is only
        # consumed on a successful import.
        self.seeds: dict[object, tuple[str, list[list[int]]]] = {}

    def seed(self, key: object, digest: str, clauses: list[list[int]]) -> None:
        """Stage a learnt-clause export for ``key``'s session.

        The import happens at the next :meth:`try_seed` for that key —
        i.e. the next time a check run prepares the session.
        """
        self.seeds[key] = (digest, clauses)

    def try_seed(self, key: object, session: CheckSession) -> int | None:
        """Attempt to import ``key``'s pending seed into ``session``.

        Returns the installed-clause count on success (seed consumed),
        ``None`` when there is no seed or the digest did not match yet
        (seed kept pending — always sound, counted on the session).
        """
        pending = self.seeds.get(key)
        if pending is None:
            return None
        imported = session.import_learnts(*pending)
        if imported is not None:
            del self.seeds[key]
        return imported

    def export_learnts(self) -> dict[object, tuple[str, list[list[int]]]]:
        """Per-key learnt exports from every session that has any."""
        exports: dict[object, tuple[str, list[list[int]]]] = {}
        for key, session in self._sessions.items():
            export = session.export_learnts()
            if export is not None:
                exports[key] = export
        return exports

    def stats(self) -> dict[str, int]:
        """Aggregated warm-start counters across the pool's sessions."""
        sessions = list(self._sessions.values())
        return {
            "sessions": len(sessions),
            "checks_discharged": self.checks_discharged,
            "shared_skips": sum(s.shared_skips for s in sessions),
            "learnts_imported": sum(s.learnts_imported for s in sessions),
            "learnts_exported": sum(s.learnts_exported for s in sessions),
            "import_digest_mismatches": sum(
                s.import_digest_mismatches for s in sessions
            ),
            "learnts_kept": sum(len(s._sat._learnts) for s in sessions),
            "pending_seeds": len(self.seeds),
        }

    def get(self, key: object) -> CheckSession:
        """The session for ``key``, created on first use."""
        session = self._sessions.get(key)
        if session is None:
            session = self._sessions[key] = CheckSession()
            self.created += 1
        return session

    def peek(self, key: object) -> CheckSession | None:
        return self._sessions.get(key)

    def drop(self, key: object) -> None:
        self._sessions.pop(key, None)

    def clear(self) -> None:
        self._sessions.clear()

    def keys(self) -> KeysView[object]:
        return self._sessions.keys()

    def __len__(self) -> int:
        return len(self._sessions)

    @property
    def checks_discharged(self) -> int:
        return sum(s.checks_discharged for s in self._sessions.values())

    def encoding_sizes(self) -> dict[object, tuple[int, int]]:
        """Per-key ``(total_vars, total_clauses)`` — the re-encoding witness.

        Tests diff two snapshots to prove which owners' encodings grew
        during an operation (e.g. only the edited router's on a reverify).
        """
        return {
            key: (s.total_vars, s.total_clauses)
            for key, s in self._sessions.items()
        }

    def total_encoding(self) -> tuple[int, int]:
        """Summed ``(vars, clauses)`` across all sessions — cheap growth probe.

        Diffing this before/after an operation answers "did anything get
        re-encoded?" without keying on individual owners; warm-pool
        benchmarks and tests use it to assert zero marginal encoding.
        """
        total_vars = sum(s.total_vars for s in self._sessions.values())
        total_clauses = sum(s.total_clauses for s in self._sessions.values())
        return (total_vars, total_clauses)


@dataclass
class Counterexample:
    """A failed ``prove`` call: the model witnesses the violated implication."""

    model: Model
    stats: SolverStats


def prove(
    goal: Term,
    assumptions: list[Term] | None = None,
    conflict_budget: int | None = None,
) -> tuple[Counterexample | None, SolverStats]:
    """Prove ``assumptions => goal`` by refutation.

    Returns ``(None, stats)`` when the implication is valid and
    ``(Counterexample, stats)`` when it is not.  Raises ``TimeoutError`` if
    the conflict budget runs out.
    """
    solver = Solver()
    for a in assumptions or []:
        solver.add(a)
    solver.add(T.not_(goal))
    result = solver.check(conflict_budget=conflict_budget)
    if result is Result.UNKNOWN:
        raise TimeoutError("conflict budget exhausted")
    if result is Result.UNSAT:
        return None, solver.stats
    return Counterexample(solver.model(), solver.stats), solver.stats
