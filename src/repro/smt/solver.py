"""Public solver facade: assertions in, SAT/UNSAT plus models out.

Two entry points share the same encode → CDCL pipeline
(:mod:`repro.smt.encode` maps a term to SAT literals in one pass):

* :class:`Solver` is the one-shot interface — collect assertions, build a
  fresh encoding, decide it.  Simple and hermetic; used by the monolithic
  Minesweeper baseline and anywhere a single query is discharged.
* :class:`CheckSession` is the reusable interface Lightyear's local checks
  go through.  A session keeps one SAT solver and one encoder alive
  across many checks: the hash-consed term DAG means structurally shared
  fragments (the symbolic route, the well-formedness constraint, repeated
  transfer functions) are clause-encoded exactly once, and each individual
  check is discharged with ``solve(assumptions=...)`` against the
  accumulated clause database.
  Soundness: the session never *asserts* a check's constraints — they enter
  as assumption literals scoped to one solve — and every clause in the
  database is a definitional gate equivalence or a fragment
  :meth:`CheckSession.prepare` asserted because every check of the session
  asserts it anyway, so learnt clauses carry over between checks without
  affecting any later answer.  They live and die with their session
  (bounded by the SAT core's database reduction): nothing solver-side is
  exported, persisted or shipped between processes.

A :class:`SessionPool` keys sessions by owner router and, above them, owns
the run's **query memo**: the tuple of interned assertions a check hands a
session *is* the query, so each distinct tuple is solved once per pool
(see the class docstring; :meth:`repro.core.checks.LocalCheck._discharge`
consults it before ``CheckSession.check``, the one-shot :class:`Solver`
never does).

``Model`` evaluates *original* terms (including bit-vectors) against the
SAT assignment so callers never see the bit-level encoding.  Lightyear
uses one refutation idiom throughout: a check ``A => B`` passes iff ``A
and not B`` is unsatisfiable.
"""

from __future__ import annotations

import enum
import time
from typing import KeysView, Sequence

from repro.record import Record
from repro.smt import terms as T
from repro.smt.encode import Encoder, conjuncts
from repro.smt.sat import SatSolver, SatStats
from repro.smt.terms import Term


class Result(enum.Enum):
    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"


class SolverStats(Record):
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
    sat: SatStats = SatStats()
    # Why the answer was UNKNOWN: "conflicts" (budget) or "timeout"
    # (wall-clock deadline).  None for decided answers.
    unknown_reason: str | None = None

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

        An explicit worklist, not recursion: counterexamples from very
        large policies produce DAGs deeper than the interpreter stack.
        """
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
        return memo[term]

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
        if isinstance(term, T.BvAdd):
            mask = (1 << term.width) - 1
            return (memo[term.lhs] + memo[term.rhs]) & mask
        if isinstance(term, T.BvIte):
            return memo[term.then] if memo[term.cond] else memo[term.els]
        raise TypeError(f"cannot evaluate {term!r}")


#: The query memo's shape: a query — the tuple of interned assertions handed
#: to :meth:`CheckSession.check` — to its decided answer and SAT model.
Answers = dict[tuple[Term, ...], tuple[Result, Model | None]]


def _extract_model(sat: SatSolver, encoder: Encoder) -> Model:
    """Read a term-level model out of the SAT assignment."""
    value = sat.value
    bool_values = {term: value(var) is True for term, var in encoder.bool_vars.items()}
    bv_values = {
        term: sum(1 << i for i, var in enumerate(bits) if value(var))
        for term, bits in encoder.bv_vars.items()
    }
    return Model(bool_values, bv_values)


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

    def _build(self) -> tuple[SatSolver, Encoder]:
        build_start = time.perf_counter()
        sat = SatSolver()
        encoder = Encoder(sat)
        for term in self._assertions:
            encoder.assert_true(term)
        build_end = time.perf_counter()
        self.stats = SolverStats(
            num_vars=sat.num_vars,
            num_clauses=sat.num_clauses_added,
            build_time_s=build_end - build_start,
        )
        return sat, encoder

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
        sat, encoder = self._build()
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
        self._model = _extract_model(sat, encoder)
        return Result.SAT

    def model(self) -> Model:
        if self._model is None:
            raise RuntimeError("model() is only available after a SAT check()")
        return self._model


class CheckSession:
    """A reusable encoding context for discharging many related checks.

    Where :class:`Solver` rebuilds the term → CNF → CDCL pipeline per
    query, a session keeps both layers alive.  Each ``check(...)`` call
    encodes its assertions through the *shared* encoder — hash-consed
    subterms that earlier checks already encoded cost a dictionary hit,
    not fresh clauses — and then runs CDCL with the top-level conjunct
    literals as assumptions.

    The intended granularity is one session per owner router: all checks
    reading one router's transfer functions share most of their encoding
    (the symbolic input route, well-formedness, invariant predicates, and
    frequently the transfer terms themselves).

    ``stats`` after each ``check`` holds the marginal encoding size and the
    solve effort of that check alone, mirroring ``Solver.stats``.
    """

    def __init__(self) -> None:
        self._sat = SatSolver()
        self._encoder = Encoder(self._sat)
        self._model: Model | None = None
        self.stats = SolverStats()
        self.checks_discharged = 0
        # Conjuncts asserted into the clause DB by prepare();
        # check() skips these instead of shipping them as assumptions.
        self._asserted: set[Term] = set()
        # Conjuncts skipped that way, cumulative over the session.
        self.shared_skips = 0
        # The owning pool's query memo (None for a session outside a pool)
        # and how many of this session's checks it answered.
        self.answers: Answers | None = None
        self.memo_hits = 0

    def prepare(self, shared: Sequence[Term] = ()) -> None:
        """Assert once what every later check in this session asserts.

        Each ``shared`` fragment's conjuncts go into the clause DB and
        then skip the per-check assumption list.  Sound only when every
        future check in this session includes each shared term among its
        assertions (the owner route's well-formedness constraint
        qualifies; check-specific goals do not).  Idempotent per conjunct;
        raises ``ValueError`` on a fragment that encodes to false, before
        it can poison the clause DB.
        """
        sat, encoder = self._sat, self._encoder
        # Assertions and their unit propagation must land at level 0.
        sat.reset_trail()
        for term in shared:
            for conjunct in conjuncts(term):
                if conjunct in self._asserted:
                    continue
                clause = encoder.clause(conjunct)
                if all(lit == -encoder.true for lit in clause):
                    raise ValueError("shared fragment is unsatisfiable")
                sat.add_clause(clause)
                self._asserted.add(conjunct)

    def check(self, assertions: Sequence[Term], deadline_s: float | None = None) -> Result:
        """Decide the conjunction of ``assertions`` under encoding reuse.

        ``deadline_s`` bounds this check's SAT search in wall-clock
        seconds; expiry yields UNKNOWN with ``stats.unknown_reason ==
        "timeout"``.  The session stays usable afterwards.  There is no
        conflict budget: how many conflicts a query takes here depends on
        what the session learnt before, so a budgeted query is solved on a
        fresh :class:`Solver` (:meth:`repro.core.checks.LocalCheck._discharge`).
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
        literal = self._encoder.literal
        true = self._encoder.true
        for assertion in assertions:
            for conjunct in conjuncts(assertion):
                if conjunct in asserted:
                    # Pre-asserted by prepare(): already a clause in the
                    # DB, no assumption literal needed.
                    self.shared_skips += 1
                    continue
                lit = literal(conjunct)
                if lit == -true:
                    infeasible = True
                elif lit != true:
                    assumptions.append(lit)
        build_time = time.perf_counter() - build_start
        if not sat.ok:
            # The clause database is definitional plus prepare()'s
            # satisfiable fragments; it can only go unsat through API
            # misuse.  Fail loudly rather than letting every subsequent
            # check "pass" vacuously.
            raise RuntimeError("CheckSession clause database became unsat")
        self.stats = SolverStats(
            num_vars=sat.num_vars - vars_before,
            num_clauses=sat.num_clauses_added - clauses_before,
            build_time_s=build_time,
        )
        self.checks_discharged += 1
        if infeasible:
            return Result.UNSAT
        before = sat.stats
        decisions, propagations = before.decisions, before.propagations
        conflicts, restarts, learned = before.conflicts, before.restarts, before.learned
        deadline = None if deadline_s is None else time.monotonic() + deadline_s
        solve_start = time.perf_counter()
        answer = sat.solve(assumptions=assumptions, deadline=deadline)
        self.stats.solve_time_s = time.perf_counter() - solve_start
        self.stats.sat = SatStats(
            decisions=sat.stats.decisions - decisions,
            propagations=sat.stats.propagations - propagations,
            conflicts=sat.stats.conflicts - conflicts,
            restarts=sat.stats.restarts - restarts,
            learned=sat.stats.learned - learned,
            max_learnt_len=sat.stats.max_learnt_len,
        )
        if answer is None:
            self.stats.unknown_reason = sat.stop_reason
            return Result.UNKNOWN
        if not answer:
            return Result.UNSAT
        self._model = _extract_model(sat, self._encoder)
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
    checks).  Running many batches on one pool (one
    :class:`repro.core.exec.ExecutionContext`) makes the per-owner
    encodings persistent: a re-verification or a later property family re-uses the clauses an earlier call already built and pays only
    the marginal encoding of genuinely new terms.  Reuse is always sound —
    a session database holds only definitions and what every one of its
    checks asserts, and each check is discharged under assumptions — so a
    pool never needs invalidation for correctness.

    Above the sessions the pool owns ``answers``, the query memo: each
    distinct query is solved once per pool, whichever owner asks first,
    and every session the pool creates shares the one dict.  It is sound
    because the tuple of assertions *is* the query — a session database
    adds only definitions and ``prepare()``'s conjunct, which is itself
    among the assertions.  Only SAT and UNSAT are stored (an UNKNOWN is a statement about a budget, not about
    the query).  The key is the query's content — interned terms, compared
    by identity — so an edited policy builds a different key and nothing
    needs invalidating, not even across
    :func:`repro.smt.terms.clear_intern_cache`; the memo dies with
    ``clear()``, is never pickled and never reaches the on-disk cache.

    Pools live on execution contexts: a :class:`repro.core.workspace.
    Workspace` keeps one across ``reverify`` calls, the Table-4 sweeps
    run every problem on one context, and a liveness proof is one batch,
    so propagation, implication and every no-interference sub-proof
    share one.
    """

    def __init__(self) -> None:
        self._sessions: dict[object, CheckSession] = {}
        self.created = 0
        self.answers: Answers = {}

    def stats(self) -> dict[str, int]:
        """Aggregated reuse counters across the pool's sessions.

        ``checks_discharged`` counts queries a session solved;
        ``memo_hits`` those answered from ``answers`` instead.
        """
        sessions = self._sessions.values()
        return {
            "sessions": len(sessions),
            "checks_discharged": self.checks_discharged,
            "shared_skips": sum(s.shared_skips for s in sessions),
            "learnts_kept": sum(len(s._sat._learnts) for s in sessions),
            "memo_entries": len(self.answers),
            "memo_hits": sum(s.memo_hits for s in sessions),
        }

    def get(self, key: object) -> CheckSession:
        """The session for ``key``, created on first use."""
        session = self._sessions.get(key)
        if session is None:
            session = self._sessions[key] = CheckSession()
            session.answers = self.answers
            self.created += 1
        return session

    def peek(self, key: object) -> CheckSession | None:
        return self._sessions.get(key)

    def clear(self) -> None:
        self._sessions.clear()
        self.answers.clear()

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
