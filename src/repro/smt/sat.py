"""A CDCL SAT solver (MiniSat-style) in pure Python, with a flattened hot path.

Features: two-watched-literal propagation, 1UIP conflict analysis with
clause learning, non-chronological backjumping, VSIDS variable activity with
a lazy heap, phase saving, Luby restarts, learned-clause database reduction,
level-0 clause simplification on :meth:`SatSolver.add_clause`, and cheap
conflict-clause minimisation.

Externally, literals are signed integers: variable ``v`` (1-based) appears
positively as ``v`` and negatively as ``-v``.  Internally every literal is a
*code* — ``2v`` for the positive phase, ``2v + 1`` for the negative — so the
propagation loop indexes preallocated flat arrays (watch lists, assignment
values) instead of hashing signed integers through dictionaries.  The trail,
reasons, and levels are plain flat lists; no per-variable objects exist
anywhere on the hot path.

The solver is reusable across :meth:`solve` calls: learnt clauses persist
(all of them, bounded only by database reduction — there is no export,
import or per-clause retention policy), assumptions enter as scoped
decisions, and every answer is a consequence of the clause database alone —
the property the :class:`repro.smt.solver.CheckSession` shared-encoding
reuse relies on.

This is the decision engine at the bottom of the :mod:`repro.smt` stack; the
rest of the system only talks to it through :class:`repro.smt.solver.Solver`
and :class:`repro.smt.solver.CheckSession`.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass


UNASSIGNED = -1


def _to_code(lit: int) -> int:
    """Signed literal -> internal code (2v positive, 2v+1 negative)."""
    return (lit << 1) if lit > 0 else (((-lit) << 1) | 1)


def _to_lit(code: int) -> int:
    """Internal code -> signed literal."""
    return -(code >> 1) if code & 1 else (code >> 1)


@dataclass
class SatStats:
    """Counters describing one :meth:`SatSolver.solve` run."""

    decisions: int = 0
    propagations: int = 0
    conflicts: int = 0
    restarts: int = 0
    learned: int = 0
    max_learnt_len: int = 0


class SatSolver:
    """Incremental-construction CDCL solver.

    Usage::

        s = SatSolver()
        a, b = s.new_var(), s.new_var()
        s.add_clause([a, b])
        s.add_clause([-a, b])
        assert s.solve() is True
        assert s.value(b) is True
    """

    def __init__(self) -> None:
        self.num_vars = 0
        # Clause databases hold lists of literal *codes*; the first two
        # positions of every clause are its watched literals.
        self._clauses: list[list[int]] = []
        self._learnts: list[list[int]] = []
        # Flat arrays indexed by literal code (entries 0/1 pad for "var 0").
        self._watches: list[list[list[int]]] = [[], []]
        self._values: list[int] = [UNASSIGNED, UNASSIGNED]
        # Flat arrays indexed by variable.
        self.levels: list[int] = [0]
        self.reasons: list[list[int] | None] = [None]
        self.activity: list[float] = [0.0]
        self.phase: list[bool] = [False]
        self._trail: list[int] = []  # literal codes, in assignment order
        self.trail_lim: list[int] = []
        self.qhead = 0
        self.var_inc = 1.0
        self.var_decay = 0.95
        self.order_heap: list[tuple[float, int]] = []
        self.ok = True
        self.stats = SatStats()
        self.max_learnts_base = 4000
        # The learnt-DB cap grows geometrically as reductions fire and the
        # grown value persists across solve() calls: a session discharging
        # thousands of checks must not re-trigger _reduce_db from the base
        # cap every call, discarding the clauses reuse depends on.
        self._max_learnts = 0
        self.num_clauses_added = 0
        # Why the last solve() returned None: "conflicts" (budget) or
        # "timeout" (wall-clock deadline).  None after a decided answer.
        self.stop_reason: str | None = None

    # ------------------------------------------------------------------
    # Signed-literal views (DIMACS export, tests)
    # ------------------------------------------------------------------

    @property
    def clauses(self) -> list[list[int]]:
        """The problem clauses as signed literals (a converted copy)."""
        return [[_to_lit(c) for c in clause] for clause in self._clauses]

    @property
    def learnts(self) -> list[list[int]]:
        """The learnt clauses as signed literals (a converted copy)."""
        return [[_to_lit(c) for c in clause] for clause in self._learnts]

    @property
    def trail(self) -> list[int]:
        """The assignment trail as signed literals (a converted copy)."""
        return [_to_lit(c) for c in self._trail]

    # ------------------------------------------------------------------
    # Problem construction
    # ------------------------------------------------------------------

    def new_var(self) -> int:
        """Allocate a fresh variable and return its (positive) literal."""
        self.num_vars += 1
        v = self.num_vars
        self._values.append(UNASSIGNED)
        self._values.append(UNASSIGNED)
        self.levels.append(0)
        self.reasons.append(None)
        self.activity.append(0.0)
        self.phase.append(False)
        self._watches.append([])
        self._watches.append([])
        heapq.heappush(self.order_heap, (0.0, v))
        return v

    def add_clause(self, lits: list[int]) -> bool:
        """Add a clause; returns False if the formula became trivially unsat.

        Must be called at decision level 0 (i.e. before :meth:`solve`, or
        between solve calls once the trail has been reset).  The clause is
        simplified against the level-0 assignment: literals already false at
        the root are dropped, and clauses already satisfied at the root (or
        tautological) are discarded without being stored.
        """
        if not self.ok:
            return False
        values = self._values
        levels = self.levels
        seen: set[int] = set()
        clause: list[int] = []
        for lit in lits:
            code = (lit << 1) if lit > 0 else (((-lit) << 1) | 1)  # _to_code, inlined: per-literal encode hot path
            if code ^ 1 in seen:
                return True  # tautology
            if code in seen:
                continue
            val = values[code]
            if val == 1 and levels[code >> 1] == 0:
                return True  # already satisfied at root
            if val == 0 and levels[code >> 1] == 0:
                continue  # falsified at root: drop literal
            seen.add(code)
            clause.append(code)
        if not clause:
            self.ok = False
            return False
        self.num_clauses_added += 1
        if len(clause) == 1:
            if not self._enqueue(clause[0], None):
                self.ok = False
                return False
            conflict = self._propagate()
            if conflict is not None:
                self.ok = False
                return False
            return True
        self._clauses.append(clause)
        self._watches[clause[0]].append(clause)
        self._watches[clause[1]].append(clause)
        return True

    # ------------------------------------------------------------------
    # Assignment plumbing
    # ------------------------------------------------------------------

    def value(self, lit: int) -> bool | None:
        """Truth value of a signed literal in the current assignment."""
        val = self._values[_to_code(lit)]
        return None if val == UNASSIGNED else val == 1

    def _enqueue(self, code: int, reason: list[int] | None) -> bool:
        values = self._values
        val = values[code]
        if val != UNASSIGNED:
            return val == 1
        v = code >> 1
        values[code] = 1
        values[code ^ 1] = 0
        self.levels[v] = len(self.trail_lim)
        self.reasons[v] = reason
        self.phase[v] = not (code & 1)
        self._trail.append(code)
        return True

    def _decision_level(self) -> int:
        return len(self.trail_lim)

    # ------------------------------------------------------------------
    # Unit propagation (two watched literals, flattened)
    # ------------------------------------------------------------------

    def _propagate(self) -> list[int] | None:
        """Propagate enqueued assignments; return a conflicting clause or None."""
        values = self._values
        watches = self._watches
        trail = self._trail
        levels = self.levels
        reasons = self.reasons
        phase = self.phase
        level = len(self.trail_lim)
        qhead = self.qhead
        nprops = 0
        while qhead < len(trail):
            p = trail[qhead]
            qhead += 1
            nprops += 1
            neg = p ^ 1
            watch_list = watches[neg]
            i = 0
            j = 0
            n = len(watch_list)
            while i < n:
                clause = watch_list[i]
                i += 1
                # Ensure the false literal is in position 1.
                first = clause[0]
                if first == neg:
                    first = clause[0] = clause[1]
                    clause[1] = neg
                if values[first] == 1:
                    watch_list[j] = clause
                    j += 1
                    continue
                # Look for a new literal to watch.
                found = False
                for k in range(2, len(clause)):
                    lk = clause[k]
                    if values[lk] != 0:
                        clause[1] = lk
                        clause[k] = neg
                        watches[lk].append(clause)
                        found = True
                        break
                if found:
                    continue
                # Clause is unit or conflicting.
                watch_list[j] = clause
                j += 1
                if values[first] == 0:
                    # Conflict: keep remaining watches, then report.
                    while i < n:
                        watch_list[j] = watch_list[i]
                        j += 1
                        i += 1
                    del watch_list[j:]
                    self.qhead = len(trail)
                    self.stats.propagations += nprops
                    return clause
                # Unit: enqueue inline (first is unassigned here).
                v = first >> 1
                values[first] = 1
                values[first ^ 1] = 0
                levels[v] = level
                reasons[v] = clause
                phase[v] = not (first & 1)
                trail.append(first)
            del watch_list[j:]
        self.qhead = qhead
        self.stats.propagations += nprops
        return None

    # ------------------------------------------------------------------
    # Conflict analysis (first UIP)
    # ------------------------------------------------------------------

    def _analyze(self, conflict: list[int]) -> tuple[list[int], int]:
        learnt: list[int] = [0]  # placeholder for the asserting literal
        seen = bytearray(self.num_vars + 1)
        levels = self.levels
        trail = self._trail
        reasons = self.reasons
        counter = 0
        p = -1  # sentinel: no literal code is negative
        reason: list[int] = conflict
        index = len(trail) - 1
        cur_level = len(self.trail_lim)

        # repro: ignore[deadline-discipline] -- bounded: each iteration consumes one marked trail literal and the trail is finite
        while True:
            for q in reason:
                if q == p:
                    continue
                v = q >> 1
                if not seen[v] and levels[v] > 0:
                    seen[v] = 1
                    self._bump_var(v)
                    if levels[v] >= cur_level:
                        counter += 1
                    else:
                        learnt.append(q)
            # Pick next literal from the trail.
            while not seen[trail[index] >> 1]:
                index -= 1
            p = trail[index]
            index -= 1
            v = p >> 1
            seen[v] = 0
            counter -= 1
            if counter == 0:
                break
            r = reasons[v]
            assert r is not None, "UIP literal must have a reason"
            reason = r
        learnt[0] = p ^ 1

        # Conflict-clause minimisation: drop literals implied by the rest.
        keep = [learnt[0]]
        marked = {l >> 1 for l in learnt}
        for lit in learnt[1:]:
            r = reasons[lit >> 1]
            if r is None:
                keep.append(lit)
                continue
            if any(
                (q >> 1) not in marked and levels[q >> 1] > 0
                for q in r
                if q != lit ^ 1
            ):
                keep.append(lit)
        learnt = keep

        if len(learnt) == 1:
            backjump = 0
        else:
            # Second-highest decision level in the learnt clause.
            max_i = 1
            for i in range(2, len(learnt)):
                if levels[learnt[i] >> 1] > levels[learnt[max_i] >> 1]:
                    max_i = i
            learnt[1], learnt[max_i] = learnt[max_i], learnt[1]
            backjump = levels[learnt[1] >> 1]
        self.stats.max_learnt_len = max(self.stats.max_learnt_len, len(learnt))
        return learnt, backjump

    def _bump_var(self, v: int) -> None:
        self.activity[v] += self.var_inc
        if self.activity[v] > 1e100:
            for i in range(1, self.num_vars + 1):
                self.activity[i] *= 1e-100
            self.var_inc *= 1e-100
        heapq.heappush(self.order_heap, (-self.activity[v], v))

    def _decay_activities(self) -> None:
        self.var_inc /= self.var_decay

    # ------------------------------------------------------------------
    # Backtracking and decisions
    # ------------------------------------------------------------------

    def _cancel_until(self, level: int) -> None:
        if len(self.trail_lim) <= level:
            return
        bound = self.trail_lim[level]
        trail = self._trail
        values = self._values
        reasons = self.reasons
        activity = self.activity
        heap = self.order_heap
        push = heapq.heappush
        for idx in range(len(trail) - 1, bound - 1, -1):
            code = trail[idx]
            v = code >> 1
            values[code] = UNASSIGNED
            values[code ^ 1] = UNASSIGNED
            reasons[v] = None
            push(heap, (-activity[v], v))
        del trail[bound:]
        del self.trail_lim[level:]
        self.qhead = len(trail)

    def _pick_branch_var(self) -> int | None:
        values = self._values
        while self.order_heap:
            __, v = heapq.heappop(self.order_heap)
            if values[v << 1] == UNASSIGNED:
                return v
        return None

    # ------------------------------------------------------------------
    # Learned-clause database reduction
    # ------------------------------------------------------------------

    def _reduce_db(self) -> None:
        # Keep shorter clauses: length is a cheap, effective quality proxy.
        self._learnts.sort(key=len)
        keep_n = len(self._learnts) // 2
        dropped = self._learnts[keep_n:]
        self._learnts = self._learnts[:keep_n]
        drop_ids = {id(c) for c in dropped}
        locked = {
            id(self.reasons[code >> 1])
            for code in self._trail
            if self.reasons[code >> 1] is not None
        }
        drop_ids -= locked
        for c in dropped:
            if id(c) in locked:
                self._learnts.append(c)
        watches = self._watches
        for code in range(2, 2 * self.num_vars + 2):
            wl = watches[code]
            if wl:
                watches[code] = [c for c in wl if id(c) not in drop_ids]

    # ------------------------------------------------------------------
    # Main search loop
    # ------------------------------------------------------------------

    def solve(
        self,
        assumptions: list[int] | None = None,
        conflict_budget: int | None = None,
        deadline: float | None = None,
    ) -> bool | None:
        """Run CDCL search.

        Returns True (sat), False (unsat), or None if ``conflict_budget``
        or the wall-clock ``deadline`` (an absolute ``time.monotonic()``
        timestamp, checked at every conflict and decision) was exhausted —
        ``stop_reason`` then says which ("conflicts" / "timeout").
        ``assumptions`` are decided first; an unsat answer under
        assumptions means the formula plus assumptions is unsat.  The
        solver remains usable afterwards: learnt clauses are consequences
        of the clause database alone, so later solves (with different
        assumptions) stay sound — an undecided answer leaves the trail
        reset and the database intact.
        """
        if not self.ok:
            return False
        self.stop_reason = None
        if deadline is not None and time.monotonic() >= deadline:
            # Expired before search even starts (e.g. the run's wall budget
            # is gone): report timeout rather than burning one more check.
            self.stop_reason = "timeout"
            return None
        self._cancel_until(0)
        assume_codes = [_to_code(l) for l in (assumptions or [])]
        conflict = self._propagate()
        if conflict is not None:
            self.ok = False
            return False

        restart_idx = 0
        conflicts_since_restart = 0
        restart_limit = 100 * _luby(restart_idx)
        max_learnts = max(self._max_learnts, self.max_learnts_base)
        total_conflicts = 0
        values = self._values

        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.stats.conflicts += 1
                total_conflicts += 1
                conflicts_since_restart += 1
                if not self.trail_lim:
                    return False
                learnt, backjump = self._analyze(conflict)
                self._cancel_until(backjump)
                if len(learnt) == 1:
                    self._enqueue(learnt[0], None)
                else:
                    self._learnts.append(learnt)
                    self._watches[learnt[0]].append(learnt)
                    self._watches[learnt[1]].append(learnt)
                    self.stats.learned += 1
                    self._enqueue(learnt[0], learnt)
                self._decay_activities()
                if conflict_budget is not None and total_conflicts >= conflict_budget:
                    self._cancel_until(0)
                    self.stop_reason = "conflicts"
                    return None
                if deadline is not None and time.monotonic() >= deadline:
                    self._cancel_until(0)
                    self.stop_reason = "timeout"
                    return None
                continue

            if conflicts_since_restart >= restart_limit:
                self.stats.restarts += 1
                restart_idx += 1
                conflicts_since_restart = 0
                restart_limit = 100 * _luby(restart_idx)
                self._cancel_until(0)
                continue

            if len(self._learnts) > max_learnts:
                self._reduce_db()
                max_learnts = int(max_learnts * 1.5)
                self._max_learnts = max_learnts

            # Apply assumptions before free decisions.
            level = len(self.trail_lim)
            if level < len(assume_codes):
                code = assume_codes[level]
                val = values[code]
                if val == 1:
                    self.trail_lim.append(len(self._trail))
                    continue
                if val == 0:
                    self._cancel_until(0)
                    return False
                next_code = code
            else:
                v = self._pick_branch_var()
                if v is None:
                    return True
                next_code = (v << 1) if self.phase[v] else ((v << 1) | 1)

            self.stats.decisions += 1
            if (
                deadline is not None
                and self.stats.decisions & 0x3F == 0
                and time.monotonic() >= deadline
            ):
                # Conflict-free search (long propagation chains between
                # conflicts) must also honour the deadline; sampling every
                # 64 decisions keeps the clock off the hot path.
                self._cancel_until(0)
                self.stop_reason = "timeout"
                return None
            self.trail_lim.append(len(self._trail))
            self._enqueue(next_code, None)

    def model(self) -> dict[int, bool]:
        """Assignment after a sat answer, as {var: bool}."""
        values = self._values
        return {
            v: values[v << 1] == 1
            for v in range(1, self.num_vars + 1)
            if values[v << 1] != UNASSIGNED
        }

    def reset_trail(self) -> None:
        """Undo all decisions, keeping learnt clauses (between solve calls)."""
        self._cancel_until(0)


def _luby(i: int) -> int:
    """The Luby restart sequence 1,1,2,1,1,2,4,... (``i`` is 0-based)."""
    i += 1
    # repro: ignore[deadline-discipline] -- terminating recurrence: i strictly decreases toward a power-of-two boundary
    while True:
        k = i.bit_length()
        if i == (1 << k) - 1:
            return 1 << (k - 1)
        i -= (1 << (k - 1)) - 1
