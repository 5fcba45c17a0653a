"""The encoder: hash-consed terms straight to SAT literals, in one pass.

A boolean term becomes one signed literal, a bit-vector term a tuple of
literals (LSB first), memoised on the interned term by one iterative
post-order worklist (deep policies cannot hit the recursion limit).  There is
no intermediate boolean term DAG: gates are built and hashed over *literals*.

Constants are a literal, not a node.  ``Encoder.true`` is asserted at
construction and every gate folds on ``±true``, on ``a == b`` and on
``a == -b`` before it allocates anything.  ``BvConst`` bits are ``±true``,
so ``(prefix & mask) == const`` collapses to one AND over the unmasked
variable bits and ``len <= const`` to a chain of two-input AND/OR over the
variable's bits.

Three native gates carry everything else: n-ary AND (``n + 1`` clauses, keyed
by the sorted literal tuple; OR is ``-AND(-lits)``), XOR (four clauses,
sign-normalised so ``xor(-a, b)`` and ``-xor(a, b)`` share one variable) and
ITE (four clauses, condition sign-normalised).  ``Not`` is a sign flip.

The memos persist for the lifetime of the instance, which is what lets a
:class:`repro.smt.solver.CheckSession` encode a shared transfer-function
fragment once and reuse its clauses across many checks.  Gate keys are
sorted ints and no set is ever iterated into a clause, so the CNF does not
depend on ``PYTHONHASHSEED``.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

from repro.smt import terms as T
from repro.smt.sat import SatSolver
from repro.smt.terms import Term

Bits = tuple[int, ...]


def conjuncts(term: Term) -> Iterable[Term]:
    """Split (possibly nested) top-level conjunctions, iteratively."""
    stack = [term]
    while stack:
        t = stack.pop()
        if isinstance(t, T.And):
            stack.extend(t.args)
        else:
            yield t


class Encoder:
    """Encode terms into a :class:`SatSolver`, remembering each variable."""

    def __init__(self, sat: SatSolver) -> None:
        self.sat = sat
        self.true = sat.new_var()
        sat.add_clause([self.true])
        self._lits: dict[Term, int] = {}
        self._bits: dict[Term, Bits] = {}
        # Read by model extraction: the SAT variable(s) of each term variable.
        self.bool_vars: dict[Term, int] = {}
        self.bv_vars: dict[Term, Bits] = {}
        self._ands: dict[Bits, int] = {}
        self._xors: dict[tuple[int, int], int] = {}
        self._ites: dict[tuple[int, int, int], int] = {}

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------

    def literal(self, term: Term) -> int:
        """The SAT literal of a boolean-sorted term."""
        if term.sort is not T.BOOL:
            raise TypeError(f"literal expects a boolean-sorted term, got {term!r}")
        self._encode(term)
        return self._lits[term]

    def bits(self, term: Term) -> Bits:
        """The SAT literals (LSB first) of a bit-vector-sorted term."""
        if term.sort is T.BOOL:
            raise TypeError(f"bits expects a bit-vector-sorted term, got {term!r}")
        self._encode(term)
        return self._bits[term]

    def clause(self, conjunct: Term) -> list[int]:
        """One top-level conjunct as a clause: an ``Or`` is its disjuncts."""
        if isinstance(conjunct, T.Or):
            return [self.literal(a) for a in conjunct.args]
        return [self.literal(conjunct)]

    def assert_true(self, term: Term) -> None:
        """Add CNF clauses forcing ``term`` to hold."""
        for conjunct in conjuncts(term):
            self.sat.add_clause(self.clause(conjunct))

    def _encode(self, root: Term) -> None:
        """Memoise ``root`` and every descendant not yet encoded, children first."""
        lits, bits, node = self._lits, self._bits, self._NODE
        stack = [root]
        while stack:
            t = stack[-1]
            memo: dict[Term, Any] = lits if t.sort is T.BOOL else bits
            if t in memo:
                stack.pop()
                continue
            missing = [
                k
                for k in t.children()
                if k not in (lits if k.sort is T.BOOL else bits)
            ]
            if missing:
                stack.extend(missing)
                continue
            memo[t] = node[type(t)](self, t)
            stack.pop()

    # ------------------------------------------------------------------
    # Gates over literals
    # ------------------------------------------------------------------

    def and_(self, lits: Iterable[int]) -> int:
        """The conjunction of ``lits``; OR is ``-and_(-lit ...)``."""
        true = self.true
        seen: set[int] = set()
        for lit in lits:
            if lit == true:
                continue
            if lit == -true or -lit in seen:
                return -true
            seen.add(lit)
        if not seen:
            return true
        key = tuple(sorted(seen))
        return key[0] if len(key) == 1 else self._and_gate(key)

    def and2(self, a: int, b: int) -> int:
        """``and_((a, b))`` without the set: the per-bit workhorse."""
        true = self.true
        if a == true or a == b:
            return b
        if b == true:
            return a
        if a == -true or b == -true or a == -b:
            return -true
        return self._and_gate((a, b) if a < b else (b, a))

    def _and_gate(self, key: Bits) -> int:
        v = self._ands.get(key)
        if v is None:
            v = self._ands[key] = self.sat.new_var()
            add = self.sat.add_clause
            for lit in key:
                add([-v, lit])
            add([v, *[-lit for lit in key]])
        return v

    def xor(self, a: int, b: int) -> int:
        """``a != b``; one variable serves all four sign combinations."""
        true = self.true
        if abs(a) == true:
            return -b if a > 0 else b
        if abs(b) == true:
            return -a if b > 0 else a
        if abs(a) == abs(b):
            return -true if a == b else true
        flip = (a < 0) != (b < 0)
        a, b = abs(a), abs(b)
        key = (a, b) if a < b else (b, a)
        v = self._xors.get(key)
        if v is None:
            v = self._xors[key] = self.sat.new_var()
            add = self.sat.add_clause
            add([-v, a, b])
            add([-v, -a, -b])
            add([v, -a, b])
            add([v, a, -b])
        return -v if flip else v

    def ite(self, c: int, t: int, e: int) -> int:
        """``t if c else e``, folded to AND/OR/XOR wherever two inputs meet."""
        true = self.true
        if c == true or t == e:
            return t
        if c == -true:
            return e
        if t == -e:
            return self.xor(c, e)
        if t == true or t == c:
            return -self.and2(-c, -e)
        if t == -true or t == -c:
            return self.and2(-c, e)
        if e == true or e == -c:
            return -self.and2(c, -t)
        if e == -true or e == c:
            return self.and2(c, t)
        if c < 0:
            c, t, e = -c, e, t
        key = (c, t, e)
        v = self._ites.get(key)
        if v is None:
            v = self._ites[key] = self.sat.new_var()
            add = self.sat.add_clause
            add([-v, -c, t])
            add([-v, c, e])
            add([v, -c, -t])
            add([v, c, -e])
        return v

    # ------------------------------------------------------------------
    # One node whose children are already encoded
    # ------------------------------------------------------------------

    def _bool_const(self, t: T.BoolConst) -> int:
        return self.true if t.value else -self.true

    def _bool_var(self, t: T.BoolVar) -> int:
        var = self.bool_vars[t] = self.sat.new_var()
        return var

    def _not(self, t: T.Not) -> int:
        return -self._lits[t.arg]

    def _and(self, t: T.And) -> int:
        lits = self._lits
        return self.and_([lits[a] for a in t.args])

    def _or(self, t: T.Or) -> int:
        lits = self._lits
        return -self.and_([-lits[a] for a in t.args])

    def _ite(self, t: T.Ite) -> int:
        lits = self._lits
        return self.ite(lits[t.cond], lits[t.then], lits[t.els])

    def _bv_eq(self, t: T.BvEq) -> int:
        xor = self.xor
        return self.and_([-xor(a, b) for a, b in self._operands(t)])

    def _bv_ult(self, t: T.BvUlt) -> int:
        return self._ult(self._bits[t.lhs], self._bits[t.rhs])

    def _bv_ule(self, t: T.BvUle) -> int:
        # a <= b  <=>  not (b < a)
        return -self._ult(self._bits[t.rhs], self._bits[t.lhs])

    def _ult(self, a: Bits, b: Bits) -> int:
        """Unsigned a < b: the highest differing bit decides, b's bit wins."""
        result = -self.true
        for ai, bi in zip(a, b):  # LSB -> MSB; later (higher) bits dominate
            result = self.ite(self.xor(ai, bi), bi, result)
        return result

    def _bv_var(self, t: T.BvVar) -> Bits:
        new_var = self.sat.new_var
        bits = self.bv_vars[t] = tuple(new_var() for _ in range(t.width))
        return bits

    def _bv_const(self, t: T.BvConst) -> Bits:
        true, value = self.true, t.value
        return tuple(true if (value >> i) & 1 else -true for i in range(t.width))

    def _operands(self, t: Term) -> Iterable[tuple[int, int]]:
        """Bit pairs of a binary node's operands, LSB first."""
        return zip(self._bits[t.lhs], self._bits[t.rhs])

    def _bv_and(self, t: T.BvAnd) -> Bits:
        and2 = self.and2
        return tuple(and2(a, b) for a, b in self._operands(t))

    def _bv_or(self, t: T.BvOr) -> Bits:
        and2 = self.and2
        return tuple(-and2(-a, -b) for a, b in self._operands(t))

    def _bv_xor(self, t: T.BvXor) -> Bits:
        xor = self.xor
        return tuple(xor(a, b) for a, b in self._operands(t))

    def _bv_not(self, t: T.BvNot) -> Bits:
        return tuple(-a for a in self._bits[t.arg])

    def _bv_add(self, t: T.BvAdd) -> Bits:
        """Ripple-carry addition modulo 2**width."""
        xor, ite = self.xor, self.ite
        carry = -self.true
        out: list[int] = []
        last = t.width - 1
        for i, (a, b) in enumerate(self._operands(t)):
            differ = xor(a, b)
            out.append(xor(differ, carry))
            if i < last:  # the carry out of the top bit is dropped: no gate for it
                carry = ite(differ, carry, a)  # majority(a, b, carry)
        return tuple(out)

    def _bv_ite(self, t: T.BvIte) -> Bits:
        ite, bits, cond = self.ite, self._bits, self._lits[t.cond]
        return tuple(ite(cond, a, b) for a, b in zip(bits[t.then], bits[t.els]))

    _NODE: dict[type[Term], Callable[..., Any]] = {
        T.BoolConst: _bool_const,
        T.BoolVar: _bool_var,
        T.Not: _not,
        T.And: _and,
        T.Or: _or,
        T.Ite: _ite,
        T.BvEq: _bv_eq,
        T.BvUlt: _bv_ult,
        T.BvUle: _bv_ule,
        T.BvVar: _bv_var,
        T.BvConst: _bv_const,
        T.BvAnd: _bv_and,
        T.BvOr: _bv_or,
        T.BvXor: _bv_xor,
        T.BvNot: _bv_not,
        T.BvAdd: _bv_add,
        T.BvIte: _bv_ite,
    }
