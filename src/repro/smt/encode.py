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

**The gate path.**  A gate's clauses all mention its freshly allocated
output variable, and its inputs are pairwise distinct variables (the folds
above return before ``a == ±b``, ``c == ±t`` and the like reach a gate).
So no gate clause is tautological or repeats a literal, and AND, XOR and
ITE hand their ``n + 1`` / four / four clauses to one
:meth:`SatSolver.add_gate` call, which skips :meth:`SatSolver.add_clause`'s
per-literal seen-set but keeps its level-0 simplification, clause by clause
and in order: root-false literals are dropped, root-satisfied clauses
skipped, and a clause left with one or no literal goes to ``add_clause``
itself.  The clause database, the trail and every counter are therefore
exactly what one ``add_clause`` per clause would leave;
``tests/smt/test_cnf_pin.py`` holds the encoder to that reference.

**Constant operand bits** are folded inline where they are most common:
``BvEq`` and ``BvAnd`` against a constant (prefix masks and
values) and ``<``/``<=`` against a constant (length bounds).  Each folded
bit yields the literal the generic ``-xor``/``and2``/``ite(xor(a, b), b,
r)`` chain folds to — for ``<`` the ``ite`` over a constant bit is an
``and2`` — without one Python call per bit.  A constant's bits are shared
by every encoder with the same ``true`` literal.

The memos persist for the lifetime of the instance, which is what lets a
:class:`repro.smt.solver.CheckSession` encode a shared transfer-function
fragment once and reuse its clauses across many checks.  Terms hash by
identity (:mod:`repro.smt.terms`), so a term's hash depends on memory layout
as well as on ``PYTHONHASHSEED``; what keeps the CNF stable is that gate
keys are sorted ints and no set of terms is iterated into a clause.
"""

from __future__ import annotations

from functools import lru_cache
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


@lru_cache(maxsize=4096)
def _const_bits(true: int, value: int, width: int) -> Bits:
    """A constant's bits as ``±true``; every session shares its constants."""
    return tuple(true if (value >> i) & 1 else -true for i in range(width))


class Encoder:
    """Encode terms into a :class:`SatSolver`, remembering each variable."""

    def __init__(self, sat: SatSolver) -> None:
        self.sat = sat
        self.true = sat.new_var()
        sat.add_clause([self.true])
        # One memo for both sorts (a term has exactly one), under two typed names.
        memo: dict[Term, Any] = {}
        self._lits: dict[Term, int] = memo
        self._bits: dict[Term, Bits] = memo
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
        """Memoise ``root`` and every descendant not yet encoded, children
        first.  A node with missing children is pushed back, then a ``None``
        marker, then the children; when the marker comes off, the node's
        children are all built, so it is built without scanning them again."""
        memo, node = self._lits, self._NODE
        stack: list[Term | None] = [root]
        pop, push = stack.pop, stack.append
        while stack:
            t = pop()
            if t is None:  # above it: a node whose children are all built
                t = pop()
                assert t is not None
                memo[t] = node[type(t)](self, t)
            elif t not in memo:
                missing = [k for k in t.children() if k not in memo]
                if missing:
                    push(t)
                    push(None)
                    stack.extend(missing)
                else:
                    memo[t] = node[type(t)](self, t)

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
            clauses = [(-v, lit) for lit in key]
            clauses.append((v, *[-lit for lit in key]))
            self.sat.add_gate(clauses)
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
            self.sat.add_gate([(-v, a, b), (-v, -a, -b), (v, -a, b), (v, a, -b)])
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
            self.sat.add_gate([(-v, -c, t), (-v, c, e), (v, -c, -t), (v, c, -e)])
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
        # ``-xor(a, b)`` per bit, with a constant operand folded inline.
        true, xor = self.true, self.xor
        same: list[int] = []
        for a, b in self._operands(t):
            if a == true:
                same.append(b)
            elif a == -true:
                same.append(-b)
            elif b == true:
                same.append(a)
            elif b == -true:
                same.append(-a)
            else:
                same.append(-xor(a, b))
        return self.and_(same)

    def _bv_ult(self, t: T.BvUlt) -> int:
        return self._ult(self._bits[t.lhs], self._bits[t.rhs])

    def _bv_ule(self, t: T.BvUle) -> int:
        # a <= b  <=>  not (b < a)
        return -self._ult(self._bits[t.rhs], self._bits[t.lhs])

    def _ult(self, a: Bits, b: Bits) -> int:
        """Unsigned a < b: the highest differing bit decides, b's bit wins."""
        true, and2 = self.true, self.and2
        result = -true
        for ai, bi in zip(a, b):  # LSB -> MSB; later (higher) bits dominate
            # ``ite(xor(ai, bi), bi, result)``; one constant bit makes it an
            # AND/OR, the literal that chain folds to.
            if abs(bi) == true and abs(ai) != true:
                result = -and2(ai, -result) if bi > 0 else and2(-ai, result)
            elif abs(ai) == true and abs(bi) != true:
                result = and2(bi, result) if ai > 0 else -and2(-bi, -result)
            else:
                result = self.ite(self.xor(ai, bi), bi, result)
        return result

    def _bv_var(self, t: T.BvVar) -> Bits:
        new_var = self.sat.new_var
        bits = self.bv_vars[t] = tuple(new_var() for _ in range(t.width))
        return bits

    def _bv_const(self, t: T.BvConst) -> Bits:
        return _const_bits(self.true, t.value, t.width)

    def _operands(self, t: Term) -> Iterable[tuple[int, int]]:
        """Bit pairs of a binary node's operands, LSB first."""
        return zip(self._bits[t.lhs], self._bits[t.rhs])

    def _bv_and(self, t: T.BvAnd) -> Bits:
        # ``and2`` per bit, with a constant operand folded inline.
        true, and2 = self.true, self.and2
        out: list[int] = []
        for a, b in self._operands(t):
            if a == true:
                out.append(b)
            elif b == true:
                out.append(a)
            elif a == -true or b == -true:
                out.append(-true)
            else:
                out.append(and2(a, b))
        return tuple(out)

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
        T.BvAdd: _bv_add,
        T.BvIte: _bv_ite,
    }
