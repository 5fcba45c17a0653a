"""Immutable, hash-consed term AST for the SMT layer.

Two sorts exist: ``BOOL`` and ``BitVecSort(width)``.  Terms are built through
the smart constructors at the bottom of this module (``and_``, ``bv_eq``,
...), which perform light constant folding and flattening so that downstream
encoders see smaller DAGs.  Structural sharing matters: identical subterms are
interned so the encoder (:mod:`repro.smt.encode`) can memoise on object
identity.

Terms hash and compare by identity (``object``'s own ``__hash__`` and
``__eq__``), so a term's hash depends on where it lives in memory as well
as on ``PYTHONHASHSEED``.  Building a node costs one intern-table lookup on
a structural key; a hit allocates nothing.
"""

from __future__ import annotations

from typing import Iterable


class Sort:
    """Base class for term sorts."""

    __slots__ = ()


class _BoolSort(Sort):
    __slots__ = ()

    def __repr__(self) -> str:
        return "Bool"


BOOL = _BoolSort()


class BitVecSort(Sort):
    """Sort of fixed-width unsigned bit-vectors."""

    __slots__ = ("width",)
    _cache: dict[int, "BitVecSort"] = {}

    def __new__(cls, width: int) -> "BitVecSort":
        if width <= 0:
            raise ValueError(f"bit-vector width must be positive, got {width}")
        cached = cls._cache.get(width)
        if cached is None:
            cached = super().__new__(cls)
            object.__setattr__(cached, "width", width)
            cls._cache[width] = cached
        return cached

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("BitVecSort is immutable")

    def __repr__(self) -> str:
        return f"BitVec({self.width})"


# ---------------------------------------------------------------------------
# Term base and interning
# ---------------------------------------------------------------------------

# Structural key -> the one term with that structure.  Keys hold child terms,
# which hash by identity, so a lookup costs one C-level tuple hash.
_INTERN: dict[tuple, "Term"] = {}

_new = object.__new__
_set = object.__setattr__

_intern_dependents: list = []


def register_intern_dependent(clear_fn) -> None:
    """Register a cache-clearing callback tied to the intern table's lifetime.

    Caches that rely on term identity (e.g. the shared symbolic-route cache)
    must be dropped together with the intern table, or stale instances would
    stop comparing equal to newly built terms.
    """
    _intern_dependents.append(clear_fn)


def clear_intern_cache() -> None:
    """Drop the global intern table (used by long-running benchmarks).

    ``TRUE`` and ``FALSE`` stay interned: the smart constructors fold on
    their identity, so ``BoolConst(True)`` must keep returning ``TRUE``.
    """
    _INTERN.clear()
    _INTERN[("BoolConst", True)] = TRUE
    _INTERN[("BoolConst", False)] = FALSE
    for clear_fn in _intern_dependents:
        clear_fn()


class Term:
    """Base class of all terms.  Instances are immutable and interned.

    Each subclass ``__new__`` looks its structural key up in the intern
    table and builds a node only on a miss, so structurally equal terms are
    the same object.  That is why ``Term`` keeps ``object``'s identity
    ``__eq__``/``__hash__``: they run at C speed, and a hash depends on the
    object's address (so on memory layout as well as ``PYTHONHASHSEED``).
    Nothing may therefore let the iteration order of a set or dict *of
    terms* leak into an output.
    """

    __slots__ = ("sort",)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("terms are immutable")

    @property
    def is_bool(self) -> bool:
        return self.sort is BOOL

    @property
    def width(self) -> int:
        sort = self.sort
        if not isinstance(sort, BitVecSort):
            raise TypeError(f"{self!r} is not a bit-vector")
        return sort.width

    def children(self) -> tuple["Term", ...]:
        return ()


# ---------------------------------------------------------------------------
# Boolean terms
# ---------------------------------------------------------------------------


class BoolConst(Term):
    __slots__ = ("value",)

    def __new__(cls, value: bool):
        value = bool(value)
        key = ("BoolConst", value)
        t = _INTERN.get(key)
        if t is None:
            t = _new(cls)
            _set(t, "sort", BOOL)
            _set(t, "value", value)
            _INTERN[key] = t
        return t

    def __repr__(self) -> str:
        return "true" if self.value else "false"


TRUE = BoolConst(True)
FALSE = BoolConst(False)


class BoolVar(Term):
    __slots__ = ("name",)

    def __new__(cls, name: str):
        key = ("BoolVar", name)
        t = _INTERN.get(key)
        if t is None:
            t = _new(cls)
            _set(t, "sort", BOOL)
            _set(t, "name", name)
            _INTERN[key] = t
        return t

    def __repr__(self) -> str:
        return self.name


class Not(Term):
    __slots__ = ("arg",)

    def __new__(cls, arg: Term):
        key = ("Not", arg)
        t = _INTERN.get(key)
        if t is None:
            t = _new(cls)
            _set(t, "sort", BOOL)
            _set(t, "arg", arg)
            _INTERN[key] = t
        return t

    def children(self) -> tuple[Term, ...]:
        return (self.arg,)

    def __repr__(self) -> str:
        return f"(not {self.arg!r})"


class _NaryBool(Term):
    __slots__ = ("args",)
    _op = "?"

    def __new__(cls, args: tuple[Term, ...]):
        key = (cls._op, args)
        t = _INTERN.get(key)
        if t is None:
            t = _new(cls)
            _set(t, "sort", BOOL)
            _set(t, "args", args)
            _INTERN[key] = t
        return t

    def children(self) -> tuple[Term, ...]:
        return self.args

    def __repr__(self) -> str:
        inner = " ".join(repr(a) for a in self.args)
        return f"({self._op} {inner})"


class And(_NaryBool):
    __slots__ = ()
    _op = "and"


class Or(_NaryBool):
    __slots__ = ()
    _op = "or"


class Ite(Term):
    """Boolean if-then-else (for bit-vectors use :class:`BvIte`)."""

    __slots__ = ("cond", "then", "els")

    def __new__(cls, cond: Term, then: Term, els: Term):
        key = ("Ite", cond, then, els)
        t = _INTERN.get(key)
        if t is None:
            t = _new(cls)
            _set(t, "sort", BOOL)
            _set(t, "cond", cond)
            _set(t, "then", then)
            _set(t, "els", els)
            _INTERN[key] = t
        return t

    def children(self) -> tuple[Term, ...]:
        return (self.cond, self.then, self.els)

    def __repr__(self) -> str:
        return f"(ite {self.cond!r} {self.then!r} {self.els!r})"


# ---------------------------------------------------------------------------
# Bit-vector terms
# ---------------------------------------------------------------------------


def _check_widths(lhs: Term, rhs: Term) -> None:
    if lhs.width != rhs.width:
        raise TypeError(f"width mismatch: {lhs!r} vs {rhs!r}")


class BvVar(Term):
    __slots__ = ("name",)

    def __new__(cls, name: str, width: int):
        key = ("BvVar", name, width)
        t = _INTERN.get(key)
        if t is None:
            t = _new(cls)
            _set(t, "sort", BitVecSort(width))
            _set(t, "name", name)
            _INTERN[key] = t
        return t

    def __repr__(self) -> str:
        return f"{self.name}[{self.width}]"


class BvConst(Term):
    __slots__ = ("value",)

    def __new__(cls, value: int, width: int):
        value = value & ((1 << width) - 1)
        key = ("BvConst", value, width)
        t = _INTERN.get(key)
        if t is None:
            t = _new(cls)
            _set(t, "sort", BitVecSort(width))
            _set(t, "value", value)
            _INTERN[key] = t
        return t

    def __repr__(self) -> str:
        return f"#{self.value:#x}[{self.width}]"


class _BinBoolFromBv(Term):
    """Boolean-sorted relation between two bit-vectors."""

    __slots__ = ("lhs", "rhs")
    _op = "?"

    def __new__(cls, lhs: Term, rhs: Term):
        key = (cls._op, lhs, rhs)
        t = _INTERN.get(key)
        if t is None:
            # A hit was checked when it was built.
            _check_widths(lhs, rhs)
            t = _new(cls)
            _set(t, "sort", BOOL)
            _set(t, "lhs", lhs)
            _set(t, "rhs", rhs)
            _INTERN[key] = t
        return t

    def children(self) -> tuple[Term, ...]:
        return (self.lhs, self.rhs)

    def __repr__(self) -> str:
        return f"({self._op} {self.lhs!r} {self.rhs!r})"


class BvEq(_BinBoolFromBv):
    __slots__ = ()
    _op = "bveq"


class BvUlt(_BinBoolFromBv):
    __slots__ = ()
    _op = "bvult"


class BvUle(_BinBoolFromBv):
    __slots__ = ()
    _op = "bvule"


class _BinBv(Term):
    """Bit-vector-sorted binary operation."""

    __slots__ = ("lhs", "rhs")
    _op = "?"

    def __new__(cls, lhs: Term, rhs: Term):
        key = (cls._op, lhs, rhs)
        t = _INTERN.get(key)
        if t is None:
            _check_widths(lhs, rhs)
            t = _new(cls)
            _set(t, "sort", lhs.sort)
            _set(t, "lhs", lhs)
            _set(t, "rhs", rhs)
            _INTERN[key] = t
        return t

    def children(self) -> tuple[Term, ...]:
        return (self.lhs, self.rhs)

    def __repr__(self) -> str:
        return f"({self._op} {self.lhs!r} {self.rhs!r})"


class BvAnd(_BinBv):
    __slots__ = ()
    _op = "bvand"


class BvAdd(_BinBv):
    __slots__ = ()
    _op = "bvadd"


class BvIte(Term):
    __slots__ = ("cond", "then", "els")

    def __new__(cls, cond: Term, then: Term, els: Term):
        key = ("bvite", cond, then, els)
        t = _INTERN.get(key)
        if t is None:
            _check_widths(then, els)
            t = _new(cls)
            _set(t, "sort", then.sort)
            _set(t, "cond", cond)
            _set(t, "then", then)
            _set(t, "els", els)
            _INTERN[key] = t
        return t

    def children(self) -> tuple[Term, ...]:
        return (self.cond, self.then, self.els)

    def __repr__(self) -> str:
        return f"(bvite {self.cond!r} {self.then!r} {self.els!r})"


# ---------------------------------------------------------------------------
# Smart constructors
# ---------------------------------------------------------------------------


def true() -> Term:
    return TRUE


def false() -> Term:
    return FALSE


def bool_var(name: str) -> Term:
    return BoolVar(name)


def not_(a: Term) -> Term:
    if a is TRUE:
        return FALSE
    if a is FALSE:
        return TRUE
    if isinstance(a, Not):
        return a.arg
    return Not(a)


def and_(*args: Term | Iterable[Term]) -> Term:
    flat: list[Term] = []
    seen: set[Term] = set()
    stack = list(_flatten_args(args))
    for a in stack:
        if a is FALSE:
            return FALSE
        if a is TRUE:
            continue
        if isinstance(a, And):
            for sub in a.args:
                if sub is FALSE:
                    return FALSE
                if sub is not TRUE and sub not in seen:
                    seen.add(sub)
                    flat.append(sub)
            continue
        if a not in seen:
            seen.add(a)
            flat.append(a)
    for a in flat:
        if isinstance(a, Not) and a.arg in seen:
            return FALSE
    if not flat:
        return TRUE
    if len(flat) == 1:
        return flat[0]
    return And(tuple(flat))


def or_(*args: Term | Iterable[Term]) -> Term:
    flat: list[Term] = []
    seen: set[Term] = set()
    for a in _flatten_args(args):
        if a is TRUE:
            return TRUE
        if a is FALSE:
            continue
        if isinstance(a, Or):
            for sub in a.args:
                if sub is TRUE:
                    return TRUE
                if sub is not FALSE and sub not in seen:
                    seen.add(sub)
                    flat.append(sub)
            continue
        if a not in seen:
            seen.add(a)
            flat.append(a)
    for a in flat:
        if isinstance(a, Not) and a.arg in seen:
            return TRUE
    if not flat:
        return FALSE
    if len(flat) == 1:
        return flat[0]
    return Or(tuple(flat))


def _flatten_args(args) -> Iterable[Term]:
    for a in args:
        if isinstance(a, Term):
            yield a
        else:
            yield from a


def implies(a: Term, b: Term) -> Term:
    return or_(not_(a), b)


def iff(a: Term, b: Term) -> Term:
    if a is b:
        return TRUE
    if a is TRUE:
        return b
    if b is TRUE:
        return a
    if a is FALSE:
        return not_(b)
    if b is FALSE:
        return not_(a)
    return and_(implies(a, b), implies(b, a))


def ite(cond: Term, then: Term, els: Term) -> Term:
    """If-then-else over either sort, with folding on constant conditions."""
    if cond is TRUE:
        return then
    if cond is FALSE:
        return els
    if then is els:
        return then
    if then.is_bool:
        if then is TRUE and els is FALSE:
            return cond
        if then is FALSE and els is TRUE:
            return not_(cond)
        if then is TRUE:
            return or_(cond, els)
        if then is FALSE:
            return and_(not_(cond), els)
        if els is TRUE:
            return or_(not_(cond), then)
        if els is FALSE:
            return and_(cond, then)
        return Ite(cond, then, els)
    return BvIte(cond, then, els)


def bv_var(name: str, width: int) -> Term:
    return BvVar(name, width)


def bv_const(value: int, width: int) -> Term:
    return BvConst(value, width)


def bv_eq(a: Term, b: Term) -> Term:
    if a is b:
        return TRUE
    if isinstance(a, BvConst) and isinstance(b, BvConst):
        return TRUE if a.value == b.value else FALSE
    return BvEq(a, b)


def bv_ult(a: Term, b: Term) -> Term:
    if a is b:
        return FALSE
    if isinstance(a, BvConst) and isinstance(b, BvConst):
        return TRUE if a.value < b.value else FALSE
    if isinstance(b, BvConst) and b.value == 0:
        return FALSE
    return BvUlt(a, b)


def bv_ule(a: Term, b: Term) -> Term:
    if a is b:
        return TRUE
    if isinstance(a, BvConst) and isinstance(b, BvConst):
        return TRUE if a.value <= b.value else FALSE
    if isinstance(a, BvConst) and a.value == 0:
        return TRUE
    if isinstance(b, BvConst) and b.value == (1 << b.width) - 1:
        return TRUE
    return BvUle(a, b)


def bv_and(a: Term, b: Term) -> Term:
    if isinstance(a, BvConst) and isinstance(b, BvConst):
        return BvConst(a.value & b.value, a.width)
    if isinstance(a, BvConst):
        a, b = b, a
    if isinstance(b, BvConst):
        if b.value == 0:
            return b
        if b.value == (1 << b.width) - 1:
            return a
    return BvAnd(a, b)


def bv_add(a: Term, b: Term) -> Term:
    if isinstance(a, BvConst) and isinstance(b, BvConst):
        return BvConst(a.value + b.value, a.width)
    if isinstance(a, BvConst) and a.value == 0:
        return b
    if isinstance(b, BvConst) and b.value == 0:
        return a
    return BvAdd(a, b)
