"""Immutable, hash-consed term AST for the SMT layer.

Two sorts exist: ``BOOL`` and ``BitVecSort(width)``.  Terms are built through
the smart constructors at the bottom of this module (``and_``, ``bv_eq``,
...), which perform light constant folding and flattening so that downstream
encoders see smaller DAGs.  Structural sharing matters: identical subterms are
interned so the encoder (:mod:`repro.smt.encode`) can memoise on object
identity.
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

_INTERN: dict[tuple, "Term"] = {}


def _intern(key: tuple, build) -> "Term":
    term = _INTERN.get(key)
    if term is None:
        term = build()
        _INTERN[key] = term
    return term


_intern_dependents: list = []


def register_intern_dependent(clear_fn) -> None:
    """Register a cache-clearing callback tied to the intern table's lifetime.

    Caches that rely on term identity (e.g. the shared symbolic-route cache)
    must be dropped together with the intern table, or stale instances would
    stop comparing equal to newly built terms.
    """
    _intern_dependents.append(clear_fn)


def clear_intern_cache() -> None:
    """Drop the global intern table (used by long-running benchmarks)."""
    _INTERN.clear()
    for clear_fn in _intern_dependents:
        clear_fn()


class Term:
    """Base class of all terms.  Instances are immutable and interned.

    Construction happens entirely inside each subclass ``__new__`` (so that
    interning can return an existing instance); ``__init__`` must therefore
    ignore the constructor arguments Python re-passes to it.
    """

    __slots__ = ("sort", "_hash")

    def __init__(self, *args: object, **kwargs: object):
        pass

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

    # Interned terms compare by identity, which is what dict/memo users want.
    def __eq__(self, other: object) -> bool:
        return self is other

    def __hash__(self) -> int:
        return object.__getattribute__(self, "_hash")

    def children(self) -> tuple["Term", ...]:
        return ()


def _finish(term: Term, h: int) -> Term:
    object.__setattr__(term, "_hash", h)
    return term


# ---------------------------------------------------------------------------
# Boolean terms
# ---------------------------------------------------------------------------


class BoolConst(Term):
    __slots__ = ("value",)

    def __new__(cls, value: bool):
        def build():
            t = object.__new__(cls)
            object.__setattr__(t, "sort", BOOL)
            object.__setattr__(t, "value", bool(value))
            return _finish(t, hash(("BoolConst", value)))

        return _intern(("BoolConst", bool(value)), build)

    def __repr__(self) -> str:
        return "true" if self.value else "false"


TRUE = BoolConst(True)
FALSE = BoolConst(False)


class BoolVar(Term):
    __slots__ = ("name",)

    def __new__(cls, name: str):
        def build():
            t = object.__new__(cls)
            object.__setattr__(t, "sort", BOOL)
            object.__setattr__(t, "name", name)
            return _finish(t, hash(("BoolVar", name)))

        return _intern(("BoolVar", name), build)

    def __repr__(self) -> str:
        return self.name


# repro: ignore[pickle-safety] -- name collision with predicates.Not; terms are interned per-process and never ride in worker payloads or the workspace cache
class Not(Term):
    __slots__ = ("arg",)

    def __new__(cls, arg: Term):
        def build():
            t = object.__new__(cls)
            object.__setattr__(t, "sort", BOOL)
            object.__setattr__(t, "arg", arg)
            return _finish(t, hash(("Not", arg)))

        return _intern(("Not", arg), build)

    def children(self) -> tuple[Term, ...]:
        return (self.arg,)

    def __repr__(self) -> str:
        return f"(not {self.arg!r})"


class _NaryBool(Term):
    __slots__ = ("args",)
    _op = "?"

    def __new__(cls, args: tuple[Term, ...]):
        def build():
            t = object.__new__(cls)
            object.__setattr__(t, "sort", BOOL)
            object.__setattr__(t, "args", args)
            return _finish(t, hash((cls._op, args)))

        return _intern((cls._op, args), build)

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
        def build():
            t = object.__new__(cls)
            object.__setattr__(t, "sort", BOOL)
            object.__setattr__(t, "cond", cond)
            object.__setattr__(t, "then", then)
            object.__setattr__(t, "els", els)
            return _finish(t, hash(("Ite", cond, then, els)))

        return _intern(("Ite", cond, then, els), build)

    def children(self) -> tuple[Term, ...]:
        return (self.cond, self.then, self.els)

    def __repr__(self) -> str:
        return f"(ite {self.cond!r} {self.then!r} {self.els!r})"


# ---------------------------------------------------------------------------
# Bit-vector terms
# ---------------------------------------------------------------------------


class BvVar(Term):
    __slots__ = ("name",)

    def __new__(cls, name: str, width: int):
        def build():
            t = object.__new__(cls)
            object.__setattr__(t, "sort", BitVecSort(width))
            object.__setattr__(t, "name", name)
            return _finish(t, hash(("BvVar", name, width)))

        return _intern(("BvVar", name, width), build)

    def __repr__(self) -> str:
        return f"{self.name}[{self.width}]"


class BvConst(Term):
    __slots__ = ("value",)

    def __new__(cls, value: int, width: int):
        value = value & ((1 << width) - 1)

        def build():
            t = object.__new__(cls)
            object.__setattr__(t, "sort", BitVecSort(width))
            object.__setattr__(t, "value", value)
            return _finish(t, hash(("BvConst", value, width)))

        return _intern(("BvConst", value, width), build)

    def __repr__(self) -> str:
        return f"#{self.value:#x}[{self.width}]"


class _BinBoolFromBv(Term):
    """Boolean-sorted relation between two bit-vectors."""

    __slots__ = ("lhs", "rhs")
    _op = "?"

    def __new__(cls, lhs: Term, rhs: Term):
        if lhs.width != rhs.width:
            raise TypeError(f"width mismatch: {lhs!r} vs {rhs!r}")

        def build():
            t = object.__new__(cls)
            object.__setattr__(t, "sort", BOOL)
            object.__setattr__(t, "lhs", lhs)
            object.__setattr__(t, "rhs", rhs)
            return _finish(t, hash((cls._op, lhs, rhs)))

        return _intern((cls._op, lhs, rhs), build)

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
        if lhs.width != rhs.width:
            raise TypeError(f"width mismatch: {lhs!r} vs {rhs!r}")

        def build():
            t = object.__new__(cls)
            object.__setattr__(t, "sort", BitVecSort(lhs.width))
            object.__setattr__(t, "lhs", lhs)
            object.__setattr__(t, "rhs", rhs)
            return _finish(t, hash((cls._op, lhs, rhs)))

        return _intern((cls._op, lhs, rhs), build)

    def children(self) -> tuple[Term, ...]:
        return (self.lhs, self.rhs)

    def __repr__(self) -> str:
        return f"({self._op} {self.lhs!r} {self.rhs!r})"


class BvAnd(_BinBv):
    __slots__ = ()
    _op = "bvand"


class BvOr(_BinBv):
    __slots__ = ()
    _op = "bvor"


class BvXor(_BinBv):
    __slots__ = ()
    _op = "bvxor"


class BvAdd(_BinBv):
    __slots__ = ()
    _op = "bvadd"


class BvNot(Term):
    __slots__ = ("arg",)

    def __new__(cls, arg: Term):
        def build():
            t = object.__new__(cls)
            object.__setattr__(t, "sort", BitVecSort(arg.width))
            object.__setattr__(t, "arg", arg)
            return _finish(t, hash(("bvnot", arg)))

        return _intern(("bvnot", arg), build)

    def children(self) -> tuple[Term, ...]:
        return (self.arg,)

    def __repr__(self) -> str:
        return f"(bvnot {self.arg!r})"


class BvIte(Term):
    __slots__ = ("cond", "then", "els")

    def __new__(cls, cond: Term, then: Term, els: Term):
        if then.width != els.width:
            raise TypeError(f"width mismatch: {then!r} vs {els!r}")

        def build():
            t = object.__new__(cls)
            object.__setattr__(t, "sort", BitVecSort(then.width))
            object.__setattr__(t, "cond", cond)
            object.__setattr__(t, "then", then)
            object.__setattr__(t, "els", els)
            return _finish(t, hash(("bvite", cond, then, els)))

        return _intern(("bvite", cond, then, els), build)

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
        if not_(a) in seen:
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
        if not_(a) in seen:
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


def xor(a: Term, b: Term) -> Term:
    return not_(iff(a, b))


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


def bv_ne(a: Term, b: Term) -> Term:
    return not_(bv_eq(a, b))


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


def bv_ugt(a: Term, b: Term) -> Term:
    return bv_ult(b, a)


def bv_uge(a: Term, b: Term) -> Term:
    return bv_ule(b, a)


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


def bv_or(a: Term, b: Term) -> Term:
    if isinstance(a, BvConst) and isinstance(b, BvConst):
        return BvConst(a.value | b.value, a.width)
    if isinstance(a, BvConst):
        a, b = b, a
    if isinstance(b, BvConst):
        if b.value == 0:
            return a
        if b.value == (1 << b.width) - 1:
            return b
    return BvOr(a, b)


def bv_xor(a: Term, b: Term) -> Term:
    if isinstance(a, BvConst) and isinstance(b, BvConst):
        return BvConst(a.value ^ b.value, a.width)
    return BvXor(a, b)


def bv_not(a: Term) -> Term:
    if isinstance(a, BvConst):
        return BvConst(~a.value, a.width)
    if isinstance(a, BvNot):
        return a.arg
    return BvNot(a)


def bv_add(a: Term, b: Term) -> Term:
    if isinstance(a, BvConst) and isinstance(b, BvConst):
        return BvConst(a.value + b.value, a.width)
    if isinstance(a, BvConst) and a.value == 0:
        return b
    if isinstance(b, BvConst) and b.value == 0:
        return a
    return BvAdd(a, b)


def bv_ite(cond: Term, then: Term, els: Term) -> Term:
    return ite(cond, then, els)


def term_size(term: Term) -> int:
    """Number of distinct nodes in the DAG rooted at ``term``."""
    seen: set[Term] = set()
    stack = [term]
    while stack:
        t = stack.pop()
        if t in seen:
            continue
        seen.add(t)
        stack.extend(t.children())
    return len(seen)
