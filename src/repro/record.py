"""Value classes without per-class code generation.

A :class:`Record` subclass lists its fields as class annotations, in
order, after those of a record base; a class attribute of the same name
is the field's default, and a ``ClassVar`` annotation is not a field.
The base supplies what ``@dataclass`` would generate, with no source
compiled per class: an ``__init__`` taking the fields by position or by
name (then ``__post_init__``, when the class has one), ``==`` between two
instances of one class with equal fields, and the dataclass ``repr``.  A
record is mutable and unhashable.  The class keyword ``order=True`` adds
``<``, ``<=``, ``>`` and ``>=`` on the field tuples.

An instance's ``__dict__`` holds its fields and nothing else, in field
order, as a dataclass instance's does: pickles and ``repr`` are the
dataclass ones, and ``==`` compares the two dicts.  A class that memoises
on its instances keeps the memo in ``__slots__``.

A :class:`Value` is a frozen record.  Assignment raises, and its hash is
that of its field tuple, computed on first use and kept in a slot, so it
is never pickled or copied and a value loaded under another
``PYTHONHASHSEED`` hashes afresh.

A mutable default (an empty ``list``, ``dict`` or ``set``, or a mutable
record built without arguments) is rebuilt from its type for each
instance.  The generic ``__init__`` loops over the fields; a class built
many times per run defines its own positional one.
"""

from __future__ import annotations

import operator
from operator import attrgetter
from typing import Any, Callable, TypeVar, dataclass_transform

_R = TypeVar("_R", bound="Record")
_setattr = object.__setattr__


class FrozenInstanceError(AttributeError):
    """Assignment to a field of a :class:`Value`."""


def _field_tuple(names: tuple[str, ...]) -> Callable[[Any], tuple]:
    if len(names) > 1:
        return attrgetter(*names)
    get = attrgetter(*names) if names else None
    return lambda record: (get(record),) if get else ()


def _ordering(op: Callable[[Any, Any], bool]) -> Callable[[Any, Any], Any]:
    def compare(self: Any, other: Any) -> Any:
        if other.__class__ is self.__class__:
            return op(self._values(self), self._values(other))
        return NotImplemented

    compare.__name__ = f"__{op.__name__}__"
    return compare


@dataclass_transform()
class Record:
    """A mutable, unhashable record of named fields."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict[str, Any] = {}
    _factories: dict[str, type] = {}
    _post_init: Callable[[Any], None] | None = None
    _values: Callable[[Any], tuple]

    def __init_subclass__(cls, order: bool = False, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        names = list(cls._fields)
        defaults = dict(cls._defaults)
        for name, annotation in vars(cls).get("__annotations__", {}).items():
            if str(annotation).startswith(("ClassVar", "typing.ClassVar")):
                continue
            if name not in names:
                names.append(name)
            if name in vars(cls):
                defaults[name] = vars(cls)[name]
        cls._fields = tuple(names)
        cls._defaults = defaults
        cls._factories = {
            name: type(default)
            for name, default in defaults.items()
            if isinstance(default, (list, dict, set, Record)) and not isinstance(default, Value)
        }
        cls._post_init = getattr(cls, "__post_init__", None)
        cls._values = staticmethod(_field_tuple(cls._fields))  # type: ignore[assignment]
        if order:
            for op in (operator.lt, operator.le, operator.gt, operator.ge):
                setattr(cls, f"__{op.__name__}__", _ordering(op))

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        cls = type(self)
        names = cls._fields
        if len(args) > len(names):
            raise TypeError(
                f"{cls.__name__}() takes {len(names)} positional arguments but {len(args)} were given"
            )
        for name, value in zip(names, args):
            _setattr(self, name, value)
        for name in names[len(args) :]:
            if name in kwargs:
                value = kwargs.pop(name)
            elif name in cls._factories:
                value = cls._factories[name]()
            elif name in cls._defaults:
                value = cls._defaults[name]
            else:
                raise TypeError(f"{cls.__name__}() missing required argument {name!r}")
            _setattr(self, name, value)
        if kwargs:
            raise TypeError(f"{cls.__name__}() got an unexpected argument {next(iter(kwargs))!r}")
        if cls._post_init is not None:
            cls._post_init(self)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.__dict__ == other.__dict__
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"


@dataclass_transform(frozen_default=True)
class Value(Record):
    """A frozen record, hashed once."""

    __slots__ = ("_hash",)

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        kept: int | None = getattr(self, "_hash", None)
        if kept is None:
            kept = hash(self._values(self))
            _setattr(self, "_hash", kept)
        return kept

    def __getstate__(self) -> object:
        return self.__dict__ or None


def values(record: Record) -> tuple:
    """The field values of a record, in field order."""
    return record._values(record)


def fields(record: Record | type[Record]) -> tuple[str, ...]:
    """The field names of a record or record class, in order."""
    return record._fields


def defaults(cls: type[Record]) -> dict[str, Any]:
    """The fields of ``cls`` that have a default, with the default."""
    return dict(cls._defaults)


def replace(record: _R, **changes: Any) -> _R:
    """A new record of ``record``'s class: its fields, then ``changes``."""
    args = [changes.pop(name) if name in changes else getattr(record, name) for name in record._fields]
    if changes:
        raise TypeError(f"{type(record).__name__} has no field {next(iter(changes))!r}")
    return type(record)(*args)
