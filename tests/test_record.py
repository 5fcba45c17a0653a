"""The record base: every value class of ``repro`` behaves as the
``@dataclass`` it replaced, and a value hashes once.

One table row per record class in ``src/repro`` (found by walking the
package, so a new class gets a row without a edit here): ``repr`` is the
dataclass format, ``==`` needs the same class, a mutable record is
unhashable, a frozen one refuses assignment, and a pickle round trip
gives an equal object.

Predicates, attribute universes and route maps key the lang-layer memos
(``predicate_term``, ``SymbolicRoute.fresh``, ``intern_route_map``), so a
:class:`repro.record.Value` keeps its hash after the first ``hash()``.
The kept hash is invisible everywhere else: pickles, copies, ``replace``,
and a process running under another ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import copy
import dataclasses
import importlib
import os
import pickle
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.bgp.policy import (
    AddCommunity,
    Disposition,
    RouteMap,
    RouteMapClause,
    SetOrigin,
)
from repro.bgp.prefix import Prefix, PrefixRange
from repro.bgp.route import Community, Route
from repro.core.properties import LivenessProperty
from repro.core.report import GroupOutcomes
from repro.lang.predicates import (
    AllOf,
    AnyOf,
    AsPathHas,
    GhostIs,
    HasCommunity,
    Implies,
    NextHopIn,
    Not,
    PrefixIn,
    TruePred,
)
from repro.lang.symroute import SymbolicRoute
from repro.lang.universe import AttributeUniverse
from repro.record import FrozenInstanceError, Record, Value, fields, replace, values

ROOT = Path(__file__).resolve().parents[1]
KINDS = ["predicate", "route-map", "universe", "fieldless"]


def build() -> list:
    """One nested value of each hash-once kind, with seed-dependent strings."""
    return [
        Implies(GhostIs("FromPeer"), AllOf((HasCommunity(Community(100, 1)), Not(AsPathHas(7))))),
        RouteMap("PEER-IN", (
            RouteMapClause(10, Disposition.DENY, matches=(HasCommunity(Community(1, 2)),)),
            RouteMapClause(20, actions=(AddCommunity(Community(100, 1)),)),
        )),
        AttributeUniverse((Community(100, 1),), (7, 65000), ("FromPeer", "FromRegion0")),
        TruePred(),
    ]  # fmt: skip


# ---------------------------------------------------------------------------
# One row per record class
# ---------------------------------------------------------------------------


def _record_classes() -> list[type]:
    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(module.name)
    found, todo = [], [Record]
    while todo:
        cls = todo.pop()
        todo += cls.__subclasses__()
        if cls.__module__.startswith("repro.") and cls.__module__ != "repro.record":
            found.append(cls)
    return sorted(found, key=lambda cls: (cls.__module__, cls.__qualname__))


_P = Prefix.parse("10.0.0.0/8")
# The classes whose ``__post_init__`` (or own ``__init__``) reads its
# fields; every other class is built from one string per field.
SAMPLES = {
    Prefix: lambda: _P,
    PrefixRange: lambda: PrefixRange(_P, 8, 24),
    Community: lambda: Community(100, 1),
    Route: lambda: Route(_P, (1, 2), communities={Community(1, 1)}, ghost={"G": True}),
    SetOrigin: lambda: SetOrigin(2),
    RouteMapClause: lambda: RouteMapClause(10, matches=[TruePred()]),
    RouteMap: lambda: RouteMap("M", [RouteMapClause(10)]),
    AttributeUniverse: lambda: AttributeUniverse((Community(1, 1),), (5,), ("G",)),
    PrefixIn: lambda: PrefixIn([PrefixRange(_P, 8, 24)]),
    NextHopIn: lambda: NextHopIn([_P]),
    AllOf: lambda: AllOf([TruePred()]),
    AnyOf: lambda: AnyOf([TruePred()]),
    LivenessProperty: lambda: LivenessProperty("R1", TruePred(), ["R1"], [TruePred()]),
    # Pickles its checks only when it kept every outcome, and never the
    # callback that regenerates them.
    GroupOutcomes: lambda: GroupOutcomes([], {}, 0, 0, 0, 0.0, 0.0, checks=[]),
}
RECORDS = _record_classes()


def sample(cls: type) -> Record:
    if cls in SAMPLES:
        return SAMPLES[cls]()
    return cls(*(f"{name}-value" for name in fields(cls)))


def _twin(record: Record):
    """The ``@dataclass`` the record's class was, holding its fields."""
    cls = type(record)
    twin = dataclasses.make_dataclass(cls.__name__, fields(cls), frozen=isinstance(record, Value))
    twin.__qualname__ = cls.__qualname__
    made = object.__new__(twin)
    made.__dict__.update(vars(record))
    return made


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__qualname__)
def test_a_record_behaves_as_its_dataclass(cls):
    record = sample(cls)
    twin = _twin(record)
    assert list(vars(record)) == list(fields(cls))
    if cls.__repr__ is Record.__repr__:
        assert repr(record) == repr(twin)
    base = Value if isinstance(record, Value) else Record
    other = type(cls.__name__, (base,), {"__annotations__": dict.fromkeys(fields(cls), "object")})
    stranger = other(*values(record))
    assert record != stranger and stranger != record
    assert record == sample(cls)
    if isinstance(record, Value):
        with pytest.raises(FrozenInstanceError):
            setattr(record, (fields(cls) or ("x",))[0], None)
        if all(type(v).__hash__ is not None for v in values(record)):
            assert hash(record) == hash(twin) == hash(values(record))
    else:
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)
    assert pickle.loads(pickle.dumps(record)) == record


def test_every_value_class_is_a_record():
    # 62 ``@dataclass`` classes became records, and so did the two empty
    # bases (``Action``, ``Predicate``) that were plain classes.
    assert len(RECORDS) == 64


def test_the_generic_init_takes_positions_names_and_defaults():
    route = Route(_P, as_path=[3])
    assert list(vars(route)) == list(fields(Route)) and route.as_path == (3,)
    assert Route(_P).ghost is not Route(_P).ghost  # a fresh dict per instance
    with pytest.raises(TypeError, match="missing required argument 'asn'"):
        Community(value=1)
    with pytest.raises(TypeError, match="unexpected argument 'colour'"):
        Community(1, 2, colour=3)
    with pytest.raises(TypeError, match="takes 2 positional arguments but 3"):
        Community(1, 2, 3)
    with pytest.raises(TypeError, match="no field 'colour'"):
        replace(Community(1, 2), colour=3)
    assert sorted([Community(2, 1), Community(1, 9)]) == [Community(1, 9), Community(2, 1)]
    assert Route.__lt__ is object.__lt__


# ---------------------------------------------------------------------------
# A value hashes once; the hash is never pickled
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("value", build(), ids=KINDS)
def test_pickle_is_the_same_before_and_after_hashing(value):
    before = pickle.dumps(value, protocol=5)
    hash(value)
    assert value._hash == hash(values(value)) and "_hash" not in vars(value)
    assert pickle.dumps(value, protocol=5) == before
    assert not hasattr(pickle.loads(before), "_hash")


@pytest.mark.parametrize("value, fresh", zip(build(), build()), ids=KINDS)
def test_the_stored_hash_is_the_field_tuple_hash(value, fresh):
    assert hash(value) == hash(value) == hash(fresh) == hash(_twin(fresh))
    assert value == fresh and repr(value) == repr(fresh)
    assert fields(value) == fields(fresh)


@pytest.mark.parametrize("value", build(), ids=KINDS)
def test_copies_carry_no_stored_hash(value):
    hash(value)
    for duplicate in (copy.copy(value), copy.deepcopy(value)):
        assert duplicate == value
        assert not hasattr(duplicate, "_hash")
        assert hash(duplicate) == hash(value)


@pytest.mark.parametrize(
    "value, change",
    [
        (HasCommunity(Community(100, 1)), {"community": Community(200, 2)}),
        (RouteMap("A", (RouteMapClause(10),)), {"name": "B"}),
        (AttributeUniverse((), (1,), ("G",)), {"ghosts": ("H",)}),
    ],
    ids=KINDS[:3],
)
def test_replace_hashes_the_new_value(value, change):
    hash(value)
    updated = replace(value, **change)
    assert not hasattr(updated, "_hash")
    named = {name: getattr(value, name) for name in fields(value)}
    assert hash(updated) == hash(type(value)(**{**named, **change}))
    assert updated != value


def test_a_symbolic_route_keeps_its_memos_out_of_its_fields():
    route = SymbolicRoute.fresh("r", AttributeUniverse((Community(1, 1),), (5,), ("G",)))
    route.instance_token(), route.well_formed()
    assert list(vars(route)) == list(fields(SymbolicRoute))
    assert replace(route) == route


_WRITE = """
import pickle, sys
from tests.test_record import build
values = build()
for value in values:
    hash(value)
sys.stdout.buffer.write(pickle.dumps(values))
"""

_READ = """
import pickle, sys
from tests.test_record import build
loaded = pickle.loads(sys.stdin.buffer.read())
for value, fresh in zip(loaded, build()):
    assert not hasattr(value, "_hash"), type(value)
    assert {fresh: "found"}[value] == "found", type(value)
    assert {value: "found"}[fresh] == "found", type(value)
print("ok", len(loaded))
"""


def _run(script: str, hash_seed: str, stdin: bytes = b"") -> bytes:
    path = os.pathsep.join((str(ROOT / "src"), str(ROOT)))
    env = {**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": hash_seed}
    done = subprocess.run(
        [sys.executable, "-c", script], input=stdin, env=env,
        capture_output=True, check=True, timeout=60,
    )  # fmt: skip
    return done.stdout


def test_a_pickle_from_another_hash_seed_finds_its_dict_entry():
    written = _run(_WRITE, "0")
    assert _run(_READ, "1", written).split() == [b"ok", b"4"]
