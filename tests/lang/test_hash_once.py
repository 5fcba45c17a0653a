"""A value used as a memo key hashes once; the hash is never pickled.

Predicates, attribute universes and route maps key the lang-layer memos
(``predicate_term``, ``SymbolicRoute.fresh``, ``intern_route_map``), so
:func:`repro.bgp.route.hash_once` stores each one's dataclass hash on the
instance after the first ``hash()``.  These tests pin that the stored hash
is invisible everywhere else: pickles, copies, functional updates, and a
process running under another ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import copy
import dataclasses
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro.bgp.policy import (
    AddCommunity,
    Disposition,
    RouteMap,
    RouteMapClause,
)
from repro.bgp.route import Community
from repro.lang.predicates import (
    AllOf,
    AsPathHas,
    GhostIs,
    HasCommunity,
    Implies,
    Not,
    TruePred,
)
from repro.lang.symroute import SymbolicRoute
from repro.lang.universe import AttributeUniverse

ROOT = Path(__file__).resolve().parents[2]
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


@pytest.mark.parametrize("value", build(), ids=KINDS)
def test_pickle_is_the_same_before_and_after_hashing(value):
    before = pickle.dumps(value, protocol=5)
    hash(value)
    assert "_hash" in vars(value)
    assert pickle.dumps(value, protocol=5) == before
    assert "_hash" not in vars(pickle.loads(before))


@pytest.mark.parametrize("value, fresh", zip(build(), build()), ids=KINDS)
def test_the_stored_hash_is_the_generated_one(value, fresh):
    assert hash(value) == hash(value) == hash(fresh)
    assert value == fresh and repr(value) == repr(fresh)
    assert dataclasses.fields(value) == dataclasses.fields(fresh)


@pytest.mark.parametrize("value", build(), ids=KINDS)
def test_copies_carry_no_stored_hash(value):
    hash(value)
    for duplicate in (copy.copy(value), copy.deepcopy(value)):
        assert duplicate == value
        assert "_hash" not in vars(duplicate)
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
    updated = dataclasses.replace(value, **change)
    assert "_hash" not in vars(updated)
    fields = {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
    assert hash(updated) == hash(type(value)(**{**fields, **change}))
    assert updated != value


_WRITE = """
import pickle, sys
from tests.lang.test_hash_once import build
values = build()
for value in values:
    hash(value)
sys.stdout.buffer.write(pickle.dumps(values))
"""

_READ = """
import pickle, sys
from tests.lang.test_hash_once import build
loaded = pickle.loads(sys.stdin.buffer.read())
for value, fresh in zip(loaded, build()):
    assert "_hash" not in vars(value), type(value)
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


def test_symbolic_route_membership_errors_are_the_universe_errors():
    # The field dicts answer membership; a miss must still raise the
    # universe's own message, word for word.
    route = SymbolicRoute.fresh("r", AttributeUniverse((Community(1, 1),), (5,), ("G",)))
    value = route.ghosts["G"]
    empty = AttributeUniverse((), (), ())
    cases = [
        (lambda: route.community_term(Community(9, 9)), lambda: empty.require_community(Community(9, 9))),
        (lambda: route.with_community(Community(9, 9), value), lambda: empty.require_community(Community(9, 9))),
        (lambda: route.as_path_member_term(6), lambda: empty.require_asn(6)),
        (lambda: route.with_as_path_member(6, value), lambda: empty.require_asn(6)),
        (lambda: route.ghost_term("H"), lambda: empty.require_ghost("H")),
        (lambda: route.with_ghost("H", value), lambda: empty.require_ghost("H")),
    ]  # fmt: skip
    for call, reference in cases:
        with pytest.raises(KeyError) as got:
            call()
        with pytest.raises(KeyError) as expected:
            reference()
        assert str(got.value) == str(expected.value)
    assert route.community_term(Community(1, 1)) is route.communities[Community(1, 1)]
    assert route.as_path_member_term(5) is route.as_path_members[5]
    assert route.ghost_term("G") is route.ghosts["G"]
