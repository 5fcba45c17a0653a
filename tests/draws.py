"""Seeded random inputs: one generator over the whole policy vocabulary.

Every randomized test in the suite draws here, from a ``random.Random``
its cell seeds, so a failing cell names its input by seed and reruns it
exactly.  One predicate draw serves two vocabularies: a route map's
conditions (:func:`condition`: the kinds a configuration admits, nested
``Not``/``AnyOf``/``AllOf`` included) and a spec's predicates
(:func:`predicate`: every kind).  Draws reach every ``Action`` kind and
every term node the encoder has (``tests/lang/test_transfer.py`` and
``tests/smt/test_encode.py`` fail unless the seeds their differential
cells run draw each one).

Values come from one small vocabulary, so a symbolic route over
:data:`UNIVERSE` can encode whatever a draw mentions, and route values
and the bounds that test them come from the same ranges, so both sides
of a bound are drawn.
"""

from __future__ import annotations

import random
from typing import Any, Callable

from repro.bgp.policy import (
    AddCommunity,
    ClearCommunities,
    DeleteCommunity,
    Disposition,
    PrependAsPath,
    RouteMap,
    RouteMapClause,
    SetLocalPref,
    SetMed,
    SetNextHop,
    SetOrigin,
)
from repro.bgp.prefix import Prefix, PrefixRange, parse_ipv4
from repro.bgp.route import Community, Route
from repro.lang import predicates as P
from repro.lang.universe import AttributeUniverse
from repro.record import Record, fields
from repro.smt import terms as T

COMMUNITIES = (Community(100, 1), Community(7, 7), Community(65535, 0))
ASNS = (100, 300, 666, 65000)
OUTSIDE_ASN = 7018  # on AS paths only: the symbolic length must count it
GHOSTS = ("FromISP1", "FromRegion")
UNIVERSE = AttributeUniverse(COMMUNITIES, ASNS, GHOSTS)

BASES = tuple(map(Prefix.parse, ("0.0.0.0/0", "10.0.0.0/8", "10.1.0.0/16", "192.168.0.0/16")))
NEXT_HOPS = (0, parse_ipv4("10.9.9.9"), parse_ipv4("172.16.0.1"), 0xFFFFFFFF)
LOCAL_PREF_TOP, MED_TOP, PATH_TOP = 400, 100, 5


def _value(rng: random.Random, top: int) -> int:
    """Uniform on ``[0, top]`` a third of the time, else one of a few
    points every draw shares, so a value often sits exactly on a bound."""
    return rng.randint(0, top) if rng.random() < 1 / 3 else rng.choice((0, 1, top // 2, top))


def _bounds(rng: random.Random, top: int) -> tuple[int, int]:
    low, high = sorted((_value(rng, top), _value(rng, top)))
    return low, high


def community(rng: random.Random) -> Community:
    return rng.choice(COMMUNITIES)


def prefix(rng: random.Random) -> Prefix:
    """Under one of :data:`BASES` half the time, so draws nest and overlap."""
    base = rng.choice(BASES) if rng.random() < 0.5 else BASES[0]
    length = rng.randint(base.length, 32)
    return Prefix(base.address | (rng.getrandbits(32) & ~base.mask), length)


def prefix_range(rng: random.Random) -> PrefixRange:
    base = rng.choice(BASES) if rng.random() < 0.5 else prefix(rng)
    low = rng.randint(base.length, 32)
    return PrefixRange(base, low, rng.randint(low, 32))


def next_hop_prefix(rng: random.Random) -> Prefix:
    """A prefix around one of :data:`NEXT_HOPS`: it holds that hop and,
    when short, others."""
    return Prefix(rng.choice(NEXT_HOPS), rng.randint(0, 32))


def _some(rng: random.Random, draw: Callable[[random.Random], Any], low: int, high: int) -> tuple:
    return tuple(draw(rng) for __ in range(rng.randint(low, high)))


def route(rng: random.Random, ghosts: tuple[str, ...] = GHOSTS) -> Route:
    """A route over the vocabulary, with a value for each of ``ghosts``."""
    return Route(
        prefix=prefix(rng),
        as_path=_some(rng, lambda r: r.choice(ASNS + (OUTSIDE_ASN,)), 0, 3),
        next_hop=rng.choice(NEXT_HOPS) if rng.random() < 0.8 else rng.getrandbits(32),
        local_pref=_value(rng, LOCAL_PREF_TOP),
        med=_value(rng, MED_TOP),
        communities=frozenset(c for c in COMMUNITIES if rng.random() < 0.5),
        origin=rng.randint(0, 2),
        ghost={g: rng.random() < 0.5 for g in ghosts},
    )


# ---------------------------------------------------------------------------
# Route maps
# ---------------------------------------------------------------------------

_ACTIONS: tuple[Callable[[random.Random], Any], ...] = (
    lambda rng: SetLocalPref(_value(rng, LOCAL_PREF_TOP)),
    lambda rng: SetMed(_value(rng, MED_TOP)),
    lambda rng: SetNextHop(rng.choice(NEXT_HOPS)),
    lambda rng: AddCommunity(community(rng)),
    lambda rng: DeleteCommunity(community(rng)),
    lambda rng: ClearCommunities(),
    lambda rng: PrependAsPath(rng.choice(ASNS), rng.randint(1, 3)),
    lambda rng: SetOrigin(rng.randint(0, 2)),
)


def action(rng: random.Random):
    return rng.choice(_ACTIONS)(rng)


def route_map(rng: random.Random, name: str = "RAND") -> RouteMap:
    """0–4 clauses (none denies everything); a deny carries no actions."""
    clauses = []
    for i in range(rng.randint(0, 4)):
        seq, matches = (i + 1) * 10, _some(rng, condition, 0, 2)
        if rng.random() < 0.3:
            clauses.append(RouteMapClause(seq, Disposition.DENY, matches))
        else:
            actions = _some(rng, action, 0, 3)
            clauses.append(RouteMapClause(seq, Disposition.PERMIT, matches, actions))
    return RouteMap(name, tuple(clauses))


# ---------------------------------------------------------------------------
# Predicates
# ---------------------------------------------------------------------------

#: How each leaf kind is drawn.
_LEAVES: dict[type, Callable[[random.Random], P.Predicate]] = {
    P.TruePred: lambda rng: P.TruePred(),
    P.FalsePred: lambda rng: P.FalsePred(),
    P.HasCommunity: lambda rng: P.HasCommunity(community(rng)),
    P.PrefixIn: lambda rng: P.PrefixIn(_some(rng, prefix_range, 1, 2)),
    P.GhostIs: lambda rng: P.GhostIs(rng.choice(GHOSTS), rng.random() < 0.5),
    P.AsPathHas: lambda rng: P.AsPathHas(rng.choice(ASNS)),
    P.LocalPrefIn: lambda rng: P.LocalPrefIn(*_bounds(rng, LOCAL_PREF_TOP)),
    P.MedIn: lambda rng: P.MedIn(*_bounds(rng, MED_TOP)),
    P.AsPathLenIn: lambda rng: P.AsPathLenIn(*_bounds(rng, PATH_TOP)),
    P.OriginIs: lambda rng: P.OriginIs(rng.randint(0, 2)),
    P.NextHopIn: lambda rng: P.NextHopIn(_some(rng, next_hop_prefix, 1, 2)),
}
#: How each combinator draws its operands (``inner`` draws one).
_COMBINATORS: dict[type, Callable[..., P.Predicate]] = {
    P.Not: lambda rng, inner: P.Not(inner(rng)),
    P.AllOf: lambda rng, inner: P.AllOf(_some(rng, inner, 0, 3)),
    P.AnyOf: lambda rng, inner: P.AnyOf(_some(rng, inner, 0, 3)),
    P.Implies: lambda rng, inner: P.Implies(inner(rng), inner(rng)),
}

MAX_DEPTH = 2  # nesting of predicate combinators

#: (leaves, combinators) a vocabulary draws from, in draw order
#: (reordering changes every seeded cell's input).
CONDITION_KINDS = (
    (P.HasCommunity, P.PrefixIn, P.AsPathHas, P.MedIn, P.LocalPrefIn, P.AsPathLenIn,
     P.OriginIs, P.NextHopIn),
    (P.Not, P.AnyOf, P.AllOf),
)
PREDICATE_KINDS = (
    (P.TruePred, P.FalsePred, P.HasCommunity, P.PrefixIn, P.GhostIs, P.AsPathHas,
     P.LocalPrefIn, P.MedIn, P.AsPathLenIn, P.OriginIs, P.NextHopIn),
    (P.Not, P.AllOf, P.AnyOf, P.Implies),
)


def condition(rng: random.Random, depth: int = 0) -> P.Predicate:
    """A route-map condition: any kind a configuration admits; below
    :data:`MAX_DEPTH` a ``Not``, ``AnyOf`` or ``AllOf`` (empty too) of
    further draws."""
    return _predicate(rng, depth, CONDITION_KINDS)


def predicate(rng: random.Random, depth: int = 0) -> P.Predicate:
    """Any predicate kind; below :data:`MAX_DEPTH` a ``Not``, ``AllOf``,
    ``AnyOf`` (empty too) or ``Implies`` of further draws."""
    return _predicate(rng, depth, PREDICATE_KINDS)


def _predicate(rng: random.Random, depth: int, vocabulary: tuple) -> P.Predicate:
    leaves, combinators = vocabulary
    kind = rng.randrange(len(leaves) + (len(combinators) if depth < MAX_DEPTH else 0))
    if kind < len(leaves):
        return _LEAVES[leaves[kind]](rng)
    inner = lambda r: _predicate(r, depth + 1, vocabulary)
    return _COMBINATORS[combinators[kind - len(leaves)]](rng, inner)


def kinds(obj: object) -> set[type]:
    """The type of ``obj`` and of every record and tuple item inside it."""
    found, stack = set(), [obj]
    while stack:
        item = stack.pop()
        if isinstance(item, tuple):
            stack.extend(item)
        elif isinstance(item, Record):
            found.add(type(item))
            stack.extend(getattr(item, name) for name in fields(item))
    return found


# ---------------------------------------------------------------------------
# Encoder terms
# ---------------------------------------------------------------------------
#
# Built from the raw node classes, not the smart constructors, so
# constants reach either operand side of every gate (the encoder's
# folding paths).  ``variables`` names at most three Booleans ``pqr`` and
# three bit-vectors ``xyz`` of the one ``width``.


def bv_term(rng: random.Random, width: int, depth: int, variables: int = 3) -> T.Term:
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        if rng.random() < 0.5:
            return T.BvConst(rng.randrange(2**width), width)
        return T.BvVar(rng.choice("xyz"[:variables]), width)
    below = lambda: bv_term(rng, width, depth - 1, variables)
    if roll < 0.5:
        return T.BvIte(bool_term(rng, width, depth - 1, variables), below(), below())
    return rng.choice((T.BvAnd, T.BvAdd))(below(), below())


def bool_term(rng: random.Random, width: int, depth: int, variables: int = 3) -> T.Term:
    roll = rng.random()
    if depth == 0 or roll < 0.15:
        if rng.random() < 0.2:
            return T.BoolConst(rng.random() < 0.5)
        return T.BoolVar(rng.choice("pqr"[:variables]))
    below = lambda: bool_term(rng, width, depth - 1, variables)
    if roll < 0.25:
        return T.Not(below())
    if roll < 0.4:
        return rng.choice((T.And, T.Or))(tuple(below() for __ in range(rng.randint(2, 3))))
    if roll < 0.5:
        return T.Ite(below(), below(), below())
    operand = lambda: bv_term(rng, width, depth - 1, variables)
    return rng.choice((T.BvEq, T.BvUlt, T.BvUle))(operand(), operand())
