"""Seeded random inputs: one generator over the whole policy vocabulary.

Every randomized test in the suite draws here, from a ``random.Random``
its cell seeds, so a failing cell names its input by seed and reruns it
exactly.  A draw reaches every concrete ``Match``, ``Action`` and
``Predicate`` kind, nested ``MatchNot``/``MatchAny``/``MatchAll`` and
predicate combinators included, and every term node the encoder has
(``tests/lang/test_transfer.py`` and ``tests/smt/test_encode.py`` fail
unless the seeds their differential cells run draw each one).

Values come from one small vocabulary, so a symbolic route over
:data:`UNIVERSE` can encode whatever a draw mentions, and route values
and the bounds that test them come from the same ranges, so both sides
of a bound are drawn.
"""

from __future__ import annotations

import random
from dataclasses import fields, is_dataclass
from typing import Any, Callable

from repro.bgp.policy import (
    AddCommunity,
    ClearCommunities,
    DeleteCommunity,
    Disposition,
    Match,
    MatchAll,
    MatchAny,
    MatchAsPathContains,
    MatchAsPathLength,
    MatchCommunity,
    MatchLocalPrefRange,
    MatchMedRange,
    MatchNextHopIn,
    MatchNot,
    MatchOrigin,
    MatchPrefix,
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

MAX_DEPTH = 2  # nesting of MatchNot/MatchAny/MatchAll, and of predicate combinators

_MATCHES: tuple[Callable[[random.Random], Match], ...] = (
    lambda rng: MatchCommunity(community(rng)),
    lambda rng: MatchPrefix(_some(rng, prefix_range, 1, 2)),
    lambda rng: MatchAsPathContains(rng.choice(ASNS)),
    lambda rng: MatchMedRange(*_bounds(rng, MED_TOP)),
    lambda rng: MatchLocalPrefRange(*_bounds(rng, LOCAL_PREF_TOP)),
    lambda rng: MatchAsPathLength(*_bounds(rng, PATH_TOP)),
    lambda rng: MatchOrigin(rng.randint(0, 2)),
    lambda rng: MatchNextHopIn(_some(rng, next_hop_prefix, 1, 2)),
)


def match(rng: random.Random, depth: int = 0) -> Match:
    """Any match kind; below :data:`MAX_DEPTH` a negation, disjunction or
    conjunction (empty too) of further draws."""
    kind = rng.randrange(len(_MATCHES) + (3 if depth < MAX_DEPTH else 0))
    if kind < len(_MATCHES):
        return _MATCHES[kind](rng)
    inner = lambda r: match(r, depth + 1)
    if kind == len(_MATCHES):
        return MatchNot(inner(rng))
    return (MatchAny, MatchAll)[kind - len(_MATCHES) - 1](_some(rng, inner, 0, 3))


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
        seq, matches = (i + 1) * 10, _some(rng, match, 0, 2)
        if rng.random() < 0.3:
            clauses.append(RouteMapClause(seq, Disposition.DENY, matches))
        else:
            actions = _some(rng, action, 0, 3)
            clauses.append(RouteMapClause(seq, Disposition.PERMIT, matches, actions))
    return RouteMap(name, tuple(clauses))


# ---------------------------------------------------------------------------
# Predicates
# ---------------------------------------------------------------------------

_PREDICATES: tuple[Callable[[random.Random], P.Predicate], ...] = (
    lambda rng: P.TruePred(),
    lambda rng: P.FalsePred(),
    lambda rng: P.HasCommunity(community(rng)),
    lambda rng: P.PrefixIn(_some(rng, prefix_range, 1, 2)),
    lambda rng: P.GhostIs(rng.choice(GHOSTS), rng.random() < 0.5),
    lambda rng: P.AsPathHas(rng.choice(ASNS)),
    lambda rng: P.LocalPrefIn(*_bounds(rng, LOCAL_PREF_TOP)),
    lambda rng: P.MedIn(*_bounds(rng, MED_TOP)),
    lambda rng: P.AsPathLenIn(*_bounds(rng, PATH_TOP)),
    lambda rng: P.OriginIs(rng.randint(0, 2)),
    lambda rng: P.NextHopIn(_some(rng, next_hop_prefix, 1, 2)),
)


def predicate(rng: random.Random, depth: int = 0) -> P.Predicate:
    """Any predicate kind; below :data:`MAX_DEPTH` a ``Not``, ``AllOf``,
    ``AnyOf`` (empty too) or ``Implies`` of further draws."""
    kind = rng.randrange(len(_PREDICATES) + (4 if depth < MAX_DEPTH else 0))
    if kind < len(_PREDICATES):
        return _PREDICATES[kind](rng)
    inner = lambda r: predicate(r, depth + 1)
    combinator = kind - len(_PREDICATES)
    if combinator == 0:
        return P.Not(inner(rng))
    if combinator == 3:
        return P.Implies(inner(rng), inner(rng))
    return (P.AllOf, P.AnyOf)[combinator - 1](_some(rng, inner, 0, 3))


def kinds(obj: object) -> set[type]:
    """The type of ``obj`` and of every dataclass and tuple item inside it."""
    found, stack = set(), [obj]
    while stack:
        item = stack.pop()
        if isinstance(item, tuple):
            stack.extend(item)
        elif is_dataclass(item) and not isinstance(item, type):
            found.add(type(item))
            stack.extend(getattr(item, f.name) for f in fields(item))
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
