"""Tests for the predicate DSL: symbolic and concrete interpretations agree."""

from __future__ import annotations

import random

import pytest

from repro import smt
from repro.bgp.prefix import Prefix, PrefixRange, parse_ipv4
from repro.bgp.route import Community, Route
from repro.lang.predicates import (
    AllOf,
    AnyOf,
    AsPathHas,
    AsPathLenIn,
    FalsePred,
    GhostIs,
    HasCommunity,
    Implies,
    LocalPrefIn,
    MedIn,
    NextHopIn,
    Not,
    OriginIs,
    PrefixIn,
    TruePred,
    prefix_projection,
)
from repro.lang.symroute import SymbolicRoute
from repro.smt.solver import Model

from tests import draws

UNIVERSE = draws.UNIVERSE
C1 = Community(100, 1)


def _concrete_agreement(pred, route: Route) -> None:
    """The symbolic term on a constant embedding equals the concrete answer."""
    sym = SymbolicRoute.concrete(route, UNIVERSE)
    term = pred.to_term(sym)
    assert Model({}, {}).eval_bool(term) is pred.holds(route)


ROUTES = [
    Route(prefix=Prefix.parse("10.0.0.0/8")),
    Route(prefix=Prefix.parse("10.1.0.0/16"), communities=frozenset({C1})),
    Route(prefix=Prefix.parse("20.0.0.0/8"), as_path=(100, 666), med=30),
    Route(prefix=Prefix.parse("0.0.0.0/0"), local_pref=250, ghost={"FromISP1": True}),
    Route(prefix=Prefix.parse("172.16.5.0/24"), ghost={"FromRegion": True}, med=5),
    Route(prefix=Prefix.parse("10.0.0.0/8"), as_path=(100,), origin=1,
          next_hop=parse_ipv4("10.0.0.1")),
    # Both sides of every combinator row and of every range bound.
    Route(prefix=Prefix.parse("10.1.0.0/16"), communities=frozenset({C1}), as_path=(100, 666, 100),
          local_pref=200, med=60, ghost={"FromISP1": True}),
    Route(prefix=Prefix.parse("10.1.0.0/24"), local_pref=201, med=10),
    Route(prefix=Prefix.parse("10.1.0.0/24"), communities=frozenset({C1}), med=11),
]

PREDICATES = [
    TruePred(),
    FalsePred(),
    HasCommunity(C1),
    PrefixIn.under(Prefix.parse("10.0.0.0/8")),
    PrefixIn.exact(Prefix.parse("10.1.0.0/16")),
    PrefixIn((PrefixRange.parse("172.16.0.0/12 le 24"),)),
    GhostIs("FromISP1"),
    GhostIs("FromRegion", False),
    AsPathHas(666),
    LocalPrefIn(100, 200),
    MedIn(0, 10),
    Not(HasCommunity(C1)),
    AllOf((HasCommunity(C1), MedIn(0, 50))),
    AnyOf((AsPathHas(666), GhostIs("FromISP1"))),
    Implies(GhostIs("FromISP1"), HasCommunity(C1)),
    AsPathLenIn(1, 2),
    OriginIs(1),
    NextHopIn((Prefix.parse("10.0.0.0/8"),)),
]


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("pred", PREDICATES, ids=lambda p: repr(p))
def test_symbolic_matches_concrete(pred, route):
    _concrete_agreement(pred, route)


def test_combinator_operators():
    p = HasCommunity(C1) & MedIn(0, 10)
    assert isinstance(p, AllOf)
    q = HasCommunity(C1) | MedIn(0, 10)
    assert isinstance(q, AnyOf)
    n = ~HasCommunity(C1)
    assert isinstance(n, Not)
    i = GhostIs("FromISP1").implies(HasCommunity(C1))
    assert isinstance(i, Implies)


def test_predicate_repr_is_readable():
    pred = Implies(GhostIs("FromISP1"), HasCommunity(C1))
    assert "FromISP1" in repr(pred)
    assert "100:1" in repr(pred)


def test_symbolic_satisfiability_of_predicates():
    r = SymbolicRoute.fresh("r", UNIVERSE)
    s = smt.Solver()
    s.add(r.well_formed())
    s.add(PrefixIn.under(Prefix.parse("10.0.0.0/8")).to_term(r))
    s.add(Not(HasCommunity(C1)).to_term(r))
    assert s.check() is smt.Result.SAT
    route = r.evaluate(s.model())
    assert Prefix.parse("10.0.0.0/8").contains(route.prefix)
    assert C1 not in route.communities


def test_unsat_contradictory_predicates():
    r = SymbolicRoute.fresh("r", UNIVERSE)
    s = smt.Solver()
    s.add(HasCommunity(C1).to_term(r))
    s.add(Not(HasCommunity(C1)).to_term(r))
    assert s.check() is smt.Result.UNSAT


# ---------------------------------------------------------------------------
# prefix_projection
# ---------------------------------------------------------------------------


def test_projection_of_prefix_pred_is_exact():
    pred = PrefixIn.under(Prefix.parse("10.0.0.0/8"))
    assert prefix_projection(pred) == pred.ranges


def test_projection_of_conjunction_uses_prefix_conjunct():
    pred = AllOf((HasCommunity(C1), PrefixIn.exact(Prefix.parse("10.0.0.0/8"))))
    ranges = prefix_projection(pred)
    assert ranges is not None
    assert ranges[0].prefix == Prefix.parse("10.0.0.0/8")


def test_projection_of_disjunction_unions():
    pred = AnyOf(
        (
            PrefixIn.exact(Prefix.parse("10.0.0.0/8")),
            PrefixIn.exact(Prefix.parse("20.0.0.0/8")),
        )
    )
    ranges = prefix_projection(pred)
    assert len(ranges) == 2


def test_projection_widens_to_all_when_unknown():
    assert prefix_projection(HasCommunity(C1)) is None
    assert prefix_projection(TruePred()) is None
    assert prefix_projection(AnyOf((PrefixIn.exact(Prefix.parse("1.0.0.0/8")), TruePred()))) is None


def test_projection_of_false_is_empty():
    assert prefix_projection(FalsePred()) == ()


def test_projection_is_sound_overapproximation():
    # Every route satisfying the predicate has its prefix in the projection.
    pred = AllOf((PrefixIn.under(Prefix.parse("10.0.0.0/8")), MedIn(0, 5)))
    ranges = prefix_projection(pred)
    for route in ROUTES:
        if pred.holds(route):
            assert any(r.matches(route.prefix) for r in ranges)


PREDICATE_SEEDS = range(150)


@pytest.mark.parametrize("seed", PREDICATE_SEEDS)
def test_agreement_on_drawn_predicates_and_routes(seed):
    rng = random.Random(seed)
    _concrete_agreement(draws.predicate(rng), draws.route(rng))
