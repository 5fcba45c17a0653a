"""Symbolic route-map execution matches the concrete interpreter.

The concrete ``RouteMap.apply`` is the transfer's one reference: seeded
route maps drawn over every condition kind a configuration admits and
every action kind (``tests/draws.py``) on seeded routes.  The edge-level wrappers
(prepend, ghost updates, originated routes) are pinned directly.
"""

from __future__ import annotations

import random

import pytest

from repro import smt
from repro.bgp.configjson import condition_kinds
from repro.bgp.policy import Action, RouteMap
from repro.bgp.prefix import Prefix
from repro.bgp.route import Route
from repro.bgp.topology import Edge
from repro.lang.ghost import GhostAttribute
from repro.lang.predicates import Predicate
from repro.lang.symroute import SymbolicRoute
from repro.lang.transfer import (
    symbolic_originated,
    transfer_export,
    transfer_import,
    transfer_route_map,
)
from repro.lang.universe import AttributeUniverse
from repro.smt.solver import Model
from repro.workloads.figure1 import build_figure1

from tests import draws
from tests.core.conftest import isp1_ghost
from tests.lang.test_predicates import PREDICATE_SEEDS

EMPTY_MODEL = Model({}, {})


def _assert_same(route_map: RouteMap | None, route: Route) -> None:
    """Run symbolically on a constant embedding and read the output back:
    it is what ``route_map.apply`` gives (the AS path as universe
    members and a length; the witness pads it with an outside ASN)."""
    expected = route_map.apply(route) if route_map is not None else route
    accepted, out = transfer_route_map(route_map, SymbolicRoute.concrete(route, draws.UNIVERSE))
    assert EMPTY_MODEL.eval_bool(accepted) is (expected is not None)
    if expected is None:
        return
    got = out.evaluate(EMPTY_MODEL)
    assert got.prefix == expected.prefix
    assert (got.local_pref, got.med) == (expected.local_pref, expected.med)
    assert (got.origin, got.next_hop) == (expected.origin, expected.next_hop)
    assert got.communities == expected.communities  # every community drawn is in the universe
    members = set(draws.UNIVERSE.asns)
    assert set(got.as_path) & members == set(expected.as_path) & members
    assert EMPTY_MODEL.eval_bv(out.as_path_len) == len(got.as_path) == len(expected.as_path)


def test_none_route_map_is_identity():
    _assert_same(None, Route(prefix=Prefix.parse("10.0.0.0/8"), med=3))


# ---------------------------------------------------------------------------
# Randomised faithfulness
# ---------------------------------------------------------------------------

TRANSFER_SEEDS = range(240)


@pytest.mark.parametrize("seed", TRANSFER_SEEDS)
def test_transfer_matches_concrete_interpreter(seed):
    rng = random.Random(seed)
    route_map, route = draws.route_map(rng), draws.route(rng)
    _assert_same(route_map, route)
    # Each condition alone too: an earlier clause or a sibling condition
    # can hide a wrong one from the route map's outcome.
    sym = SymbolicRoute.concrete(route, draws.UNIVERSE)
    for cond in (m for clause in route_map.clauses for m in clause.matches):
        assert EMPTY_MODEL.eval_bool(cond.to_term(sym)) is cond.holds(route), cond


def _concrete_subclasses(base: type) -> set[type]:
    below = set(base.__subclasses__())
    return below.union(*map(_concrete_subclasses, below))


def test_the_differential_seeds_draw_every_match_action_and_predicate_kind():
    # A draw is only as good as its reach: a kind added to the language
    # must be drawn by the seeds the transfer and predicate cells run.  The
    # route maps must reach every condition kind a configuration admits
    # (combinators included) and every action, the predicates every kind.
    in_maps, in_predicates = set(), set()
    for seed in TRANSFER_SEEDS:
        in_maps |= draws.kinds(draws.route_map(random.Random(seed)))
    for seed in PREDICATE_SEEDS:
        in_predicates |= draws.kinds(draws.predicate(random.Random(seed)))
    admitted = {cls for cls, __ in condition_kinds().classes.values()}
    assert admitted <= in_maps, admitted - in_maps
    assert _concrete_subclasses(Action) <= in_maps
    assert _concrete_subclasses(Predicate) <= in_predicates


# ---------------------------------------------------------------------------
# Edge-level transfer: prepend and ghost updates
# ---------------------------------------------------------------------------


def test_export_prepends_on_ebgp():
    config = build_figure1()
    universe = AttributeUniverse.from_config(config)
    r = Route(prefix=Prefix.parse("20.0.0.0/8"))
    sym = SymbolicRoute.concrete(r, universe)
    accepted, out = transfer_export(config, Edge("R2", "ISP2"), sym)
    assert EMPTY_MODEL.eval_bool(accepted)
    assert EMPTY_MODEL.eval_bool(out.as_path_members[65000])
    assert EMPTY_MODEL.eval_bv(out.as_path_len) == 1


def test_export_no_prepend_on_ibgp():
    config = build_figure1()
    universe = AttributeUniverse.from_config(config)
    sym = SymbolicRoute.concrete(Route(prefix=Prefix.parse("20.0.0.0/8")), universe)
    __, out = transfer_export(config, Edge("R2", "R1"), sym)
    assert not EMPTY_MODEL.eval_bool(out.as_path_members[65000])


def test_ghost_update_on_import():
    config = build_figure1()
    universe = AttributeUniverse.from_config(config, ghosts=("FromISP1",))
    ghost = isp1_ghost(config)
    sym = SymbolicRoute.fresh("r", universe)
    __, out = transfer_import(config, Edge("ISP1", "R1"), sym, ghosts=[ghost])
    assert out.ghosts["FromISP1"] is smt.true()
    __, out2 = transfer_import(config, Edge("ISP2", "R2"), sym, ghosts=[ghost])
    assert out2.ghosts["FromISP1"] is smt.false()
    # Internal edges leave the ghost unchanged.
    __, out3 = transfer_import(config, Edge("R1", "R2"), sym, ghosts=[ghost])
    assert out3.ghosts["FromISP1"] is sym.ghosts["FromISP1"]


def test_ghost_source_tracker_rejects_internal_source():
    config = build_figure1()
    with pytest.raises(ValueError):
        GhostAttribute.source_tracker("X", config.topology, [Edge("R1", "R2")])


def test_waypoint_ghost_updates():
    config = build_figure1()
    ghost = GhostAttribute.waypoint("ViaR1", config.topology, "R1")
    assert ghost.import_update(Edge("ISP1", "R1")) is True
    assert ghost.export_update(Edge("R1", "R2")) is True
    assert ghost.import_update(Edge("ISP2", "R2")) is False
    assert ghost.import_update(Edge("R3", "R2")) is None


def test_symbolic_originated_embeds_ghost_default():
    config = build_figure1()
    # Give R1 an originated route toward R2.
    from repro.bgp.route import Route as R

    config.routers["R1"].neighbors["R2"].originated = (
        R(prefix=Prefix.parse("8.8.0.0/16")),
    )
    universe = AttributeUniverse.from_config(config, ghosts=("FromISP1",))
    ghost = isp1_ghost(config)
    syms = symbolic_originated(config, Edge("R1", "R2"), universe, ghosts=[ghost])
    assert len(syms) == 1
    assert syms[0].ghosts["FromISP1"] is smt.false()
