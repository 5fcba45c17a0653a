"""Memo keys cost one dict probe, not one walk over the key's tree.

A WAN sweep looks up ``predicate_term``, ``SymbolicRoute.fresh`` and
``intern_route_map`` tens of thousands of times with the same few
predicates, universes and route maps as keys.  Each of those values runs
its dataclass-generated ``__hash__`` at most once; the universe a sweep is
built under walks each distinct predicate once and is the same universe a
walk over every occurrence gives.
"""

from __future__ import annotations

import sys

import pytest

from repro.bgp.policy import RouteMap
from repro.core import safety
from repro.core.exec import ExecutionContext
from repro.lang.predicates import Predicate, predicate_atoms
from repro.lang.transfer import reset_transfer_cache
from repro.lang.universe import AttributeUniverse
from repro.workloads.figure1 import build_figure1
from repro.workloads.wan import build_wan
from repro.workloads.wan_properties import (
    all_peering_problems,
    ip_reuse_liveness_problem,
    ip_reuse_safety_problem,
    verify_peering_problems,
)

from tests.core.conftest import (
    customer_liveness_property,
    isp1_ghost,
    no_transit_invariants,
    no_transit_property,
)

MEMO_KEYS = (Predicate, AttributeUniverse, RouteMap)


def _count_generated_hashes(run):
    """(calls, distinct instances) of the dataclass-generated ``__hash__``
    of every memo-key type while ``run()`` executes."""
    hashed: dict[int, object] = {}  # id -> instance, kept alive so ids stay unique
    calls = [0]

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_name == "__hash__" and code.co_filename == "<string>":
            value = frame.f_locals.get("self")
            if isinstance(value, MEMO_KEYS):
                calls[0] += 1
                hashed[id(value)] = value

    sys.setprofile(profile)
    try:
        result = run()
    finally:
        sys.setprofile(None)
    return result, calls[0], len(hashed)


def test_a_peering_sweep_hashes_each_memo_key_once():
    wan = build_wan(2, 3)
    reset_transfer_cache()
    context = ExecutionContext()
    results, calls, instances = _count_generated_hashes(
        lambda: verify_peering_problems(wan, workspace=context)
    )
    checks = sum(report.num_checks for __, report in results)
    assert all(report.passed for __, report in results)
    assert calls == instances
    # The bound is the distinct keys, far below one walk per check.
    assert instances < checks // 4, (instances, checks)


def _reference_universe(config, predicates, ghosts):
    """The universe from a walk over every predicate occurrence."""
    communities, asns, names = set(), set(), {g.name for g in ghosts}
    for pred in predicates:
        c, a, g = predicate_atoms(pred)
        communities |= c
        asns |= a
        names |= g
    return AttributeUniverse.from_config(config, tuple(communities), tuple(asns), tuple(names))


def _wan_sweep_inputs():
    wan = build_wan(2, 3)
    problems = [
        *all_peering_problems(wan),
        *(ip_reuse_safety_problem(wan, region) for region in range(2)),
        *(ip_reuse_liveness_problem(wan, region) for region in range(2)),
    ]
    predicates = [pred for prob in problems for pred in prob.problem().predicates()]
    return wan.config, predicates, tuple(prob.ghost for prob in problems)


def _figure1_inputs():
    config = build_figure1()
    ghost = isp1_ghost(config)
    liveness = customer_liveness_property()
    predicates = [
        no_transit_property().predicate,
        liveness.predicate,
        *liveness.constraints,
        *safety.invariant_predicates(no_transit_invariants(config)),
    ]
    return config, predicates, (ghost,)


@pytest.mark.parametrize("inputs", [_wan_sweep_inputs, _figure1_inputs], ids=["wan-2-3", "figure1"])
def test_build_universe_walks_each_distinct_predicate_once(inputs, monkeypatch):
    config, predicates, ghosts = inputs()
    expected = _reference_universe(config, predicates, ghosts)
    walked = []

    def counting_atoms(pred):
        walked.append(pred)
        return predicate_atoms(pred)

    monkeypatch.setattr(safety, "predicate_atoms", counting_atoms)
    universe = safety.build_universe(config, predicates, ghosts)
    assert universe == expected
    assert len(walked) == len(set(walked))
    assert set(walked) == set(predicates)
