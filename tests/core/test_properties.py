"""Tests for property specifications and invariant maps."""

from __future__ import annotations

import pytest

from repro.bgp.topology import Edge
from repro.core.properties import InvariantMap, LivenessProperty, SafetyProperty
from repro.core.safety import verify_safety
from repro.core.workspace import Workspace
from repro.lang.ghost import GhostAttribute
from repro.lang.predicates import FalsePred, TruePred
from repro.workloads.figure1 import build_figure1


def test_invariant_default_and_override():
    config = build_figure1()
    inv = InvariantMap(config.topology, default=FalsePred())
    assert isinstance(inv.get("R1"), FalsePred)
    inv.set("R1", TruePred())
    assert isinstance(inv.get("R1"), TruePred)
    assert isinstance(inv.get("R2"), FalsePred)
    assert inv.overridden_locations() == ("R1",)


def test_invariant_external_source_edges_pinned_true():
    config = build_figure1()
    inv = InvariantMap(config.topology, default=FalsePred())
    # Reads return True regardless of the default.
    assert isinstance(inv.get(Edge("ISP1", "R1")), TruePred)
    # Writes are rejected: §4.1 requires I = Routes there.
    with pytest.raises(ValueError):
        inv.set(Edge("ISP1", "R1"), FalsePred())


def test_invariant_edges_to_externals_are_settable():
    config = build_figure1()
    inv = InvariantMap(config.topology)
    inv.set_edge("R2", "ISP2", FalsePred())
    assert isinstance(inv.get(Edge("R2", "ISP2")), FalsePred)


def test_invariant_rejects_unknown_locations():
    config = build_figure1()
    inv = InvariantMap(config.topology)
    with pytest.raises(KeyError):
        inv.set("NOPE", TruePred())
    with pytest.raises(KeyError):
        inv.set(Edge("R1", "NOPE"), TruePred())
    with pytest.raises(KeyError):
        inv.set("ISP1", TruePred())  # externals are not routers
    with pytest.raises(TypeError):
        inv.set(42, TruePred())  # type: ignore[arg-type]


def test_invariant_copy_is_independent():
    config = build_figure1()
    inv = InvariantMap(config.topology, default=TruePred())
    clone = inv.copy()
    clone.set("R1", FalsePred())
    assert isinstance(inv.get("R1"), TruePred)


def test_invariant_set_many():
    config = build_figure1()
    inv = InvariantMap(config.topology)
    inv.set_many(["R1", "R2"], FalsePred())
    assert isinstance(inv.get("R1"), FalsePred)
    assert isinstance(inv.get("R2"), FalsePred)


def test_liveness_property_shape_validation():
    with pytest.raises(ValueError):
        LivenessProperty(
            location="R2",
            predicate=TruePred(),
            path=("R1",),
            constraints=(TruePred(), TruePred()),
        )
    with pytest.raises(ValueError):
        LivenessProperty(
            location="R2",
            predicate=TruePred(),
            path=("R1",),
            constraints=(TruePred(),),
        )  # path must end at the property location
    with pytest.raises(ValueError):
        LivenessProperty(
            location="R2", predicate=TruePred(), path=(), constraints=()
        )


def test_liveness_property_topological_validation():
    config = build_figure1()
    prop = LivenessProperty(
        location="R2",
        predicate=TruePred(),
        path=("R1", Edge("R1", "ISP1"), "R2"),  # ISP1 edge doesn't lead to R2
        constraints=(TruePred(),) * 3,
    )
    with pytest.raises(ValueError):
        prop.validate_against(config.topology)


@pytest.mark.parametrize(
    "location", ["R9", "ISP1", Edge("R2", "ISP9"), Edge("R9", "R1")], ids=str
)
def test_a_safety_location_outside_the_network_is_rejected(location):
    # The invariant map answers its default anywhere, so a property whose
    # predicate is the default would pass without any check behind it.
    config = build_figure1()
    invariants = InvariantMap(config.topology)
    prop = SafetyProperty(location, TruePred())
    family = [SafetyProperty("R1", TruePred()), prop]
    for run in (
        lambda: verify_safety(config, prop, invariants),
        lambda: verify_safety(config, family, invariants),
        lambda: Workspace(config).verify(prop, invariants),
    ):
        with pytest.raises(ValueError, match="safety location"):
            run()


def test_a_waypoint_outside_the_network_is_rejected():
    config = build_figure1()
    with pytest.raises(ValueError, match="waypoint 'R9'"):
        GhostAttribute.waypoint("ViaR9", config.topology, "R9")


def test_property_str_rendering():
    prop = SafetyProperty("R1", TruePred(), name="demo")
    assert "demo" in str(prop)
    assert "R1" in str(prop)
